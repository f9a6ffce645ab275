let now () = Obs.Clock.wall_s ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics ---------------------------------------------- *)

(* Linear interpolation between closest ranks (the "R-7" rule), so a
   percentile of a fixed set of samples is a fixed number. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.0

(* The highest whole percentile that still has at least ten of [n]
   samples beyond it; below 20 samples no percentile above the median
   qualifies, so the median stands in. *)
let tail_percentile n =
  if n < 20 then 50
  else min 99 (100 - ((1000 + n - 1) / n))

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* --- process facts ------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let status_kb field =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = field ->
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             Scanf.sscanf_opt (String.trim rest) "%d kB" Fun.id
           | _ -> None)

(* Peak resident set (VmHWM); where /proc is missing, the OCaml heap
   peak is the closest portable stand-in. *)
let peak_rss_mb () =
  match status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

(* --- seeded choices ------------------------------------------------ *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let uniform rng lo hi = lo +. Random.State.float rng (hi -. lo)

(* A seeded, stratified order of the union of [classes]: item j of a
   class of size m is placed at (j + u) / m, with u uniform in [0, 1)
   per item, after shuffling each class. Every stretch of the result
   holds each class in proportion to its size, so the cost mix along
   the order does not depend on the seed. *)
let interleave rng classes =
  List.concat_map
    (fun cls ->
      let m = float_of_int (Array.length cls) in
      Array.to_list
        (Array.mapi
           (fun j x -> ((float_of_int j +. Random.State.float rng 1.0) /. m, x))
           (shuffle rng cls)))
    classes
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd |> Array.of_list
