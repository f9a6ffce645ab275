(* The paper's describing-function cells and the pinned lock bands the
   benchmark checks every Shil report against. *)

type t = { osc : string; n : int; vi : float; reduced : bool }

let oscs = [| "tanh"; "diffpair"; "tunnel" |]
let orders = [| 2; 3; 4; 5 |]
let amplitudes = [| 0.01; 0.03; 0.08 |]

let all =
  Array.of_list
    (List.concat_map
       (fun osc ->
         List.concat_map
           (fun n ->
             List.concat_map
               (fun vi ->
                 [ { osc; n; vi; reduced = false }; { osc; n; vi; reduced = true } ])
               (Array.to_list amplitudes))
           (Array.to_list orders))
       (Array.to_list oscs))

let quad c = if c.reduced then "reduced" else "exact"
let label c = Printf.sprintf "%s n=%d vi=%g %s" c.osc c.n c.vi (quad c)

let payload c =
  Api.Request.Shil
    { osc = Builtin c.osc; n = c.n; vi = c.vi; reduced = c.reduced; finj = None }

(* All cells in a seeded order, stratified over the six (oscillator,
   quadrature) classes. *)
let deck rng =
  Util.interleave rng
    (List.concat_map
       (fun osc ->
         List.map
           (fun reduced ->
             Array.of_list
               (List.filter (fun c -> c.osc = osc && c.reduced = reduced) (Array.to_list all)))
           [ false; true ])
       (Array.to_list oscs))

(* --- the report's band ------------------------------------------------ *)

(* Edges of the "injection band:  [lo, hi] Hz" line of an [oshil shil]
   report. *)
let band_of_report text =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         let key = "injection band:" in
         let kl = String.length key in
         if String.length line >= kl && String.sub line 0 kl = key then
           match (String.index_opt line '[', String.index_opt line ']') with
           | Some i, Some j when j > i -> (
             match String.split_on_char ',' (String.sub line (i + 1) (j - i - 1)) with
             | [ lo; hi ] -> (
               match
                 (float_of_string_opt (String.trim lo),
                  float_of_string_opt (String.trim hi))
               with
               | Some lo, Some hi -> Some (lo, hi)
               | _ -> None)
             | _ -> None)
           | _ -> None
         else None)

(* --- pinned reference --------------------------------------------------- *)

let reference_file = "perfbench/data/df_reference.txt"
let key c = Printf.sprintf "%s %d %g %s" c.osc c.n c.vi (quad c)

let load_reference () =
  let tbl = Hashtbl.create 72 in
  String.split_on_char '\n' (Util.read_file reference_file)
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ osc; n; vi; q; lo; hi ] when osc <> "" && osc.[0] <> '#' ->
           Hashtbl.replace tbl
             (String.concat " " [ osc; n; vi; q ])
             (float_of_string lo, float_of_string hi)
         | _ -> ());
  Array.iter
    (fun c ->
      if not (Hashtbl.mem tbl (key c)) then
        failwith (Printf.sprintf "%s: no entry for %s" reference_file (key c)))
    all;
  tbl

(* Edges agree when both are the report's "nan" (no lock at the centre
   frequency) or within 1e-6 of the edge frequency — the size of the
   lock-range bisection's own edge error on the narrowest bands. *)
let edge_ok ~want got =
  (Float.is_nan want && Float.is_nan got)
  || Float.abs (got -. want) <= 1e-6 *. Float.abs want

let check_report ref_tbl c text =
  match (band_of_report text, Hashtbl.find_opt ref_tbl (key c)) with
  | Some (lo, hi), Some (want_lo, want_hi) ->
    edge_ok ~want:want_lo lo && edge_ok ~want:want_hi hi
  | _ -> false

let write_reference path =
  let oc = open_out path in
  output_string oc
    "# osc n vi quadrature f_inj_low f_inj_high — injection band edges of\n\
     # the oshil shil report for each paper cell (Api.execute, cache off,\n\
     # pool size 1). Regenerate with: perfbench/run.sh --write-reference\n";
  Array.iter
    (fun c ->
      let req = { Api.Request.id = "ref"; deadline_s = None; payload = payload c } in
      match Api.execute req with
      | Ok text -> (
        match band_of_report text with
        | Some (lo, hi) -> Printf.fprintf oc "%s %.17g %.17g\n" (key c) lo hi
        | None -> failwith ("no band in report for " ^ label c))
      | Error e -> failwith (Resilience.Oshil_error.to_string e))
    all;
  close_out oc
