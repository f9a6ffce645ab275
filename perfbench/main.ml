(* The repository benchmark: drives oshil through its public entry
   points on one named workload and prints every metric, the last line
   being one JSON object {correct, attempted, failed, metrics}. Run
   from the repository root through perfbench/run.sh; see
   perfbench/README.md for the workloads and metrics. *)

let usage =
  "usage: perfbench --workload (df-paper|engine-verify|daemon-mix) --seed N \
   --seconds S --trace (0|1)\n\
  \       perfbench --write-reference"

let die msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

type args = { workload : string; seed : int; seconds : float; traced : bool }

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> go { acc with seed } rest
      | None -> die ("bad --seed " ^ s))
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some v when v > 0.0 -> go { acc with seconds = v } rest
      | _ -> die ("bad --seconds " ^ s))
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with traced = t = "1" } rest
    | arg :: _ -> die ("unexpected argument " ^ arg)
  in
  go { workload = ""; seed = 1; seconds = 10.0; traced = false } argv

(* --- host facts ------------------------------------------------------- *)

let commit () =
  match Sys.getenv_opt "OSHIL_GIT_REV" with
  | Some r when r <> "" -> r
  | _ -> (
    let git = ".git" in
    match String.trim (Util.read_file (Filename.concat git "HEAD")) with
    | exception Sys_error _ -> "unknown"
    | head ->
      let prefix = "ref: " in
      let pl = String.length prefix in
      if String.length head > pl && String.sub head 0 pl = prefix then
        let ref_ = String.sub head pl (String.length head - pl) in
        match Util.read_file (Filename.concat git ref_) with
        | exception Sys_error _ -> ref_
        | sha -> String.trim sha
      else head)

(* Digest of the library sources, which identifies the measured code
   where there is no git metadata. *)
let source_digest () =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                   || Filename.check_suffix p ".c"
           then [ p ]
           else [])
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.concat_map (fun p -> [ p; Util.read_file p ]) (walk "lib"))))

let host_line () =
  Printf.sprintf
    "host: nproc=%d ocaml=%s vec_tanh_available=%b pool_size=%d commit=%s lib_md5=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Numerics.Kernel.vec_tanh_available ())
    (Numerics.Pool.default_size ())
    (commit ()) (source_digest ())

(* --- output ----------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let end_to_end (r : Run.result) =
  let n = List.length r.latencies_ms in
  (* taken from one round's sample count, so the percentile stays put
     when a faster or slower host fits another round into the run *)
  let tail_p = Util.tail_percentile r.round_units in
  [
    ("setup_s", r.setup_s, "s", Printf.sprintf "median of %d set-ups" Run.setup_reps);
    ("latency_p50_ms", Util.median r.latencies_ms, "ms", Printf.sprintf "n=%d" n);
    ( "latency_tail_ms",
      Util.percentile r.latencies_ms (float_of_int tail_p),
      "ms",
      Printf.sprintf "p%d (ten beyond it in a round of %d), n=%d" tail_p r.round_units n );
    ( "throughput_per_s",
      float_of_int n /. r.elapsed_s,
      "1/s",
      Printf.sprintf "%d units in %.3f s" n r.elapsed_s );
    ( "ok_share",
      float_of_int (r.attempted - r.failed) /. float_of_int (max 1 r.attempted),
      "share",
      Printf.sprintf "error_share=%d/%d" r.failed r.attempted );
    ("peak_rss_mb", r.rss_mb, "MB", "VmHWM");
  ]

let print_result a (r : Run.result) =
  let metrics =
    match r.traced with
    | None -> end_to_end r
    | Some (tr, extra) ->
      List.map
        (fun (name, v, unit) -> (name, v, unit, ""))
        (Trace.metrics tr extra ~scenarios:Engine_verify.labels)
  in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n# %s\n" a.workload
    a.seed a.seconds
    (if a.traced then 1 else 0)
    (host_line ());
  List.iter (fun l -> Printf.printf "# %s\n" l) r.notes;
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "%-40s %14.6g %-10s %s\n" name v unit note)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.mismatches = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit, _) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  (* the measured configuration, whatever the environment asks for *)
  Numerics.Pool.set_jobs 1;
  Numerics.Kernel.set_batch_enabled true;
  Obs.set_enabled false;
  Cache.Store.set_enabled false;
  if argv = [ "--write-reference" ] then Cells.write_reference Cells.reference_file
  else begin
    let a = parse_args argv in
    let run =
      match a.workload with
      | "df-paper" -> Df_paper.run
      | "engine-verify" -> Engine_verify.run
      | "daemon-mix" -> Daemon_mix.run
      | w -> die ("unknown --workload " ^ w)
    in
    let r = run ~seconds:a.seconds ~seed:a.seed ~traced:a.traced in
    print_result a r;
    if r.mismatches > 0 then exit 1
  end
