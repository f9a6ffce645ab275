(* Snapshot writers. Every sink consumes an immutable Registry.snapshot,
   so writing a trace never races the instrumentation that keeps
   recording while the file is produced. *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file ~path content =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

(* [,"key":{"k":"v",...}] for a span's attributes; empty when it has
   none. *)
let attrs_field key = function
  | [] -> ""
  | l ->
    Printf.sprintf ",\"%s\":{%s}" key
      (String.concat ","
         (List.map
            (fun (k, v) ->
              Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
            l))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON (chrome://tracing, Perfetto, speedscope) *)

let chrome_trace_string (s : Registry.snapshot) =
  let b = Buffer.create 8192 in
  let first = ref true in
  let emit str =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n  ";
    Buffer.add_string b str
  in
  Buffer.add_string b "{\"traceEvents\":[";
  emit {|{"name":"process_name","ph":"M","pid":0,"args":{"name":"oshil"}}|};
  let tids =
    List.sort_uniq Int.compare
      (List.map (fun (e : Registry.span_ev) -> e.tid) s.spans)
  in
  List.iter
    (fun tid ->
      emit
        (Printf.sprintf
           {|{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"domain %d"}}|}
           tid tid))
    tids;
  List.iter
    (fun (e : Registry.span_ev) ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f%s}"
           (Json.escape e.name) (Json.escape e.cat) e.tid
           (Clock.ns_to_us e.ts_ns) (Clock.ns_to_us e.dur_ns)
           (attrs_field "args" e.attrs)))
    s.spans;
  Buffer.add_string b "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{";
  let first = ref true in
  List.iter
    (fun (k, v) ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n  \"counter.%s\":\"%d\"" (Json.escape k) v))
    s.counters;
  Buffer.add_string b "\n}}\n";
  Buffer.contents b

let chrome_trace ~path s = write_file ~path (chrome_trace_string s)

(* ------------------------------------------------------------------ *)
(* JSONL event log: one self-describing JSON object per line, the
   format `oshil stats` replays. *)

(* Finite floats print as %.17g (round-trips exactly); nan becomes
   null and infinities become out-of-double-range literals that
   [Json.parse] reads back as infinity. Keeps every line valid
   JSON without losing the value. *)
let jnum v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else if Float.is_nan v then "null"
  else if v > 0.0 then "1e999"
  else "-1e999"

let jbool v = if v then "true" else "false"

let event_line (e : Registry.event_ev) =
  let ctx_fields (c : Registry.solve_ctx) =
    Printf.sprintf {|"solver":"%s","rung":"%s"%s|} (Json.escape c.solver)
      (Json.escape c.rung)
      (match c.cell with
      | None -> ""
      | Some (phi, a) ->
        Printf.sprintf {|,"phi":%s,"a":%s|} (jnum phi) (jnum a))
  in
  let head ev = Printf.sprintf {|{"type":"event","ev":"%s","ts_ns":%Ld,"tid":%d|} ev e.ts_ns e.tid in
  match e.payload with
  | Newton_iter { ctx; iter; residual; step; damping } ->
    Printf.sprintf {|%s,%s,"iter":%d,"res":%s,"step":%s,"damp":%s}|}
      (head "newton_iter") (ctx_fields ctx) iter (jnum residual) (jnum step)
      (jnum damping)
  | Newton_done { ctx; iters; converged; residual } ->
    Printf.sprintf {|%s,%s,"iters":%d,"converged":%s,"res":%s}|}
      (head "newton_done") (ctx_fields ctx) iters (jbool converged)
      (jnum residual)
  | Tran_step { t; dt; accepted; lte } ->
    Printf.sprintf {|%s,"t":%s,"dt":%s,"accepted":%s,"lte":%s}|}
      (head "tran_step") (jnum t) (jnum dt) (jbool accepted) (jnum lte)
  | Bracket { site; lo; hi; probe; hit } ->
    Printf.sprintf {|%s,"site":"%s","lo":%s,"hi":%s,"probe":%s,"hit":%s}|}
      (head "bracket") (Json.escape site) (jnum lo) (jnum hi) (jnum probe)
      (jbool hit)
  | Cache_access { kind; outcome } ->
    Printf.sprintf {|%s,"kind":"%s","outcome":"%s"}|} (head "cache")
      (Json.escape kind) (Json.escape outcome)
  | Pool_sample { domains; tasks; busy_ns } ->
    Printf.sprintf {|%s,"domains":%d,"tasks":%d,"busy_ns":%Ld}|} (head "pool")
      domains tasks busy_ns
  | Gc_sample
      { where; minor_words; promoted_words; major_words; minor_gcs; major_gcs;
        heap_words } ->
    Printf.sprintf
      {|%s,"where":"%s","minor_words":%s,"promoted_words":%s,"major_words":%s,"minor_gcs":%d,"major_gcs":%d,"heap_words":%d}|}
      (head "gc") (Json.escape where) (jnum minor_words) (jnum promoted_words)
      (jnum major_words) minor_gcs major_gcs heap_words

let jsonl_string (s : Registry.snapshot) =
  let b = Buffer.create 8192 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  line {|{"type":"meta","version":1,"clock":"monotonic"}|};
  List.iter
    (fun (e : Registry.span_ev) ->
      line
        {|{"type":"span","name":"%s","cat":"%s","ts_ns":%Ld,"dur_ns":%Ld,"tid":%d,"depth":%d%s}|}
        (Json.escape e.name) (Json.escape e.cat) e.ts_ns e.dur_ns e.tid e.depth
        (attrs_field "attrs" e.attrs))
    s.spans;
  List.iter (fun e -> line "%s" (event_line e)) s.events;
  List.iter
    (fun (k, v) ->
      line {|{"type":"counter","name":"%s","value":%d}|} (Json.escape k) v)
    s.counters;
  List.iter
    (fun (k, v) ->
      line {|{"type":"gauge","name":"%s","value":%s}|} (Json.escape k) (jnum v))
    s.gauges;
  List.iter
    (fun (k, bounds, counts) ->
      let floats a =
        String.concat "," (List.map (Printf.sprintf "%.17g") (Array.to_list a))
      in
      let ints a =
        String.concat "," (List.map string_of_int (Array.to_list a))
      in
      line {|{"type":"hist","name":"%s","bounds":[%s],"counts":[%s]}|}
        (Json.escape k) (floats bounds) (ints counts))
    s.hists;
  Buffer.contents b

(* [path = "-"] streams to stderr so `oshil … --trace - 2>t.jsonl | …`
   composes in pipelines without touching the filesystem. *)
let jsonl ~path s =
  if path = "-" then begin
    output_string stderr (jsonl_string s);
    flush stderr
  end
  else write_file ~path (jsonl_string s)

(* ------------------------------------------------------------------ *)
(* Human summary table *)

(* Counters promised by the CLI contract: `oshil stats` always shows
   these rows (zero when the trace never touched that layer) so a
   missing layer is visible as 0 rather than silently absent. *)
let headline_counters = [ "spice.newton.iters"; "shil.grid.f_evals" ]

(* Bucketed quantile: the upper bound of the bucket holding the target
   rank. Conservative (never under-reports) and deterministic; samples
   past the last bound clamp to it. nan when the histogram is empty. *)
let quantile bounds counts q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Float.nan
  else begin
    let target =
      let t = int_of_float (Float.of_int total *. q +. 0.5) in
      if t < 1 then 1 else if t > total then total else t
    in
    let nb = Array.length bounds in
    let res = ref Float.nan in
    let cum = ref 0 in
    Array.iteri
      (fun i c ->
        cum := !cum + c;
        if Float.is_nan !res && !cum >= target then
          res := bounds.(if i < nb then i else nb - 1))
      counts;
    !res
  end

type agg = { mutable count : int; mutable total_ns : int64; mutable max_ns : int64 }

let summary ppf (s : Registry.snapshot) =
  let open Format in
  let by_name : (string, agg) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (e : Registry.span_ev) ->
      let a =
        match Hashtbl.find_opt by_name e.name with
        | Some a -> a
        | None ->
          let a = { count = 0; total_ns = 0L; max_ns = 0L } in
          Hashtbl.add by_name e.name a;
          a
      in
      a.count <- a.count + 1;
      a.total_ns <- Int64.add a.total_ns e.dur_ns;
      if Int64.compare e.dur_ns a.max_ns > 0 then a.max_ns <- e.dur_ns)
    s.spans;
  let spans =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
    |> List.sort (fun (_, a) (_, b) -> Int64.compare b.total_ns a.total_ns)
  in
  fprintf ppf "@[<v>== spans (by total time)@,";
  if spans = [] then fprintf ppf "  (none recorded)@,"
  else begin
    fprintf ppf "  %-36s %8s %12s %12s %12s@," "name" "count" "total ms"
      "mean ms" "max ms";
    List.iter
      (fun (name, a) ->
        fprintf ppf "  %-36s %8d %12.3f %12.4f %12.3f@," name a.count
          (Clock.ns_to_ms a.total_ns)
          (Clock.ns_to_ms a.total_ns /. float_of_int a.count)
          (Clock.ns_to_ms a.max_ns))
      spans
  end;
  fprintf ppf "== counters@,";
  let counters =
    List.fold_left
      (fun acc h -> if List.mem_assoc h acc then acc else acc @ [ (h, 0) ])
      s.counters headline_counters
  in
  List.iter (fun (k, v) -> fprintf ppf "  %-44s %14d@," k v) counters;
  if s.gauges <> [] then begin
    fprintf ppf "== gauges@,";
    List.iter (fun (k, v) -> fprintf ppf "  %-44s %14g@," k v) s.gauges
  end;
  if s.hists <> [] then begin
    fprintf ppf "== histograms@,";
    List.iter
      (fun (k, bounds, counts) ->
        let total = Array.fold_left ( + ) 0 counts in
        fprintf ppf "  %s (%d samples)@," k total;
        if total > 0 then
          fprintf ppf "    p50 <= %-10g p90 <= %-10g p99 <= %-10g@,"
            (quantile bounds counts 0.50) (quantile bounds counts 0.90)
            (quantile bounds counts 0.99);
        Array.iteri
          (fun i c ->
            if c > 0 then
              if i < Array.length bounds then
                fprintf ppf "    <= %-12g %10d@," bounds.(i) c
              else fprintf ppf "    >  %-12g %10d@," bounds.(i - 1) c)
          counts)
      s.hists
  end;
  fprintf ppf "@]"
