(* Run-health reports: deterministic aggregation of a telemetry
   snapshot (live or replayed from a JSONL trace) into solver-health
   facts — convergence rates per solve, worst-converging grid cells,
   self/total span time, histogram quantiles, cache locality, step
   control, allocation totals. Everything is derived by sorting on
   stable keys, so the same snapshot always yields the same bytes. *)

type span_stat = {
  sname : string;
  count : int;
  total_ns : int64;
  self_ns : int64;
  max_ns : int64;
}

type solve_rec = {
  solver : string;
  rung : string;
  cell : (float * float) option;
  iters : int;
  converged : bool;
  residual : float;
  rate : float;  (* decades of residual reduction per iteration *)
}

type solver_stat = {
  ssolver : string;
  solves : int;
  converged_n : int;
  iters_total : int;
  iters_max : int;
  mean_iters : float;
  mean_rate : float;
}

type step_stat = {
  accepted : int;
  rejected : int;
  dt_min : float;
  dt_max : float;
  lte_max : float;
}

type bracket_stat = {
  site : string;
  probes : int;
  hits : int;
  width0 : float;
  width : float;
}

type cache_stat = {
  kind : string;
  memory_hits : int;
  disk_hits : int;
  misses : int;
}

type gc_stat = {
  samples : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
  heap_peak_words : int;
}

type quantile_stat = { hist : string; samples : int; p50 : float; p90 : float; p99 : float }

type t = {
  spans : span_stat list;
  solvers : solver_stat list;
  worst : solve_rec list;
  steps : step_stat option;
  brackets : bracket_stat list;
  cache : cache_stat list;
  gc : gc_stat option;
  quantiles : quantile_stat list;
  counters : (string * int) list;
  resilience : (string * int) list;
}

(* ---------------------------------------------------------------- *)
(* Span self time: subtract each span's direct children using the
   interval nesting per domain (spans arrive sorted by start time). *)

let span_stats (spans : Registry.span_ev list) =
  let tids =
    List.sort_uniq Int.compare
      (List.map (fun (e : Registry.span_ev) -> e.tid) spans)
  in
  let selfed = ref [] in
  List.iter
    (fun tid ->
      let stack = ref [] in
      (* (end_ts, children duration accumulator) *)
      List.iter
        (fun (e : Registry.span_ev) ->
          if e.tid = tid then begin
            let e_end = Int64.add e.ts_ns e.dur_ns in
            let rec pop () =
              match !stack with
              | (fin, _) :: rest when Int64.compare fin e.ts_ns <= 0 ->
                stack := rest;
                pop ()
              | _ -> ()
            in
            pop ();
            (match !stack with
            | (_, kids) :: _ -> kids := Int64.add !kids e.dur_ns
            | [] -> ());
            let kids = ref 0L in
            stack := (e_end, kids) :: !stack;
            selfed := (e, kids) :: !selfed
          end)
        spans)
    tids;
  let by_name : (string, span_stat ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ((e : Registry.span_ev), kids) ->
      let self = Int64.sub e.dur_ns !kids in
      let self = if Int64.compare self 0L < 0 then 0L else self in
      match Hashtbl.find_opt by_name e.name with
      | Some r ->
        r :=
          {
            !r with
            count = !r.count + 1;
            total_ns = Int64.add !r.total_ns e.dur_ns;
            self_ns = Int64.add !r.self_ns self;
            max_ns =
              (if Int64.compare e.dur_ns !r.max_ns > 0 then e.dur_ns
               else !r.max_ns);
          }
      | None ->
        Hashtbl.add by_name e.name
          (ref
             {
               sname = e.name;
               count = 1;
               total_ns = e.dur_ns;
               self_ns = self;
               max_ns = e.dur_ns;
             }))
    !selfed;
  Hashtbl.fold (fun _ r acc -> !r :: acc) by_name []
  |> List.sort (fun a b ->
         match Int64.compare b.total_ns a.total_ns with
         | 0 -> String.compare a.sname b.sname
         | c -> c)

(* ---------------------------------------------------------------- *)
(* Per-solve convergence: pair each Newton_done with the Newton_iter
   residual sequence that preceded it on the same domain with the same
   solve identity. Solves never nest within a domain, so a (tid, ctx)
   key is unambiguous. *)

let rate_of_residuals rs =
  let ok r = Float.is_finite r && r > 0.0 in
  match rs with
  | r0 :: _ :: _ ->
    let rl = List.nth rs (List.length rs - 1) in
    if ok r0 && ok rl then
      (Float.log10 r0 -. Float.log10 rl) /. float_of_int (List.length rs - 1)
    else Float.nan
  | _ -> Float.nan

let solves_of_events (events : Registry.event_ev list) =
  let pending : (int * Registry.solve_ctx, float list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let recs = ref [] in
  List.iter
    (fun (e : Registry.event_ev) ->
      match e.payload with
      | Newton_iter { ctx; residual; _ } -> (
        let key = (e.tid, ctx) in
        match Hashtbl.find_opt pending key with
        | Some l -> l := residual :: !l
        | None -> Hashtbl.add pending key (ref [ residual ]))
      | Newton_done { ctx; iters; converged; residual } ->
        let key = (e.tid, ctx) in
        let rs =
          match Hashtbl.find_opt pending key with
          | Some l ->
            Hashtbl.remove pending key;
            List.rev !l
          | None -> []
        in
        recs :=
          {
            solver = ctx.solver;
            rung = ctx.rung;
            cell = ctx.cell;
            iters;
            converged;
            residual;
            rate = rate_of_residuals rs;
          }
          :: !recs
      | _ -> ())
    events;
  List.rev !recs

let solver_stats recs =
  let tbl : (string, solver_stat ref) Hashtbl.t = Hashtbl.create 8 in
  let rates : (string, (float * int) ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      (match Hashtbl.find_opt tbl r.solver with
      | Some s ->
        s :=
          {
            !s with
            solves = !s.solves + 1;
            converged_n = (!s.converged_n + if r.converged then 1 else 0);
            iters_total = !s.iters_total + r.iters;
            iters_max = max !s.iters_max r.iters;
          }
      | None ->
        Hashtbl.add tbl r.solver
          (ref
             {
               ssolver = r.solver;
               solves = 1;
               converged_n = (if r.converged then 1 else 0);
               iters_total = r.iters;
               iters_max = r.iters;
               mean_iters = 0.0;
               mean_rate = Float.nan;
             }));
      if Float.is_finite r.rate then
        match Hashtbl.find_opt rates r.solver with
        | Some acc ->
          let s, n = !acc in
          acc := (s +. r.rate, n + 1)
        | None -> Hashtbl.add rates r.solver (ref (r.rate, 1)))
    recs;
  Hashtbl.fold
    (fun k r acc ->
      let mean_rate =
        match Hashtbl.find_opt rates k with
        | Some { contents = s, n } -> s /. float_of_int n
        | None -> Float.nan
      in
      {
        !r with
        mean_iters = float_of_int !r.iters_total /. float_of_int !r.solves;
        mean_rate;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.ssolver b.ssolver)

let cell_order a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some (x1, y1), Some (x2, y2) -> (
    match Float.compare x1 x2 with 0 -> Float.compare y1 y2 | c -> c)

let worst_cells ?(limit = 10) recs =
  let cells = List.filter (fun r -> r.cell <> None) recs in
  let ranked =
    List.sort
      (fun a b ->
        (* unconverged first, then by effort, then stable keys *)
        match Bool.compare a.converged b.converged with
        | 0 -> (
          match Int.compare b.iters a.iters with
          | 0 -> (
            match Float.compare b.residual a.residual with
            | 0 -> cell_order a.cell b.cell
            | c -> c)
          | c -> c)
        | c -> c)
      cells
  in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  take limit ranked

(* ---------------------------------------------------------------- *)

let step_stats events =
  let acc = ref None in
  List.iter
    (fun (e : Registry.event_ev) ->
      match e.payload with
      | Tran_step { dt; accepted; lte; _ } ->
        let s =
          match !acc with
          | Some s -> s
          | None ->
            {
              accepted = 0;
              rejected = 0;
              dt_min = Float.infinity;
              dt_max = 0.0;
              lte_max = 0.0;
            }
        in
        acc :=
          Some
            {
              accepted = (s.accepted + if accepted then 1 else 0);
              rejected = (s.rejected + if accepted then 0 else 1);
              dt_min = Float.min s.dt_min dt;
              dt_max = Float.max s.dt_max dt;
              lte_max =
                (if Float.is_finite lte then Float.max s.lte_max lte
                 else s.lte_max);
            }
      | _ -> ())
    events;
  !acc

let bracket_stats events =
  let tbl : (string, bracket_stat ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Registry.event_ev) ->
      match e.payload with
      | Bracket { site; lo; hi; hit; _ } -> (
        let w = hi -. lo in
        match Hashtbl.find_opt tbl site with
        | Some r ->
          r :=
            {
              !r with
              probes = !r.probes + 1;
              hits = (!r.hits + if hit then 1 else 0);
              width = w;
            }
        | None ->
          Hashtbl.add tbl site
            (ref
               {
                 site;
                 probes = 1;
                 hits = (if hit then 1 else 0);
                 width0 = w;
                 width = w;
               }))
      | _ -> ())
    events;
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.site b.site)

let cache_stats events =
  let tbl : (string, cache_stat ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Registry.event_ev) ->
      match e.payload with
      | Cache_access { kind; outcome } -> (
        let bump (r : cache_stat) =
          match outcome with
          | "memory" -> { r with memory_hits = r.memory_hits + 1 }
          | "disk" -> { r with disk_hits = r.disk_hits + 1 }
          | _ -> { r with misses = r.misses + 1 }
        in
        match Hashtbl.find_opt tbl kind with
        | Some r -> r := bump !r
        | None ->
          Hashtbl.add tbl kind
            (ref (bump { kind; memory_hits = 0; disk_hits = 0; misses = 0 })))
      | _ -> ())
    events;
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.kind b.kind)

(* Gc counters are cumulative per domain: the allocation attributed to
   the trace is the last-minus-first delta on each domain, summed. *)
let gc_stats events =
  let tbl : (int, (Registry.event_payload * Registry.event_payload) ref) Hashtbl.t
      =
    Hashtbl.create 8
  in
  let samples = ref 0 in
  let heap_peak = ref 0 in
  List.iter
    (fun (e : Registry.event_ev) ->
      match e.payload with
      | Gc_sample { heap_words; _ } -> (
        incr samples;
        if heap_words > !heap_peak then heap_peak := heap_words;
        match Hashtbl.find_opt tbl e.tid with
        | Some r -> r := (fst !r, e.payload)
        | None -> Hashtbl.add tbl e.tid (ref (e.payload, e.payload)))
      | _ -> ())
    events;
  if !samples = 0 then None
  else begin
    let minor = ref 0.0
    and promoted = ref 0.0
    and major = ref 0.0
    and mgc = ref 0
    and jgc = ref 0 in
    (* sorted snapshot of the per-domain table: float accumulation
       order must not depend on Hashtbl iteration order *)
    Hashtbl.fold (fun tid r acc -> (tid, !r) :: acc) tbl []
    |> List.sort (fun (t1, _) (t2, _) -> Int.compare t1 t2)
    |> List.iter (fun (_, pair) ->
           match pair with
           | Registry.Gc_sample a, Registry.Gc_sample b ->
             minor := !minor +. (b.minor_words -. a.minor_words);
             promoted := !promoted +. (b.promoted_words -. a.promoted_words);
             major := !major +. (b.major_words -. a.major_words);
             mgc := !mgc + (b.minor_gcs - a.minor_gcs);
             jgc := !jgc + (b.major_gcs - a.major_gcs)
           | _ -> ());
    Some
      {
        samples = !samples;
        minor_words = !minor;
        promoted_words = !promoted;
        major_words = !major;
        minor_gcs = !mgc;
        major_gcs = !jgc;
        heap_peak_words = !heap_peak;
      }
  end

(* ---------------------------------------------------------------- *)

let of_snapshot (s : Registry.snapshot) =
  let recs = solves_of_events s.events in
  {
    spans = span_stats s.spans;
    solvers = solver_stats recs;
    worst = worst_cells recs;
    steps = step_stats s.events;
    brackets = bracket_stats s.events;
    cache = cache_stats s.events;
    gc = gc_stats s.events;
    quantiles =
      List.map
        (fun (k, bounds, counts) ->
          {
            hist = k;
            samples = Array.fold_left ( + ) 0 counts;
            p50 = Sink.quantile bounds counts 0.50;
            p90 = Sink.quantile bounds counts 0.90;
            p99 = Sink.quantile bounds counts 0.99;
          })
        s.hists;
    counters = s.counters;
    resilience =
      List.filter
        (fun (k, _) -> String.length k > 11 && String.sub k 0 11 = "resilience.")
        s.counters;
  }

(* ---------------------------------------------------------------- *)
(* JSON rendering (deterministic: fixed field order, fixed float
   format, nan as null). *)

let jf v =
  if Float.is_finite v then Printf.sprintf "%.9g" v
  else if Float.is_nan v then "null"
  else if v > 0.0 then "1e999"
  else "-1e999"

let jb v = if v then "true" else "false"
let ms ns = Int64.to_float ns /. 1e6

let to_json (r : t) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let arr name items render =
    add "  \"%s\": [" name;
    List.iteri
      (fun i x ->
        add "%s\n    %s" (if i = 0 then "" else ",") (render x))
      items;
    add "%s]" (if items = [] then "" else "\n  ")
  in
  add "{\n";
  add "  \"version\": 1,\n";
  arr "spans" r.spans (fun s ->
      Printf.sprintf
        {|{"name":"%s","count":%d,"total_ms":%s,"self_ms":%s,"max_ms":%s}|}
        (Json.escape s.sname) s.count (jf (ms s.total_ns)) (jf (ms s.self_ns))
        (jf (ms s.max_ns)));
  add ",\n";
  arr "solvers" r.solvers (fun s ->
      Printf.sprintf
        {|{"solver":"%s","solves":%d,"converged":%d,"iters_total":%d,"iters_max":%d,"mean_iters":%s,"mean_rate_decades_per_iter":%s}|}
        (Json.escape s.ssolver) s.solves s.converged_n s.iters_total
        s.iters_max (jf s.mean_iters) (jf s.mean_rate));
  add ",\n";
  arr "worst_cells" r.worst (fun w ->
      let phi, a = Option.value ~default:(Float.nan, Float.nan) w.cell in
      Printf.sprintf
        {|{"solver":"%s","rung":"%s","phi":%s,"a":%s,"iters":%d,"converged":%s,"residual":%s,"rate":%s}|}
        (Json.escape w.solver) (Json.escape w.rung) (jf phi) (jf a) w.iters
        (jb w.converged) (jf w.residual) (jf w.rate));
  add ",\n";
  (match r.steps with
  | None -> add "  \"transient\": null"
  | Some s ->
    add
      {|  "transient": {"accepted":%d,"rejected":%d,"dt_min":%s,"dt_max":%s,"lte_max":%s}|}
      s.accepted s.rejected (jf s.dt_min) (jf s.dt_max) (jf s.lte_max));
  add ",\n";
  arr "brackets" r.brackets (fun bk ->
      Printf.sprintf
        {|{"site":"%s","probes":%d,"hits":%d,"width0":%s,"width":%s}|}
        (Json.escape bk.site) bk.probes bk.hits (jf bk.width0) (jf bk.width));
  add ",\n";
  arr "cache" r.cache (fun c ->
      Printf.sprintf
        {|{"kind":"%s","memory_hits":%d,"disk_hits":%d,"misses":%d}|}
        (Json.escape c.kind) c.memory_hits c.disk_hits c.misses);
  add ",\n";
  (match r.gc with
  | None -> add "  \"gc\": null"
  | Some g ->
    add
      {|  "gc": {"samples":%d,"minor_words":%s,"promoted_words":%s,"major_words":%s,"minor_gcs":%d,"major_gcs":%d,"heap_peak_words":%d}|}
      g.samples (jf g.minor_words) (jf g.promoted_words) (jf g.major_words)
      g.minor_gcs g.major_gcs g.heap_peak_words);
  add ",\n";
  arr "quantiles" r.quantiles (fun q ->
      Printf.sprintf
        {|{"hist":"%s","samples":%d,"p50":%s,"p90":%s,"p99":%s}|}
        (Json.escape q.hist) q.samples (jf q.p50) (jf q.p90) (jf q.p99));
  add ",\n";
  arr "resilience" r.resilience (fun (k, v) ->
      Printf.sprintf {|{"name":"%s","value":%d}|} (Json.escape k) v);
  add ",\n";
  arr "counters" r.counters (fun (k, v) ->
      Printf.sprintf {|{"name":"%s","value":%d}|} (Json.escape k) v);
  add "\n}\n";
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Human table *)

let pp ppf (r : t) =
  let open Format in
  fprintf ppf "@[<v>== run health@,";
  if r.spans <> [] then begin
    fprintf ppf "-- spans (self/total)@,";
    fprintf ppf "  %-36s %8s %12s %12s %12s@," "name" "count" "total ms"
      "self ms" "max ms";
    List.iter
      (fun s ->
        fprintf ppf "  %-36s %8d %12.3f %12.3f %12.3f@," s.sname s.count
          (ms s.total_ns) (ms s.self_ns) (ms s.max_ns))
      r.spans
  end;
  if r.solvers <> [] then begin
    fprintf ppf "-- solvers (from introspection events)@,";
    fprintf ppf "  %-24s %7s %9s %10s %9s %10s@," "solver" "solves" "converged"
      "mean iters" "max iters" "rate dec/it";
    List.iter
      (fun s ->
        fprintf ppf "  %-24s %7d %9d %10.2f %9d %10.3f@," s.ssolver s.solves
          s.converged_n s.mean_iters s.iters_max s.mean_rate)
      r.solvers
  end;
  if r.worst <> [] then begin
    fprintf ppf "-- worst-converging grid cells@,";
    fprintf ppf "  %-14s %-12s %-12s %6s %5s %12s %9s@," "solver" "phi" "A"
      "iters" "conv" "residual" "rate";
    List.iter
      (fun w ->
        let phi, a = Option.value ~default:(Float.nan, Float.nan) w.cell in
        fprintf ppf "  %-14s %-12.6g %-12.6g %6d %5s %12.3e %9.3f@," w.solver
          phi a w.iters
          (if w.converged then "yes" else "NO")
          w.residual w.rate)
      r.worst
  end;
  (match r.steps with
  | None -> ()
  | Some s ->
    fprintf ppf "-- transient step control@,";
    fprintf ppf
      "  accepted %d  rejected %d  dt in [%.3e, %.3e]  max LTE %.3e@,"
      s.accepted s.rejected s.dt_min s.dt_max s.lte_max);
  if r.brackets <> [] then begin
    fprintf ppf "-- bisection brackets@,";
    List.iter
      (fun bk ->
        fprintf ppf "  %-28s probes %5d  hits %5d  width %.3e -> %.3e@,"
          bk.site bk.probes bk.hits bk.width0 bk.width)
      r.brackets
  end;
  (* lock-point solving (Shil.Solutions): candidates a lock-range probe
     left unrefined after its first stable lock count as skipped *)
  (match List.assoc_opt "shil.solutions.candidates" r.counters with
  | None -> ()
  | Some refined ->
    let c k = Option.value ~default:0 (List.assoc_opt k r.counters) in
    fprintf ppf "-- lock-point candidates@,";
    fprintf ppf "  refined %d  skipped %d  refine fails %d  classified %d@,"
      refined (c "shil.solutions.skipped") (c "shil.solutions.refine_fails")
      (c "shil.solutions.classified"));
  if r.cache <> [] then begin
    fprintf ppf "-- cache locality@,";
    List.iter
      (fun c ->
        let total = c.memory_hits + c.disk_hits + c.misses in
        let hit_rate =
          if total = 0 then 0.0
          else
            float_of_int (c.memory_hits + c.disk_hits) /. float_of_int total
        in
        fprintf ppf
          "  %-28s memory %6d  disk %6d  miss %6d  hit-rate %5.1f%%@," c.kind
          c.memory_hits c.disk_hits c.misses (100.0 *. hit_rate))
      r.cache
  end;
  (match r.gc with
  | None -> ()
  | Some g ->
    fprintf ppf "-- allocation (Gc deltas over %d samples)@," g.samples;
    fprintf ppf
      "  minor %.3e w  promoted %.3e w  major %.3e w  gcs %d/%d  heap peak %d w@,"
      g.minor_words g.promoted_words g.major_words g.minor_gcs g.major_gcs
      g.heap_peak_words);
  if r.quantiles <> [] then begin
    fprintf ppf "-- histogram quantiles@,";
    List.iter
      (fun q ->
        fprintf ppf "  %-36s n %8d  p50 <= %-10g p90 <= %-10g p99 <= %-10g@,"
          q.hist q.samples q.p50 q.p90 q.p99)
      r.quantiles
  end;
  if r.resilience <> [] then begin
    fprintf ppf "-- resilience@,";
    List.iter
      (fun (k, v) -> fprintf ppf "  %-44s %14d@," k v)
      r.resilience
  end;
  fprintf ppf "@]"

(* ---------------------------------------------------------------- *)
(* Trace-vs-trace diff *)

let pct a b =
  if a = 0.0 then if b = 0.0 then 0.0 else Float.infinity
  else 100.0 *. (b -. a) /. Float.abs a

let pp_compare ppf ~label_a ~label_b (a : t) (b : t) =
  let open Format in
  fprintf ppf "@[<v>== trace compare: A=%s  B=%s@," label_a label_b;
  let union keys_a keys_b =
    List.sort_uniq String.compare (keys_a @ keys_b)
  in
  let counters =
    union (List.map fst a.counters) (List.map fst b.counters)
  in
  if counters <> [] then begin
    fprintf ppf "-- counters@,";
    fprintf ppf "  %-44s %14s %14s %9s@," "name" "A" "B" "delta";
    List.iter
      (fun k ->
        let va = Option.value ~default:0 (List.assoc_opt k a.counters) in
        let vb = Option.value ~default:0 (List.assoc_opt k b.counters) in
        if va <> 0 || vb <> 0 then
          fprintf ppf "  %-44s %14d %14d %+8.1f%%@," k va vb
            (pct (float_of_int va) (float_of_int vb)))
      counters
  end;
  let span_names =
    union
      (List.map (fun s -> s.sname) a.spans)
      (List.map (fun s -> s.sname) b.spans)
  in
  if span_names <> [] then begin
    fprintf ppf "-- span totals (ms)@,";
    fprintf ppf "  %-36s %12s %12s %9s@," "name" "A" "B" "delta";
    List.iter
      (fun n ->
        let find l = List.find_opt (fun s -> s.sname = n) l in
        let ta =
          match find a.spans with Some s -> ms s.total_ns | None -> 0.0
        in
        let tb =
          match find b.spans with Some s -> ms s.total_ns | None -> 0.0
        in
        fprintf ppf "  %-36s %12.3f %12.3f %+8.1f%%@," n ta tb (pct ta tb))
      span_names
  end;
  let hist_names =
    union
      (List.map (fun q -> q.hist) a.quantiles)
      (List.map (fun q -> q.hist) b.quantiles)
  in
  if hist_names <> [] then begin
    fprintf ppf "-- quantiles (p50 / p90 / p99)@,";
    List.iter
      (fun n ->
        let find l = List.find_opt (fun q -> q.hist = n) l in
        let show = function
          | Some q -> Printf.sprintf "%g/%g/%g" q.p50 q.p90 q.p99
          | None -> "-"
        in
        fprintf ppf "  %-36s A %-28s B %-28s@," n
          (show (find a.quantiles))
          (show (find b.quantiles)))
      hist_names
  end;
  let solver_names =
    union
      (List.map (fun s -> s.ssolver) a.solvers)
      (List.map (fun s -> s.ssolver) b.solvers)
  in
  if solver_names <> [] then begin
    fprintf ppf "-- solver health (mean iters | rate dec/it)@,";
    List.iter
      (fun n ->
        let find l = List.find_opt (fun s -> s.ssolver = n) l in
        let show = function
          | Some s -> Printf.sprintf "%.2f | %.3f" s.mean_iters s.mean_rate
          | None -> "-"
        in
        fprintf ppf "  %-24s A %-20s B %-20s@," n
          (show (find a.solvers))
          (show (find b.solvers)))
      solver_names
  end;
  fprintf ppf "@]"
