(* Per-domain event buffers and the global merge.

   Hot-path writes (span completion, counter bumps, histogram samples)
   go to a buffer owned by the writing domain, guarded by a mutex that
   is uncontended in steady state — the only cross-domain access is the
   flush/snapshot path, which locks each buffer briefly while draining.
   This keeps instrumentation cheap under the worker pool without
   per-event atomics, and merging in [snapshot] restores a single
   coherent view (spans sorted by timestamp, counters summed, gauges
   resolved last-write-wins by timestamp, histogram counts added). *)

let enabled = Atomic.make false

(* Introspection events are a second, independently gated stream: they
   are much higher-volume than spans (per Newton iteration), so a run
   can keep span telemetry on while leaving events off. Same contract:
   one atomic load when off, observation only. *)
let events_enabled = Atomic.make false

type span_ev = {
  name : string;
  cat : string;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
  depth : int;
  attrs : (string * string) list;
}

(* Solver identity attached to convergence events: which engine ran the
   solve, which recovery rung it ran on (e.g. "gmin=1e-4"), and — for
   describing-function solves — which (phi, A) grid cell it refined. *)
type solve_ctx = {
  solver : string;
  rung : string;
  cell : (float * float) option;
}

type event_payload =
  | Newton_iter of {
      ctx : solve_ctx;
      iter : int;
      residual : float;
      step : float;
      damping : float;
    }
  | Newton_done of {
      ctx : solve_ctx;
      iters : int;
      converged : bool;
      residual : float;
    }
  | Tran_step of { t : float; dt : float; accepted : bool; lte : float }
  | Bracket of { site : string; lo : float; hi : float; probe : float; hit : bool }
  | Cache_access of { kind : string; outcome : string }
  | Pool_sample of { domains : int; tasks : int; busy_ns : int64 }
  | Gc_sample of {
      where : string;
      minor_words : float;
      promoted_words : float;
      major_words : float;
      minor_gcs : int;
      major_gcs : int;
      heap_words : int;
    }

type event_ev = { ts_ns : int64; tid : int; payload : event_payload }

type dbuf = {
  dom : int;
  mu : Mutex.t;
  mutable spans : span_ev list;  (* completion order, reversed *)
  mutable n_spans : int;
  mutable events : event_ev list;  (* emission order, reversed *)
  mutable n_events : int;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, (int64 * float) ref) Hashtbl.t;
  hists : (string, int array) Hashtbl.t;
  mutable depth : int;  (* live nesting depth; owning domain only *)
}

(* Backstop against unbounded growth on very long traced runs; overflow
   is made visible as the [obs.spans_dropped] counter. *)
let span_cap = 500_000
let event_cap = 500_000

let all_bufs : dbuf list ref = ref []
let all_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom = (Domain.self () :> int);
          mu = Mutex.create ();
          spans = [];
          n_spans = 0;
          events = [];
          n_events = 0;
          counters = Hashtbl.create 32;
          gauges = Hashtbl.create 8;
          hists = Hashtbl.create 8;
          depth = 0;
        }
      in
      Mutex.lock all_mu;
      all_bufs := b :: !all_bufs;
      Mutex.unlock all_mu;
      b)

let my_buf () = Domain.DLS.get key

(* Depth bookkeeping is owner-domain-only, so no lock is needed. *)
let live_depth b = b.depth
let set_live_depth b d = b.depth <- d
let buf_dom b = b.dom

let counter_add_locked b name by =
  match Hashtbl.find_opt b.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add b.counters name (ref by)

let add_span b ev =
  Mutex.lock b.mu;
  if b.n_spans < span_cap then begin
    b.spans <- ev :: b.spans;
    b.n_spans <- b.n_spans + 1
  end
  else counter_add_locked b "obs.spans_dropped" 1;
  Mutex.unlock b.mu

let add_event b ev =
  Mutex.lock b.mu;
  if b.n_events < event_cap then begin
    b.events <- ev :: b.events;
    b.n_events <- b.n_events + 1
  end
  else counter_add_locked b "obs.events_dropped" 1;
  Mutex.unlock b.mu

let counter_add b name by =
  Mutex.lock b.mu;
  counter_add_locked b name by;
  Mutex.unlock b.mu

let gauge_set b name v =
  let ts = Clock.since_start_ns () in
  Mutex.lock b.mu;
  (match Hashtbl.find_opt b.gauges name with
  | Some r -> r := (ts, v)
  | None -> Hashtbl.add b.gauges name (ref (ts, v)));
  Mutex.unlock b.mu

(* ------------------------------------------------------------------ *)
(* Histogram bucket definitions: name -> strictly ascending upper
   bounds, shared by every domain so counts merge bucket-for-bucket. *)

let hist_defs : (string * float array) list Atomic.t = Atomic.make []

let hist_bounds name = List.assoc_opt name (Atomic.get hist_defs)

let register_histogram ~name ~buckets =
  if Array.length buckets = 0 then
    invalid_arg "Obs.Metrics.register_histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if (not (Float.is_finite b)) || (i > 0 && b <= buckets.(i - 1)) then
        invalid_arg
          "Obs.Metrics.register_histogram: bounds must be finite and strictly \
           ascending")
    buckets;
  let rec add () =
    let cur = Atomic.get hist_defs in
    if List.mem_assoc name cur then ()
    else if
      not (Atomic.compare_and_set hist_defs cur ((name, Array.copy buckets) :: cur))
    then add ()
  in
  add ()

(* First bucket whose upper bound admits [v] ([v <= bounds.(i)]); the
   slot past the last bound collects overflow. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > bounds.(!i) do
    incr i
  done;
  !i

(* The calling domain's counts for [name]; caller holds [b.mu]. *)
let hist_counts b name bounds =
  match Hashtbl.find_opt b.hists name with
  | Some c -> c
  | None ->
    let c = Array.make (Array.length bounds + 1) 0 in
    Hashtbl.add b.hists name c;
    c

let observe b name v =
  match hist_bounds name with
  | None -> () (* unregistered histogram: sample dropped by contract *)
  | Some bounds ->
    Mutex.lock b.mu;
    let counts = hist_counts b name bounds in
    let i = bucket_index bounds v in
    counts.(i) <- counts.(i) + 1;
    Mutex.unlock b.mu

let observe_counts b name add =
  match hist_bounds name with
  | None -> ()
  | Some bounds ->
    if Array.length add <> Array.length bounds + 1 then
      invalid_arg "Obs.Metrics.observe_counts: one count per bucket expected";
    (* no samples leaves the histogram absent, as no [observe] would *)
    if Array.exists (fun k -> k <> 0) add then begin
      Mutex.lock b.mu;
      let counts = hist_counts b name bounds in
      Array.iteri (fun i k -> counts.(i) <- counts.(i) + k) add;
      Mutex.unlock b.mu
    end

(* ------------------------------------------------------------------ *)
(* Merged view *)

type snapshot = {
  spans : span_ev list;
  events : event_ev list;
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * float array * int array) list;
}

let bufs () =
  Mutex.lock all_mu;
  let bs = !all_bufs in
  Mutex.unlock all_mu;
  bs

let snapshot () =
  let spans = ref [] in
  let events = ref [] in
  let ctr : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let gg : (string, int64 * float) Hashtbl.t = Hashtbl.create 16 in
  let hh : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Mutex.lock b.mu;
      spans := List.rev_append b.spans !spans;
      events := List.rev_append b.events !events;
      Hashtbl.iter
        (fun k r ->
          let prev = Option.value (Hashtbl.find_opt ctr k) ~default:0 in
          Hashtbl.replace ctr k (prev + !r))
        b.counters;
      Hashtbl.iter
        (fun k r ->
          let ts, _ = !r in
          match Hashtbl.find_opt gg k with
          | Some (ts', _) when Int64.compare ts' ts >= 0 -> ()
          | _ -> Hashtbl.replace gg k !r)
        b.gauges;
      Hashtbl.iter
        (fun k c ->
          match Hashtbl.find_opt hh k with
          | Some acc -> Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) c
          | None -> Hashtbl.replace hh k (Array.copy c))
        b.hists;
      Mutex.unlock b.mu)
    (bufs ());
  let spans =
    List.sort
      (fun (a : span_ev) (b : span_ev) ->
        match Int64.compare a.ts_ns b.ts_ns with
        | 0 -> Int.compare a.tid b.tid
        | c -> c)
      !spans
  in
  let events =
    List.sort
      (fun (a : event_ev) (b : event_ev) ->
        match Int64.compare a.ts_ns b.ts_ns with
        | 0 -> Int.compare a.tid b.tid
        | c -> c)
      !events
  in
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    spans;
    events;
    counters = sorted ctr;
    gauges = List.map (fun (k, (_, v)) -> (k, v)) (sorted gg);
    hists =
      List.filter_map
        (fun (k, counts) ->
          match hist_bounds k with
          | Some bounds -> Some (k, bounds, counts)
          | None -> None)
        (sorted hh);
  }

let counter_value name =
  List.fold_left
    (fun acc b ->
      Mutex.lock b.mu;
      let v =
        match Hashtbl.find_opt b.counters name with Some r -> !r | None -> 0
      in
      Mutex.unlock b.mu;
      acc + v)
    0 (bufs ())

let reset () =
  List.iter
    (fun b ->
      Mutex.lock b.mu;
      b.spans <- [];
      b.n_spans <- 0;
      b.events <- [];
      b.n_events <- 0;
      Hashtbl.reset b.counters;
      Hashtbl.reset b.gauges;
      Hashtbl.reset b.hists;
      Mutex.unlock b.mu)
    (bufs ())
