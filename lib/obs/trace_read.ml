(* Replay a JSONL trace (Sink.jsonl output) back into a
   Registry.snapshot so `oshil stats` can summarise runs after the
   fact. Each line is parsed by [Json.parse]; this module only maps
   the decoded objects onto registry records. *)

exception Parse_error of string

let str_field name o = Option.bind (Json.member name o) Json.get_string
let num_field name o = Option.bind (Json.member name o) Json.get_float

(* The sink writes non-finite floats as null (nan) or out-of-range
   literals (infinities, which the parser folds back). *)
let fnum_field name o =
  match Json.member name o with
  | Some Json.Null -> Some Float.nan
  | v -> Option.bind v Json.get_float

let bool_field name o = Option.bind (Json.member name o) Json.get_bool

let require what = function
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing or ill-typed %s" what))

type acc = {
  mutable spans : Registry.span_ev list;
  mutable events : Registry.event_ev list;
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  hists : (string, float array * int array) Hashtbl.t;
}

let decode_event fields : Registry.event_payload =
  let req_f what = require what (fnum_field what fields) in
  let req_i what = int_of_float (require what (num_field what fields)) in
  let req_s what = require what (str_field what fields) in
  let req_b what = require what (bool_field what fields) in
  let ctx () : Registry.solve_ctx =
    {
      solver = req_s "solver";
      rung = Option.value ~default:"" (str_field "rung" fields);
      cell =
        (match (fnum_field "phi" fields, fnum_field "a" fields) with
        | Some phi, Some a -> Some (phi, a)
        | _ -> None);
    }
  in
  match require "event kind" (str_field "ev" fields) with
  | "newton_iter" ->
    Newton_iter
      {
        ctx = ctx ();
        iter = req_i "iter";
        residual = req_f "res";
        step = req_f "step";
        damping = req_f "damp";
      }
  | "newton_done" ->
    Newton_done
      {
        ctx = ctx ();
        iters = req_i "iters";
        converged = req_b "converged";
        residual = req_f "res";
      }
  | "tran_step" ->
    Tran_step
      {
        t = req_f "t";
        dt = req_f "dt";
        accepted = req_b "accepted";
        lte = req_f "lte";
      }
  | "bracket" ->
    Bracket
      {
        site = req_s "site";
        lo = req_f "lo";
        hi = req_f "hi";
        probe = req_f "probe";
        hit = req_b "hit";
      }
  | "cache" -> Cache_access { kind = req_s "kind"; outcome = req_s "outcome" }
  | "pool" ->
    Pool_sample
      {
        domains = req_i "domains";
        tasks = req_i "tasks";
        busy_ns = Int64.of_float (require "busy_ns" (num_field "busy_ns" fields));
      }
  | "gc" ->
    Gc_sample
      {
        where = req_s "where";
        minor_words = req_f "minor_words";
        promoted_words = req_f "promoted_words";
        major_words = req_f "major_words";
        minor_gcs = req_i "minor_gcs";
        major_gcs = req_i "major_gcs";
        heap_words = req_i "heap_words";
      }
  | ev -> raise (Parse_error (Printf.sprintf "unknown event kind %S" ev))

let decode_line acc line =
  match Json.parse line with
  | Error msg -> raise (Parse_error msg)
  | Ok (Json.Obj _ as fields) -> (
    match str_field "type" fields with
    | Some "meta" -> ()
    | Some "span" ->
      let attrs =
        match Json.member "attrs" fields with
        | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.get_string v))
            kvs
        | _ -> []
      in
      let ev : Registry.span_ev =
        {
          name = require "span name" (str_field "name" fields);
          cat = Option.value ~default:"oshil" (str_field "cat" fields);
          ts_ns = Int64.of_float (require "ts_ns" (num_field "ts_ns" fields));
          dur_ns = Int64.of_float (require "dur_ns" (num_field "dur_ns" fields));
          tid =
            int_of_float (Option.value ~default:0. (num_field "tid" fields));
          depth =
            int_of_float (Option.value ~default:0. (num_field "depth" fields));
          attrs;
        }
      in
      acc.spans <- ev :: acc.spans
    | Some "event" ->
      let ev : Registry.event_ev =
        {
          ts_ns = Int64.of_float (require "ts_ns" (num_field "ts_ns" fields));
          tid =
            int_of_float (Option.value ~default:0. (num_field "tid" fields));
          payload = decode_event fields;
        }
      in
      acc.events <- ev :: acc.events
    | Some "counter" ->
      let name = require "counter name" (str_field "name" fields) in
      let v = int_of_float (require "counter value" (num_field "value" fields)) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc.counters name) in
      Hashtbl.replace acc.counters name (prev + v)
    | Some "gauge" ->
      let name = require "gauge name" (str_field "name" fields) in
      let v = require "gauge value" (fnum_field "value" fields) in
      (* Cross-file gauge lines carry no clock, so "last write" would
         depend on the order the files were passed in; taking the max
         keeps the merge independent of input order. *)
      let v =
        match Hashtbl.find_opt acc.gauges name with
        | Some prev -> Float.max prev v
        | None -> v
      in
      Hashtbl.replace acc.gauges name v
    | Some "hist" ->
      let name = require "hist name" (str_field "name" fields) in
      let floats name =
        match Option.bind (Json.member name fields) Json.get_list with
        | Some l ->
          Array.of_list
            (List.map
               (function
                 | Json.Num f -> f
                 | _ -> raise (Parse_error "non-numeric array"))
               l)
        | None -> raise (Parse_error "missing array field")
      in
      let bounds = floats "bounds" in
      let counts = Array.map int_of_float (floats "counts") in
      (match Hashtbl.find_opt acc.hists name with
      | None -> Hashtbl.add acc.hists name (bounds, counts)
      | Some (b0, c0) when Array.length c0 = Array.length counts && b0 = bounds
        ->
        Hashtbl.replace acc.hists name
          (b0, Array.mapi (fun i c -> c + counts.(i)) c0)
      | Some _ ->
        raise
          (Parse_error
             (Printf.sprintf "histogram %S re-declared with different buckets"
                name)))
    | Some t -> raise (Parse_error (Printf.sprintf "unknown event type %S" t))
    | None -> raise (Parse_error "event without \"type\" field"))
  | Ok _ -> raise (Parse_error "event line is not a JSON object")

(* Total orders so a merged snapshot does not depend on the order the
   input files were passed in: ties on (ts, tid) are broken by every
   remaining field. Structural compare is safe here — payloads are
   first-order data and OCaml's [compare] totally orders floats
   (including nan). *)
let span_order (a : Registry.span_ev) (b : Registry.span_ev) =
  match Int64.compare a.ts_ns b.ts_ns with
  | 0 -> (
    match Int.compare a.tid b.tid with
    | 0 -> (
      match Int.compare a.depth b.depth with
      | 0 -> (
        match String.compare a.name b.name with
        | 0 -> (
          match Int64.compare a.dur_ns b.dur_ns with
          | 0 -> (
            let attr (k1, v1) (k2, v2) =
              match String.compare k1 k2 with
              | 0 -> String.compare v1 v2
              | c -> c
            in
            match String.compare a.cat b.cat with
            | 0 -> List.compare attr a.attrs b.attrs
            | c -> c)
          | c -> c)
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

let event_order (a : Registry.event_ev) (b : Registry.event_ev) =
  match Int64.compare a.ts_ns b.ts_ns with
  | 0 -> (
    match Int.compare a.tid b.tid with
    (* structural compare of the closed payload variant: totally orders
       every field, nan and None included — the tie-break that keeps
       multi-file merges independent of input order *)
    (* mlint: allow poly-compare *)
    | 0 -> compare a.payload b.payload
    | c -> c)
  | c -> c

let finish acc : Registry.snapshot =
  let spans = List.sort span_order acc.spans in
  let events = List.sort event_order acc.events in
  let sorted_bindings tbl =
    Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    Registry.spans;
    events;
    counters = sorted_bindings acc.counters;
    gauges = sorted_bindings acc.gauges;
    hists =
      (* dsa: allow float-order — bindings are collected into a list and sorted by unique key before any float is combined *)
      Hashtbl.fold (fun k (b, c) l -> (k, b, c) :: l) acc.hists []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b);
  }

let load_into acc path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lineno = ref 0 in
      try
        while true do
          let line = input_line ic in
          incr lineno;
          if String.trim line <> "" then
            try decode_line acc line
            with Parse_error msg ->
              raise
                (Parse_error (Printf.sprintf "%s:%d: %s" path !lineno msg))
        done
      with End_of_file -> ())

let empty_acc () =
  {
    spans = [];
    events = [];
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

let load_many paths =
  let acc = empty_acc () in
  List.iter (load_into acc) paths;
  finish acc
