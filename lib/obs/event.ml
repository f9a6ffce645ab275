(* Typed introspection events: the solver-health stream.

   Gated independently from spans because the volume differs by orders
   of magnitude (one event per Newton iteration vs one span per solve
   phase). Emission is a single atomic load and branch when off, and by
   contract never feeds back into numeric results. *)

type solve_ctx = Registry.solve_ctx = {
  solver : string;
  rung : string;
  cell : (float * float) option;
}

type payload = Registry.event_payload =
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

let enabled () = Atomic.get Registry.events_enabled
let ctx ?rung ?cell solver =
  { solver; rung = Option.value ~default:"" rung; cell }

let emit payload =
  if Atomic.get Registry.events_enabled then begin
    let b = Registry.my_buf () in
    Registry.add_event b
      {
        Registry.ts_ns = Clock.since_start_ns ();
        tid = Registry.buf_dom b;
        payload;
      }
  end

(* [Gc.quick_stat] is the one sanctioned allocation probe; everything
   outside lib/obs goes through this sampler (enforced by the mlint
   [direct-gc] rule). *)
let gc_sample ~where () =
  if Atomic.get Registry.events_enabled then begin
    let g = Gc.quick_stat () in
    emit
      (Gc_sample
         {
           where;
           minor_words = g.Gc.minor_words;
           promoted_words = g.Gc.promoted_words;
           major_words = g.Gc.major_words;
           minor_gcs = g.Gc.minor_collections;
           major_gcs = g.Gc.major_collections;
           heap_words = g.Gc.heap_words;
         })
  end
