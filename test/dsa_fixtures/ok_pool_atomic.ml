(* dsa fixture: the safe counterparts of [Bad_pool_escape] — an Atomic
   counter, and per-domain scratch from [Kernel.with_bufs] feeding
   [parallel_map_array] (each task returns its slot value instead of writing
   shared state). Expected findings: none. *)

let hits = Atomic.make 0

let count n =
  Numerics.Pool.parallel_for ~n (fun _ -> Atomic.incr hits);
  Atomic.get hits

let squares n =
  Numerics.Pool.parallel_map_array
    (fun i ->
      Numerics.Kernel.with_bufs ~len:1 1 @@ fun bufs ->
      bufs.(0).(0) <- float_of_int i;
      bufs.(0).(0) *. bufs.(0).(0))
    (Array.init n Fun.id)
