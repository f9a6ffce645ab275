(* dsa fixture: a shared ref written from a Pool closure — the
   canonical domain-escape — through [parallel_for] and through
   [guarded_map]. Expected findings: [domain-escape] at both sites. *)

let total = ref 0.0

let race n =
  Numerics.Pool.parallel_for ~n (fun i -> total := !total +. float_of_int i);
  !total

let seen = ref 0

let guarded_race xs =
  let g =
    Resilience.Guard.make ~label:string_of_int Shil ~phase:"fixture"
  in
  Numerics.Pool.guarded_map g (fun x -> incr seen; x * x) xs
