type workspace = {
  size : int;
  jac : Linalg.mat;
  res : float array;
  dx : float array;
  perm : int array;
  trial : float array;
}

let workspace size =
  let vec () = Array.make size 0.0 in
  { size; jac = Linalg.create size size; res = vec (); dx = vec ();
    perm = Array.make size 0; trial = vec () }

(* [dx = jac⁻¹ res], overwriting [jac] with its LU factors; [false]
   on a pivot below 1e-300 *)
let linear_solve { jac; res; dx; perm; _ } =
  match Linalg.lu_factor_in_place jac perm with
  | exception Linalg.Singular -> false
  | () ->
    Linalg.lu_solve_into jac perm res dx;
    true

type update =
  | Plain
  | Clamp of { limit : float; upto : int }
  | Line_search

type verdict = Continue | Converged | Failed of string

type stop =
  | Before_step of
      (iter:int -> residual:float -> stalled:bool -> x:float array -> verdict)
  | Small_step of { abs : float; rel : float; residual : float; cap : int }

type outcome = {
  converged : bool;
  iters : int;
  residual : float;
  failure : string;
}

let running = function Continue -> true | Converged | Failed _ -> false

let emit_iter ectx ~iter ~residual ~step ~damping =
  match ectx with
  | Some ctx ->
    Obs.Event.emit (Obs.Event.Newton_iter { ctx; iter; residual; step; damping })
  | None -> ()

let solve ?ectx ?measure ~ws ~update ~eval ~stop x =
  let { size; jac; res; dx; trial; _ } = ws in
  assert (Array.length x = size);
  (* solver-health events: one atomic load when the stream is off *)
  let ectx = if Obs.Event.enabled () then ectx else None in
  let events = Option.is_some ectx in
  (* float refs no closure captures stay unboxed: an iteration
     allocates little beyond what the callbacks do *)
  let iter = ref 0 and residual = ref Float.nan in
  (* [jac] and [res] already hold the evaluation at [x]: the accepted
     line-search trial *)
  let fresh = ref false in
  (* the last line search ended on its 8th halving without descent *)
  let stalled = ref false in
  let verdict = ref Continue in
  while running !verdict do
    if not !fresh then begin
      eval ~x ~jac ~res;
      residual :=
        match measure with Some m -> m ~jac ~res | None -> Linalg.norm_inf res
    end;
    fresh := false;
    (match stop with
    | Before_step test ->
      verdict := test ~iter:!iter ~residual:!residual ~stalled:!stalled ~x
    | Small_step _ -> ());
    if running !verdict then begin
      incr iter;
      let entering = !residual in
      if not (linear_solve ws) then begin
        if events then
          emit_iter ectx ~iter:!iter ~residual:entering ~step:Float.nan
            ~damping:1.0;
        verdict := Failed "singular Jacobian"
      end
      else begin
        (* [damping]: the clamp's shrink factor (under events) or λ *)
        let damping = ref 1.0 and limited = ref false in
        (match update with
        | Plain -> ()
        | Clamp { limit; upto } ->
          let raw = if events then Linalg.norm_inf dx else 0.0 in
          for k = 0 to min upto size - 1 do
            if Float.abs dx.(k) > limit then begin
              dx.(k) <- Float.copy_sign limit dx.(k);
              limited := true
            end
          done;
          if !limited && raw > 0.0 then damping := Linalg.norm_inf dx /. raw
        | Line_search ->
          (* λ = 1, 1/2, ...: the first trial below the entering
             residual, else the 8th halving *)
          let halvings = ref 0 and searching = ref true in
          while !searching do
            for k = 0 to size - 1 do
              trial.(k) <- x.(k) -. (!damping *. dx.(k))
            done;
            eval ~x:trial ~jac ~res;
            let r =
              match measure with
              | Some m -> m ~jac ~res
              | None -> Linalg.norm_inf res
            in
            if r < entering || !halvings >= 8 then begin
              residual := r;
              stalled := not (r < entering);
              searching := false
            end
            else begin
              damping := !damping /. 2.0;
              incr halvings
            end
          done;
          fresh := true;
          limited := !damping < 1.0);
        let finite = ref true in
        for k = 0 to size - 1 do
          let v =
            match update with
            | Line_search -> trial.(k)
            | Plain | Clamp _ -> x.(k) -. dx.(k)
          in
          x.(k) <- v;
          if not (Float.is_finite v) then finite := false
        done;
        let step =
          match update with
          | Line_search -> !damping *. Linalg.norm_inf dx
          | Plain | Clamp _ -> Linalg.norm_inf dx
        in
        if events then
          emit_iter ectx ~iter:!iter ~residual:entering ~step ~damping:!damping;
        if not !finite then verdict := Failed "non-finite iterate"
        else
          match stop with
          | Small_step { abs; rel; residual = tol; cap } ->
            if
              (not !limited)
              && step <= abs +. (rel *. Linalg.norm_inf x)
              && entering <= tol
            then verdict := Converged
            else if !iter >= cap then
              verdict :=
                Failed (Printf.sprintf "no convergence in %d iterations" cap)
          | Before_step _ -> ()
      end
    end
  done;
  let converged, failure =
    match !verdict with
    | Failed why -> (false, why)
    | Converged | Continue -> (true, "")
  in
  (match ectx with
  | Some ctx ->
    Obs.Event.emit
      (Obs.Event.Newton_done { ctx; iters = !iter; converged; residual = !residual })
  | None -> ());
  { converged; iters = !iter; residual = !residual; failure }
