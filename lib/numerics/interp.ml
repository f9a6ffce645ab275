(* Each interval [x_i, x_{i+1}) carries cubic coefficients (a, b, c, d) so
   that y(x) = a + b dx + c dx^2 + d dx^3 with dx = x - x_i. *)

type t = {
  xs : float array;
  ys : float array;
  coeffs : (float * float * float * float) array; (* per interval *)
}

let check_knots xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Interp: xs/ys length mismatch";
  if n < 2 then invalid_arg "Interp: need at least two knots";
  for i = 0 to n - 2 do
    if not (xs.(i) < xs.(i + 1)) then
      invalid_arg "Interp: abscissae must be strictly increasing"
  done

(* Fritsch-Carlson monotone Hermite slopes. *)
let pchip_slopes xs ys =
  let n = Array.length xs in
  let h = Array.init (n - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
  let delta = Array.init (n - 1) (fun i -> (ys.(i + 1) -. ys.(i)) /. h.(i)) in
  let m = Array.make n 0.0 in
  if n = 2 then begin
    m.(0) <- delta.(0);
    m.(1) <- delta.(0)
  end
  else begin
    for i = 1 to n - 2 do
      if delta.(i - 1) *. delta.(i) <= 0.0 then m.(i) <- 0.0
      else begin
        let w1 = (2.0 *. h.(i)) +. h.(i - 1) in
        let w2 = h.(i) +. (2.0 *. h.(i - 1)) in
        m.(i) <- (w1 +. w2) /. ((w1 /. delta.(i - 1)) +. (w2 /. delta.(i)))
      end
    done;
    (* one-sided three-point endpoint slopes, clamped for shape *)
    let endpoint h0 h1 d0 d1 =
      let m0 = (((2.0 *. h0) +. h1) *. d0 -. (h0 *. d1)) /. (h0 +. h1) in
      if m0 *. d0 <= 0.0 then 0.0
      else if d0 *. d1 <= 0.0 && Float.abs m0 > 3.0 *. Float.abs d0 then
        3.0 *. d0
      else m0
    in
    m.(0) <- endpoint h.(0) h.(1) delta.(0) delta.(1);
    m.(n - 1) <- endpoint h.(n - 2) h.(n - 3) delta.(n - 2) delta.(n - 3)
  end;
  m

let pchip ~xs ~ys =
  check_knots xs ys;
  let n = Array.length xs in
  let m = pchip_slopes xs ys in
  let coeffs =
    Array.init (n - 1) (fun i ->
        let h = xs.(i + 1) -. xs.(i) in
        let delta = (ys.(i + 1) -. ys.(i)) /. h in
        let a = ys.(i) and b = m.(i) in
        let c = ((3.0 *. delta) -. (2.0 *. m.(i)) -. m.(i + 1)) /. h in
        let d = (m.(i) +. m.(i + 1) -. (2.0 *. delta)) /. (h *. h) in
        (a, b, c, d))
  in
  { xs = Array.copy xs; ys = Array.copy ys; coeffs }

let interval t x =
  (* binary search: largest i with xs.(i) <= x, clamped to a valid interval *)
  let n = Array.length t.xs in
  if x <= t.xs.(0) then 0
  else if x >= t.xs.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let eval t x =
  let i = interval t x in
  let a, b, c, d = t.coeffs.(i) in
  let n = Array.length t.xs in
  if x < t.xs.(0) then
    (* linear extrapolation with the left boundary slope *)
    t.ys.(0) +. (b *. (x -. t.xs.(0)))
  else if x > t.xs.(n - 1) then begin
    let _, b, c, d = t.coeffs.(n - 2) in
    let h = t.xs.(n - 1) -. t.xs.(n - 2) in
    let slope_end = b +. (2.0 *. c *. h) +. (3.0 *. d *. h *. h) in
    t.ys.(n - 1) +. (slope_end *. (x -. t.xs.(n - 1)))
  end
  else begin
    let dx = x -. t.xs.(i) in
    a +. (dx *. (b +. (dx *. (c +. (dx *. d)))))
  end

(* Batch evaluation with a warm-started interval search: quadrature
   waveforms are piecewise-smooth, so consecutive samples almost always
   land in the same or a neighbouring knot interval. Walking from the
   previous interval (and falling back to binary search only on long
   jumps) amortizes [interval] to O(1) per sample. Each element computes
   exactly the [eval] expressions, so results are bit-identical to the
   scalar loop. Supports [src == dst]: slot [i] is read before it is
   written. *)
let eval_batch ?n t ~src ~dst =
  let n = match n with Some n -> n | None -> Array.length src in
  if n < 0 || n > Array.length src || n > Array.length dst then
    invalid_arg "Interp.eval_batch";
  let nk = Array.length t.xs in
  let last = ref 0 in
  for idx = 0 to n - 1 do
    let x = src.(idx) in
    let i =
      if x <= t.xs.(0) then 0
      else if x >= t.xs.(nk - 1) then nk - 2
      else begin
        (* walk from the previous hit; give up after a few steps *)
        let i = ref (if !last > nk - 2 then nk - 2 else !last) in
        let steps = ref 0 in
        let wandering = ref true in
        while !wandering do
          if !steps > 4 then begin
            i := interval t x;
            wandering := false
          end
          else if t.xs.(!i) > x then begin
            decr i;
            incr steps
          end
          else if t.xs.(!i + 1) <= x then begin
            incr i;
            incr steps
          end
          else wandering := false
        done;
        !i
      end
    in
    last := i;
    let a, b, c, d = t.coeffs.(i) in
    dst.(idx) <-
      (if x < t.xs.(0) then t.ys.(0) +. (b *. (x -. t.xs.(0)))
       else if x > t.xs.(nk - 1) then begin
         let _, b, c, d = t.coeffs.(nk - 2) in
         let h = t.xs.(nk - 1) -. t.xs.(nk - 2) in
         let slope_end = b +. (2.0 *. c *. h) +. (3.0 *. d *. h *. h) in
         t.ys.(nk - 1) +. (slope_end *. (x -. t.xs.(nk - 1)))
       end
       else begin
         let dx = x -. t.xs.(i) in
         a +. (dx *. (b +. (dx *. (c +. (dx *. d)))))
       end)
  done

let eval_deriv t x =
  let n = Array.length t.xs in
  if x < t.xs.(0) then
    let _, b, _, _ = t.coeffs.(0) in
    b
  else if x > t.xs.(n - 1) then begin
    let _, b, c, d = t.coeffs.(n - 2) in
    let h = t.xs.(n - 1) -. t.xs.(n - 2) in
    b +. (2.0 *. c *. h) +. (3.0 *. d *. h *. h)
  end
  else begin
    let i = interval t x in
    let _, b, c, d = t.coeffs.(i) in
    let dx = x -. t.xs.(i) in
    b +. (dx *. ((2.0 *. c) +. (dx *. 3.0 *. d)))
  end
