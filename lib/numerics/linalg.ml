type mat = float array array

let create rows cols = Array.make_matrix rows cols 0.0

let identity n =
  let m = create n n in
  for k = 0 to n - 1 do
    m.(k).(k) <- 1.0
  done;
  m

let copy a = Array.map Array.copy a

let dims a =
  let rows = Array.length a in
  if rows = 0 then (0, 0) else (rows, Array.length a.(0))

let mat_vec a x =
  let rows, cols = dims a in
  assert (cols = Array.length x);
  Array.init rows (fun r ->
      let row = a.(r) in
      let s = ref 0.0 in
      for c = 0 to cols - 1 do
        s := !s +. (row.(c) *. x.(c))
      done;
      !s)

let mat_mul a b =
  let ra, ca = dims a and rb, cb = dims b in
  assert (ca = rb);
  let m = create ra cb in
  for r = 0 to ra - 1 do
    for k = 0 to ca - 1 do
      let aik = a.(r).(k) in
      if aik <> 0.0 then
        for c = 0 to cb - 1 do
          m.(r).(c) <- m.(r).(c) +. (aik *. b.(k).(c))
        done
    done
  done;
  m

let vec_add x y = Array.mapi (fun k xi -> xi +. y.(k)) x
let vec_sub x y = Array.mapi (fun k xi -> xi -. y.(k)) x
let vec_scale s x = Array.map (fun xi -> s *. xi) x

let dot x y =
  let s = ref 0.0 in
  Array.iteri (fun k xi -> s := !s +. (xi *. y.(k))) x;
  !s

(* [Float.max], spelled out so that a loop over it keeps its floats
   unboxed; same result bits, NaN payloads included *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y else x

let norm_inf x =
  let m = ref 0.0 in
  for k = 0 to Array.length x - 1 do
    m := fmax !m (Float.abs x.(k))
  done;
  !m
let norm2 x = sqrt (dot x x)

exception Singular

type lu = { lu : mat; perm : int array }

let lu_factor_in_place m perm =
  let n, cols = dims m in
  assert (n = cols && Array.length perm = n);
  for k = 0 to n - 1 do
    perm.(k) <- k
  done;
  for k = 0 to n - 1 do
    (* partial pivoting: bring the largest remaining |entry| of column k up *)
    let piv = ref k in
    for r = k + 1 to n - 1 do
      if Float.abs m.(r).(k) > Float.abs m.(!piv).(k) then piv := r
    done;
    if !piv <> k then begin
      let tmp = m.(k) in
      m.(k) <- m.(!piv);
      m.(!piv) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- tp
    end;
    let pivot = m.(k).(k) in
    if Float.abs pivot < 1e-300 then raise Singular;
    for r = k + 1 to n - 1 do
      let factor = m.(r).(k) /. pivot in
      m.(r).(k) <- factor;
      if factor <> 0.0 then
        for c = k + 1 to n - 1 do
          m.(r).(c) <- m.(r).(c) -. (factor *. m.(k).(c))
        done
    done
  done

let lu_solve_into m perm b x =
  let n = Array.length perm in
  (* mlint: allow phys-eq — x overwritten while b is read: no aliasing *)
  assert (Array.length b = n && Array.length x = n && b != x);
  for r = 0 to n - 1 do
    x.(r) <- b.(perm.(r))
  done;
  for r = 1 to n - 1 do
    let s = ref x.(r) in
    for c = 0 to r - 1 do
      s := !s -. (m.(r).(c) *. x.(c))
    done;
    x.(r) <- !s
  done;
  for r = n - 1 downto 0 do
    let s = ref x.(r) in
    for c = r + 1 to n - 1 do
      s := !s -. (m.(r).(c) *. x.(c))
    done;
    x.(r) <- !s /. m.(r).(r)
  done

let lu_factor a =
  let m = copy a in
  let perm = Array.make (Array.length m) 0 in
  lu_factor_in_place m perm;
  { lu = m; perm }

let lu_solve { lu = m; perm; _ } b =
  let x = Array.make (Array.length perm) 0.0 in
  lu_solve_into m perm b x;
  x

let solve a b = lu_solve (lu_factor a) b

let solve_complex a b =
  let n = Array.length b in
  let m = Array.map Array.copy a in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    let piv = ref k in
    for r = k + 1 to n - 1 do
      if Cx.abs m.(r).(k) > Cx.abs m.(!piv).(k) then piv := r
    done;
    if !piv <> k then begin
      let tmp = m.(k) in
      m.(k) <- m.(!piv);
      m.(!piv) <- tmp;
      let tb = x.(k) in
      x.(k) <- x.(!piv);
      x.(!piv) <- tb
    end;
    let pivot = m.(k).(k) in
    if Cx.abs pivot < 1e-300 then raise Singular;
    for r = k + 1 to n - 1 do
      let factor = Cx.div m.(r).(k) pivot in
      if Cx.abs factor <> 0.0 then begin
        for c = k to n - 1 do
          m.(r).(c) <- Cx.sub m.(r).(c) (Cx.mul factor m.(k).(c))
        done;
        x.(r) <- Cx.sub x.(r) (Cx.mul factor x.(k))
      end
    done
  done;
  for r = n - 1 downto 0 do
    let s = ref x.(r) in
    for c = r + 1 to n - 1 do
      s := Cx.sub !s (Cx.mul m.(r).(c) x.(c))
    done;
    x.(r) <- Cx.div !s m.(r).(r)
  done;
  x

let residual a x b = norm_inf (vec_sub (mat_vec a x) b)
