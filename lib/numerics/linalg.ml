type mat = float array array

let create rows cols = Array.make_matrix rows cols 0.0

let dims a =
  let rows = Array.length a in
  if rows = 0 then (0, 0) else (rows, Array.length a.(0))

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

exception Singular

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

let solve a b =
  let m = Array.map Array.copy a in
  let perm = Array.make (Array.length m) 0 in
  lu_factor_in_place m perm;
  let x = Array.make (Array.length perm) 0.0 in
  lu_solve_into m perm b x;
  x
