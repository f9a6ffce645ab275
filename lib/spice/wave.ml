type t =
  | Dc of float
  | Sine of { offset : float; ampl : float; freq : float; phase : float; delay : float }
  | Pulse of {
      v1 : float;
      v2 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Pwl of (float * float) list

let two_pi = 2.0 *. Float.pi

let pulse_value ~v1 ~v2 ~rise ~fall ~width tau =
  if tau < 0.0 then v1
  else if tau < rise then
    if rise <= 0.0 then v2 else v1 +. ((v2 -. v1) *. tau /. rise)
  else if tau < rise +. width then v2
  else if tau < rise +. width +. fall then
    if fall <= 0.0 then v1
    else v2 +. ((v1 -. v2) *. (tau -. rise -. width) /. fall)
  else v1

let value w t =
  match w with
  | Dc v -> v
  | Sine { offset; ampl; freq; phase; delay } ->
    if t < delay then offset +. (ampl *. sin phase)
    else offset +. (ampl *. sin ((two_pi *. freq *. (t -. delay)) +. phase))
  | Pulse { v1; v2; delay; rise; fall; width; period } ->
    let tau = t -. delay in
    let tau =
      if period > 0.0 && Float.is_finite period && tau >= 0.0 then
        Float.rem tau period
      else tau
    in
    pulse_value ~v1 ~v2 ~rise ~fall ~width tau
  | Pwl pts -> begin
    match pts with
    | [] -> 0.0
    | (t0, v0) :: _ ->
      if t <= t0 then v0
      else begin
        let rec go = function
          | [ (_, v) ] -> v
          | (ta, va) :: ((tb, vb) :: _ as rest) ->
            if t <= tb then va +. ((vb -. va) *. (t -. ta) /. (tb -. ta))
            else go rest
          | [] -> 0.0
        in
        go pts
      end
  end

let dc_value = function
  | Dc v -> v
  | Sine { offset; _ } -> offset
  | Pulse { v1; _ } -> v1
  | Pwl pts -> ( match pts with [] -> 0.0 | (_, v) :: _ -> v)
