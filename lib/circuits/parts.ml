let kick ~fc amplitude =
  Spice.Wave.Pulse
    {
      v1 = 0.0;
      v2 = amplitude;
      delay = 0.0;
      rise = 0.05 /. fc;
      fall = 0.05 /. fc;
      width = 0.25 /. fc;
      period = 0.0;
    }

let series_injection = function
  | None -> Spice.Wave.Dc 0.0
  | Some (inj : Shil.Simulate.injection) ->
    Spice.Wave.Sine
      {
        offset = 0.0;
        ampl = 2.0 *. inj.vi;
        freq = inj.f_inj;
        (* Wave.Sine is sin-based; the theory phasor convention is
           cos-based: cos x = sin (x + pi/2) *)
        phase = inj.phase +. (Float.pi /. 2.0);
        delay = 0.0;
      }

let differential_fv ~pair ~supply ~left ~right ~v_span ~steps =
  let build v =
    Spice.Circuit.of_devices
      (pair
      @ [
          Spice.Device.Vsource
            { name = "VP"; np = left; nn = "0"; wave = Spice.Wave.Dc (supply +. (v /. 2.0)) };
          Spice.Device.Vsource
            { name = "VM"; np = right; nn = "0"; wave = Spice.Wave.Dc (supply -. (v /. 2.0)) };
        ])
  in
  let vs = Numerics.Kernel.linspace (-.v_span) v_span (steps + 1) in
  let is = Array.make (steps + 1) 0.0 in
  (* every bias point solves the same topology: pre-flight it once *)
  Spice.Preflight.gate (build 0.0);
  let measure ~x0 v =
    let op = Spice.Op.run ~check:`Off ?x0 (build v) in
    (* the port current into [left] is -I(VP); the differential current
       is the half-difference (see DESIGN.md) *)
    let i_left = -.Spice.Op.current op "VP" in
    let i_right = -.Spice.Op.current op "VM" in
    (0.5 *. (i_left -. i_right), op.Spice.Op.x)
  in
  let mid = steps / 2 in
  let i0, x_mid = measure ~x0:None vs.(mid) in
  is.(mid) <- i0;
  let prev = ref (Some x_mid) in
  for k = mid + 1 to steps do
    let i, x = measure ~x0:!prev vs.(k) in
    is.(k) <- i;
    prev := Some x
  done;
  prev := Some x_mid;
  for k = mid - 1 downto 0 do
    let i, x = measure ~x0:!prev vs.(k) in
    is.(k) <- i;
    prev := Some x
  done;
  (vs, is)
