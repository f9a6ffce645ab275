type injection = { n : int; vi : float; f_inj : float }

type flip = { pulse : at:float -> Spice.Device.t; offsets : float * float }

type t = {
  tank : Shil.Tank.t;
  oscillator : unit -> Shil.Analysis.oscillator;
  circuit : ?extra:Spice.Device.t list -> injection option -> Spice.Circuit.t;
  probe : Spice.Transient.probe;
  fv : unit -> float array * float array;
  lock_trial : float * int;
  flip : flip option;
}

(* a tanh cell, builtin or custom, on its behavioural netlist *)
let behavioural (osc : Shil.Analysis.oscillator) =
  let module B = Circuits.Behavioural in
  let circuit ?extra inj =
    let injection =
      Option.map
        (fun { n; vi; f_inj } -> B.injection_wave ~tank:osc.tank ~n ~vi ~f_inj)
        inj
    in
    B.circuit ?injection ~kick:B.kick ?extra osc
  in
  let fv () = Shil.Nonlinearity.sample osc.nl ~v_min:(-2.0) ~v_max:2.0 ~n:201 in
  { tank = osc.tank; oscillator = (fun () -> osc); circuit; fv;
    probe = B.probe; lock_trial = (800.0, B.steps_per_cycle); flip = None }

(* a device cell on its transistor-level netlist, at Validate's default
   180 steps per cycle *)
let device ~tank ~oscillator ~circuit ~probe ~fv ~cycles ~flip =
  { tank; oscillator; circuit; probe; fv; lock_trial = (cycles, 180);
    flip = Some flip }

(* a device cell's state flip: ten tank charges at its natural amplitude
   [a] from [np] to [nn], named by the kick's instant in [unit]s *)
let flip ~(tank : Shil.Tank.t) ~np ~nn ~a ~unit:(scale, suffix) ~offsets =
  let pulse ~at =
    Circuits.Parts.flip_pulse
      ~name:(Printf.sprintf "IPULSE_%.0f%s" (at *. scale) suffix)
      ~np ~nn ~fc:(Shil.Tank.f_c tank) ~charge:(10.0 *. tank.c *. a) ~at
  in
  { pulse; offsets }

(* the device netlists' series injection, in phase with the reference *)
let at_phase_0 =
  Option.map (fun { n; vi; f_inj } -> { Shil.Simulate.vi; n; f_inj; phase = 0.0 })

let of_spec (spec : Request.osc_spec) =
  match spec with
  | Custom { g0; isat; r; fc; q } ->
    let wc = 2.0 *. Float.pi *. fc in
    let z0 = r /. q in
    behavioural
      {
        nl = Shil.Nonlinearity.neg_tanh ~g0 ~isat;
        tank = Shil.Tank.make ~r ~l:(z0 /. wc) ~c:(1.0 /. (z0 *. wc));
      }
  | Builtin name -> (
    match Check.Cell.of_name name with
    | Some Tanh -> behavioural (Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default)
    | Some Diffpair ->
      let module D = Circuits.Diff_pair in
      let p = D.default in
      let tank = D.tank p in
      device ~tank ~probe:D.osc_probe ~cycles:600.0
        ~oscillator:(fun () -> D.oscillator p)
        ~fv:(fun () -> D.extraction_fv p)
        ~circuit:(fun ?extra inj -> D.circuit ?injection:(at_phase_0 inj) ?extra p)
        ~flip:
          (flip ~tank ~np:"ncr" ~nn:"tl" ~a:0.505 ~unit:(1e6, "us")
             ~offsets:(0.41, 0.94))
    | Some Tunnel ->
      let module T = Circuits.Tunnel_osc in
      let p = T.default in
      let tank = T.tank p in
      (* Q = 316: near-edge beats are slow, so lock decisions need a
         long settle or the apparent band comes out wide *)
      device ~tank ~probe:T.osc_probe ~cycles:1500.0
        ~oscillator:(fun () -> T.oscillator p)
        ~fv:(fun () -> T.extraction_fv p)
        ~circuit:(fun ?extra inj -> T.circuit ?injection:(at_phase_0 inj) ?extra p)
        ~flip:
          (flip ~tank ~np:"0" ~nn:"t" ~a:0.199 ~unit:(1e9, "ns")
             ~offsets:(0.41, 0.20))
    | None ->
      Resilience.Oshil_error.raise_ Shil ~phase:"request" Parse_failure
        (Printf.sprintf "unknown oscillator %S" name)
        ~remedy:"use tanh, diffpair or tunnel, or a custom {g0,...} cell")

let validate cell ~n ~vi ~predicted =
  let cycles, steps_per_cycle = cell.lock_trial in
  Circuits.Validate.lock_range ~cycles ~steps_per_cycle
    ~make_circuit:(fun ~f_inj -> cell.circuit (Some { n; vi; f_inj }))
    ~probe:cell.probe ~n ~predicted ()
