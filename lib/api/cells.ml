type injection = { n : int; vi : float; f_inj : float }

type t = {
  tank : Shil.Tank.t;
  oscillator : unit -> Shil.Analysis.oscillator;
  circuit : injection option -> Spice.Circuit.t;
  probe : Spice.Transient.probe;
  fv : unit -> float array * float array;
  lock_trial : float * int;
}

(* a tanh cell, builtin or custom, on its behavioural netlist *)
let behavioural (osc : Shil.Analysis.oscillator) =
  let circuit = function
    | None -> Circuits.Behavioural.circuit ~kick:Circuits.Behavioural.kick osc
    | Some { n; vi; f_inj } -> Circuits.Behavioural.injected ~n ~vi osc ~f_inj
  in
  let fv () = Shil.Nonlinearity.sample osc.nl ~v_min:(-2.0) ~v_max:2.0 ~n:201 in
  { tank = osc.tank; oscillator = (fun () -> osc); circuit; fv;
    probe = Circuits.Behavioural.probe;
    lock_trial = (800.0, Circuits.Behavioural.steps_per_cycle) }

(* a device cell on its transistor-level netlist, with Validate's
   default lock trial *)
let device ~tank ~oscillator ~circuit ~probe ~fv =
  { tank; oscillator; circuit; probe; fv; lock_trial = (600.0, 180) }

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
      device ~tank:(D.tank p) ~probe:D.osc_probe
        ~oscillator:(fun () -> D.oscillator p)
        ~fv:(fun () -> D.extraction_fv p)
        ~circuit:(fun inj -> D.circuit ?injection:(at_phase_0 inj) p)
    | Some Tunnel ->
      let module T = Circuits.Tunnel_osc in
      let p = T.default in
      device ~tank:(T.tank p) ~probe:T.osc_probe
        ~oscillator:(fun () -> T.oscillator p)
        ~fv:(fun () -> T.extraction_fv p)
        ~circuit:(fun inj -> T.circuit ?injection:(at_phase_0 inj) p)
    | None ->
      Resilience.Oshil_error.raise_ Shil ~phase:"request" Parse_failure
        (Printf.sprintf "unknown oscillator %S" name)
        ~remedy:"use tanh, diffpair or tunnel, or a custom {g0,...} cell")
