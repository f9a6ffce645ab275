type t = { compiled : Mna.compiled; x : float array }

module Policy = Resilience.Policy

let attempt ?damped ?(rung = "direct") compiled ~ws ~gmin ~source_scale ~x0 =
  let mode = Mna.Dc { gmin; source_scale } in
  let assemble ~x ~jac ~res =
    Mna.assemble compiled ~mode ~x ~jac ~res
  in
  (* the rung label lets a report attribute convergence behaviour to
     the recovery ladder step (gmin/source value) that produced it *)
  let ectx =
    if Obs.Event.enabled () then
      Some
        (Obs.Event.ctx
           ~rung:(Printf.sprintf "%s,gmin=%g,src=%g" rung gmin source_scale)
           "spice.op")
    else None
  in
  let x = Array.copy x0 in
  Result.map (fun () -> x) (Newton.solve ?ectx ?damped ~ws ~assemble x)

let run ?(check = `Enforce) ?x0 circuit =
  Preflight.gate ~mode:check circuit;
  Obs.Span.with_ ~cat:"spice" ~name:"spice.op.run" @@ fun () ->
  let compiled = Mna.compile circuit in
  let size = Mna.size compiled in
  let x0 = match x0 with Some x -> x | None -> Array.make size 0.0 in
  (* one workspace for every rung of the recovery ladder *)
  let ws = Newton.workspace ~clamp_upto:(Mna.n_nodes compiled) size in
  Fun.protect ~finally:(fun () -> Newton.flush ws) @@ fun () ->
  let direct () =
    attempt ~ws ~rung:"direct" compiled ~gmin:1e-12 ~source_scale:1.0 ~x0
  in
  (* gmin stepping: solve with a heavy leak, then relax it *)
  let gmin_stepping () =
    let rec gmin_steps x = function
      | [] -> Ok x
      | g :: rest -> begin
        match
          attempt ~ws ~rung:"gmin-stepping" compiled ~gmin:g
            ~source_scale:1.0 ~x0:x
        with
        | Ok x' -> gmin_steps x' rest
        | Error e -> Error e
      end
    in
    let gmins = [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8; 1e-10; 1e-12 ] in
    gmin_steps (Array.make size 0.0) gmins
  in
  (* source stepping with a mild gmin, then a polish without it *)
  let source_stepping () =
    let rec src_steps x = function
      | [] -> Ok x
      | s :: rest -> begin
        match
          attempt ~ws ~rung:"source-stepping" compiled ~gmin:1e-9
            ~source_scale:s ~x0:x
        with
        | Ok x' -> src_steps x' rest
        | Error e -> Error e
      end
    in
    let scales = [ 0.1; 0.2; 0.4; 0.6; 0.8; 0.9; 1.0 ] in
    match src_steps (Array.make size 0.0) scales with
    | Ok x -> begin
      match
        attempt ~ws ~rung:"source-stepping" compiled ~gmin:1e-12
          ~source_scale:1.0 ~x0:x
      with
      | Ok x' -> Ok x'
      | Error _ -> Ok x
    end
    | Error e -> Error e
  in
  (* last resort: heavily damped Newton with an extended iteration
     budget — tiny steps crawl down narrow basins of attraction *)
  let damped_newton () =
    attempt ~damped:true ~ws ~rung:"damped-newton" compiled ~gmin:1e-9
      ~source_scale:1.0 ~x0:(Array.make size 0.0)
  in
  match
    Policy.escalate ~subsystem:Spice ~phase:"op"
      [
        Policy.rung "direct" direct;
        Policy.rung "gmin-stepping" gmin_stepping;
        Policy.rung "source-stepping" source_stepping;
        Policy.rung "damped-newton" damped_newton;
      ]
  with
  | Ok x -> { compiled; x }
  | Error e -> raise (Resilience.Oshil_error.Error e)

let voltage t name = Mna.node_voltage t.compiled t.x name
let current t name = t.x.(Mna.branch_index t.compiled name)
