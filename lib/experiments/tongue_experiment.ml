module Fig = Plotkit.Fig

type point = {
  vi : float;
  f_inj_low : float;
  f_inj_high : float;
  delta_f_inj : float;
}

let default_vis =
  [ 0.005; 0.0075; 0.01; 0.015; 0.02; 0.03; 0.05; 0.075; 0.1; 0.15; 0.2; 0.3 ]

let compute ?points ?(vis = default_vis) osc ~n =
  (* every tongue cell (one |Vi|) is an independent analysis; fan the
     cells out one per task. Grid sampling inside a worker falls back to
     sequential, so the pool is not oversubscribed. A cell that fails
     becomes a typed hole instead of killing the sweep. *)
  let cells =
    Numerics.Pool.parallel_try_map_array ~chunk:1 ~subsystem:Experiments
      ~phase:"tongue"
      (fun vi ->
        let lr = (Shil.Analysis.run ?points osc ~n ~vi).lock_range in
        { vi; f_inj_low = lr.f_inj_low; f_inj_high = lr.f_inj_high;
          delta_f_inj = lr.delta_f_inj })
      (Array.of_list vis)
  in
  let holes = ref [] and pts = ref [] in
  Array.iteri
    (fun i cell ->
      match cell with
      | Ok p -> pts := p :: !pts
      | Error e ->
        if Resilience.Policy.fail_fast () then
          raise (Resilience.Oshil_error.Error e);
        Obs.Metrics.incr "resilience.tongue.holes";
        holes :=
          { Resilience.Summary.site =
              Printf.sprintf "vi=%.6g" (List.nth vis i);
            error = e }
          :: !holes)
    cells;
  ( List.rev !pts,
    Resilience.Summary.make ~attempted:(List.length vis) (List.rev !holes) )

let run () =
  let osc = Circuits.Tanh_osc.oscillator Circuits.Tanh_osc.default in
  let n = 3 in
  let pts, failures = compute osc ~n in
  let vis_arr = Array.of_list (List.map (fun p -> p.vi) pts) in
  let fig =
    Fig.create ~title:"Arnold tongue: 3rd-SHIL locking region (tanh cell)"
      ~xlabel:"f_inj (Hz)" ~ylabel:"|Vi| (V)" ()
  in
  let fig =
    Fig.add_line ~label:"lower edge" ~style:(Fig.solid Fig.blue) fig
      ~xs:(Array.of_list (List.map (fun p -> p.f_inj_low) pts))
      ~ys:vis_arr
  in
  let fig =
    Fig.add_line ~label:"upper edge" ~style:(Fig.solid Fig.red) fig
      ~xs:(Array.of_list (List.map (fun p -> p.f_inj_high) pts))
      ~ys:vis_arr
  in
  let fig =
    Fig.add_vline ~style:(Fig.dashed Fig.gray) fig
      ~x:(3.0 *. Shil.Tank.f_c osc.tank)
  in
  let rows =
    List.map
      (fun p ->
        ( Printf.sprintf "Vi = %.4g" p.vi,
          Printf.sprintf "[%.8g, %.8g] Hz (delta %.6g)" p.f_inj_low
            p.f_inj_high p.delta_f_inj ))
      pts
    @
    if Resilience.Summary.is_clean failures then []
    else [ ("failed cells", Resilience.Summary.to_string failures) ]
  in
  Output.make ~id:"X3" ~title:"extension: Arnold tongue (lock band vs Vi)"
    ~rows ~figures:[ ("tongue", fig) ] ()
