(* Unknowns: node voltages then branch currents (V sources and inductors).
   KCL residual: sum of currents leaving the node; branch residuals follow.
   Nonlinear devices are linearized analytically; integration uses
   trapezoidal or backward-Euler companion models. *)

type inst =
  | IR of { i1 : int; i2 : int; g : float }
  | IC of { i1 : int; i2 : int; c : float; ic : float option; si : int }
  | IL of { i1 : int; i2 : int; l : float; ic : float option; br : int; si : int }
  | IV of { ip : int; inn : int; wave : Wave.t; br : int; sv : int }
  | II of { ip : int; inn : int; wave : Wave.t; sv : int }
  | ID of { ip : int; inn : int; p : Device.diode_params }
  | IQ of { nc : int; nb : int; ne : int; p : Device.bjt_params }
  | ITD of { ip : int; inn : int; p : Device.tunnel_params }
  | IM of { nd : int; ng : int; ns : int; p : Device.mos_params }
  | INL of { ip : int; inn : int; f : float -> float; df : (float -> float) option }

type compiled = {
  n_nodes : int;
  n_branches : int;
  insts : inst array;
  node_tbl : (string, int) Hashtbl.t;
  branch_tbl : (string, int) Hashtbl.t;  (* device name -> unknown index *)
  n_caps : int;
  n_inds : int;
  waves : Wave.t array;  (* the independent sources' waves, by [sv] *)
}

let compile circuit =
  let node_tbl = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace node_tbl n i) (Circuit.node_names circuit);
  let n_nodes = Hashtbl.length node_tbl in
  if n_nodes = 0 then invalid_arg "Mna.compile: empty circuit";
  let idx n = if Circuit.is_ground n then -1 else Hashtbl.find node_tbl n in
  let branch_tbl = Hashtbl.create 8 in
  let next_branch = ref 0 and next_cap = ref 0 and next_ind = ref 0 in
  (* each independent source's wave gets a slot in [state.src] *)
  let waves = ref [] and next_src = ref 0 in
  let source wave =
    waves := wave :: !waves;
    incr next_src;
    !next_src - 1
  in
  let insts =
    List.map
      (fun (d : Device.t) ->
        match d with
        | Resistor { n1; n2; r; _ } ->
          if r = 0.0 then invalid_arg "Mna.compile: zero-ohm resistor";
          IR { i1 = idx n1; i2 = idx n2; g = 1.0 /. r }
        | Capacitor { n1; n2; c; ic; _ } ->
          let si = !next_cap in
          incr next_cap;
          IC { i1 = idx n1; i2 = idx n2; c; ic; si }
        | Inductor { name; n1; n2; l; ic } ->
          let br = n_nodes + !next_branch in
          incr next_branch;
          Hashtbl.replace branch_tbl name br;
          let si = !next_ind in
          incr next_ind;
          IL { i1 = idx n1; i2 = idx n2; l; ic; br; si }
        | Vsource { name; np; nn; wave } ->
          let br = n_nodes + !next_branch in
          incr next_branch;
          Hashtbl.replace branch_tbl name br;
          IV { ip = idx np; inn = idx nn; wave; br; sv = source wave }
        | Isource { np; nn; wave; _ } ->
          II { ip = idx np; inn = idx nn; wave; sv = source wave }
        | Diode { np; nn; p; _ } -> ID { ip = idx np; inn = idx nn; p }
        | Bjt { nc; nb; ne; p; _ } -> IQ { nc = idx nc; nb = idx nb; ne = idx ne; p }
        | Tunnel_diode { np; nn; p; _ } -> ITD { ip = idx np; inn = idx nn; p }
        | Mosfet { nd; ng; ns; p; _ } -> IM { nd = idx nd; ng = idx ng; ns = idx ns; p }
        | Nonlinear_cs { np; nn; f; df; _ } -> INL { ip = idx np; inn = idx nn; f; df })
      (Circuit.devices circuit)
  in
  {
    n_nodes;
    n_branches = !next_branch;
    insts = Array.of_list insts;
    node_tbl;
    branch_tbl;
    n_caps = !next_cap;
    n_inds = !next_ind;
    waves = Array.of_list (List.rev !waves);
  }

let size c = c.n_nodes + c.n_branches
let n_nodes c = c.n_nodes

let node_index c name =
  if Circuit.is_ground name then -1 else Hashtbl.find c.node_tbl name

let branch_index c name = Hashtbl.find c.branch_tbl name

let node_voltage c x name =
  let i = node_index c name in
  if i < 0 then 0.0 else x.(i)

type integ = Trap | Backward_euler

type state = {
  cap_v : float array;
  cap_i : float array;
  ind_v : float array;
  ind_i : float array;
  src : float array;
}

let[@inline] v_at x i = if i < 0 then 0.0 else x.(i)

let init_state c ~use_ic ~x =
  let cap_v = Array.make (max c.n_caps 1) 0.0 in
  let cap_i = Array.make (max c.n_caps 1) 0.0 in
  let ind_v = Array.make (max c.n_inds 1) 0.0 in
  let ind_i = Array.make (max c.n_inds 1) 0.0 in
  let src = Array.make (Array.length c.waves) 0.0 in
  Array.iter
    (fun inst ->
      match inst with
      | IC { i1; i2; ic; si; _ } ->
        let from_x = v_at x i1 -. v_at x i2 in
        cap_v.(si) <- (match ic with Some v when use_ic -> v | _ -> from_x)
      | IL { i1; i2; ic; si; br; _ } ->
        ind_v.(si) <- v_at x i1 -. v_at x i2;
        ind_i.(si) <- (match ic with Some i when use_ic -> i | _ -> x.(br))
      | IR _ | IV _ | II _ | ID _ | IQ _ | ITD _ | IM _ | INL _ -> ())
    c.insts;
  { cap_v; cap_i; ind_v; ind_i; src }

let set_time c state t =
  for k = 0 to Array.length c.waves - 1 do
    state.src.(k) <- Wave.value c.waves.(k) t
  done

let advance_state c ~integ ~h state ~x =
  let insts = c.insts in
  for k = 0 to Array.length insts - 1 do
    match insts.(k) with
    | IC { i1; i2; c = cval; si; _ } ->
      let v_new = v_at x i1 -. v_at x i2 in
      let i_new =
        match integ with
        | Trap ->
          (2.0 *. cval /. h *. (v_new -. state.cap_v.(si))) -. state.cap_i.(si)
        | Backward_euler -> cval /. h *. (v_new -. state.cap_v.(si))
      in
      state.cap_v.(si) <- v_new;
      state.cap_i.(si) <- i_new
    | IL { i1; i2; si; br; _ } ->
      state.ind_v.(si) <- v_at x i1 -. v_at x i2;
      state.ind_i.(si) <- x.(br)
    | IR _ | IV _ | II _ | ID _ | IQ _ | ITD _ | IM _ | INL _ -> ()
  done

type mode =
  | Dc of { gmin : float; source_scale : float }
  | Tran of { h : float; integ : integ; state : state; gmin : float }

(* Stamping helpers. They live at top level and are inlined, so the
   stamped floats stay unboxed; the ground index (-1) is dropped. *)
let[@inline] add_res res i v = if i >= 0 then res.(i) <- res.(i) +. v

let[@inline] add_jac jac r c v =
  if r >= 0 && c >= 0 then jac.(r).(c) <- jac.(r).(c) +. v

(* device current i (already evaluated) flowing i1 -> i2, slope g *)
let[@inline] stamp_nonlinear res jac i1 i2 i g =
  add_res res i1 i;
  add_res res i2 (-.i);
  add_jac jac i1 i1 g;
  add_jac jac i1 i2 (-.g);
  add_jac jac i2 i1 (-.g);
  add_jac jac i2 i2 g

(* current i = g*(v1-v2) + i0 flowing i1 -> i2 *)
let[@inline] stamp_conductance x res jac i1 i2 g i0 =
  let v = v_at x i1 -. v_at x i2 in
  stamp_nonlinear res jac i1 i2 ((g *. v) +. i0) g

let[@inline] src_value mode wave sv =
  match mode with
  | Dc { source_scale; _ } -> source_scale *. Wave.dc_value wave
  | Tran { state; _ } -> state.src.(sv)

let assemble c ~mode ~x ~jac ~res =
  let n = size c in
  for r = 0 to n - 1 do
    res.(r) <- 0.0;
    let row = jac.(r) in
    for cc = 0 to n - 1 do
      row.(cc) <- 0.0
    done
  done;
  let gmin = match mode with Dc { gmin; _ } | Tran { gmin; _ } -> gmin in
  (* gmin leak on every node keeps the matrix regular with floating caps *)
  if gmin > 0.0 then
    for k = 0 to c.n_nodes - 1 do
      res.(k) <- res.(k) +. (gmin *. x.(k));
      jac.(k).(k) <- jac.(k).(k) +. gmin
    done;
  let insts = c.insts in
  for k = 0 to Array.length insts - 1 do
    match insts.(k) with
    | IR { i1; i2; g } -> stamp_conductance x res jac i1 i2 g 0.0
    | IC { i1; i2; c = cval; si; _ } -> begin
      match mode with
      | Dc _ -> () (* open circuit *)
      | Tran { h; integ = Trap; state; _ } ->
        let geq = 2.0 *. cval /. h in
        stamp_conductance x res jac i1 i2 geq
          ((-.geq *. state.cap_v.(si)) -. state.cap_i.(si))
      | Tran { h; integ = Backward_euler; state; _ } ->
        let geq = cval /. h in
        stamp_conductance x res jac i1 i2 geq (-.geq *. state.cap_v.(si))
    end
    | IL { i1; i2; l; br; si; _ } -> begin
      (* KCL: branch current leaves i1, enters i2 *)
      let ibr = x.(br) in
      add_res res i1 ibr;
      add_res res i2 (-.ibr);
      add_jac jac i1 br 1.0;
      add_jac jac i2 br (-1.0);
      (* branch equation:
         trap: v_new = (2L/h)(i_new - i_prev) - v_prev
         BE:   v_new = (L/h)(i_new - i_prev) *)
      match mode with
      | Dc _ ->
        res.(br) <- v_at x i1 -. v_at x i2;
        add_jac jac br i1 1.0;
        add_jac jac br i2 (-1.0)
      | Tran { h; integ; state; _ } ->
        let v = v_at x i1 -. v_at x i2 in
        let k = match integ with Trap -> 2.0 *. l /. h | Backward_euler -> l /. h in
        let v_prev_term =
          match integ with Trap -> state.ind_v.(si) | Backward_euler -> 0.0
        in
        res.(br) <- v -. (k *. (ibr -. state.ind_i.(si))) +. v_prev_term;
        add_jac jac br i1 1.0;
        add_jac jac br i2 (-1.0);
        jac.(br).(br) <- jac.(br).(br) -. k
    end
    | IV { ip; inn; wave; br; sv } ->
      let ibr = x.(br) in
      add_res res ip ibr;
      add_res res inn (-.ibr);
      add_jac jac ip br 1.0;
      add_jac jac inn br (-1.0);
      res.(br) <- v_at x ip -. v_at x inn -. src_value mode wave sv;
      add_jac jac br ip 1.0;
      add_jac jac br inn (-1.0)
    | II { ip; inn; wave; sv } ->
      let i = src_value mode wave sv in
      add_res res ip i;
      add_res res inn (-.i)
    | ID { ip; inn; p } ->
      let i, g = Device.diode_iv p (v_at x ip -. v_at x inn) in
      stamp_nonlinear res jac ip inn i g
    | ITD { ip; inn; p } ->
      let i, g = Device.tunnel_iv p (v_at x ip -. v_at x inn) in
      stamp_nonlinear res jac ip inn i g
    | INL { ip; inn; f; df } ->
      let v = v_at x ip -. v_at x inn in
      let i = f v in
      let g =
        match df with
        | Some df -> df v
        | None ->
          let h = 1e-6 *. (1.0 +. Float.abs v) in
          (f (v +. h) -. f (v -. h)) /. (2.0 *. h)
      in
      stamp_nonlinear res jac ip inn i g
    | IM { nd; ng; ns; p } ->
      let vg = v_at x ng and vd = v_at x nd and vs = v_at x ns in
      let lin = Device.mos_iv p ~vgs:(vg -. vs) ~vds:(vd -. vs) in
      (* drain current enters the drain terminal and leaves the source *)
      add_res res nd lin.id;
      add_res res ns (-.lin.id);
      (* d id: vgs = vg - vs, vds = vd - vs *)
      add_jac jac nd ng lin.gm;
      add_jac jac nd nd lin.gds;
      add_jac jac nd ns (-.(lin.gm +. lin.gds));
      add_jac jac ns ng (-.lin.gm);
      add_jac jac ns nd (-.lin.gds);
      add_jac jac ns ns (lin.gm +. lin.gds)
    | IQ { nc; nb; ne; p } ->
      let vb = v_at x nb and vc = v_at x nc and ve = v_at x ne in
      let lin = Device.bjt_iv p ~vbe:(vb -. ve) ~vbc:(vb -. vc) in
      let ie = -.(lin.ic +. lin.ib) in
      add_res res nc lin.ic;
      add_res res nb lin.ib;
      add_res res ne ie;
      (* chain rule: vbe = vb - ve, vbc = vb - vc *)
      let dic_dvb = lin.dic_dvbe +. lin.dic_dvbc in
      let dic_dvc = -.lin.dic_dvbc in
      let dic_dve = -.lin.dic_dvbe in
      let dib_dvb = lin.dib_dvbe +. lin.dib_dvbc in
      let dib_dvc = -.lin.dib_dvbc in
      let dib_dve = -.lin.dib_dvbe in
      add_jac jac nc nb dic_dvb;
      add_jac jac nc nc dic_dvc;
      add_jac jac nc ne dic_dve;
      add_jac jac nb nb dib_dvb;
      add_jac jac nb nc dib_dvc;
      add_jac jac nb ne dib_dve;
      add_jac jac ne nb (-.(dic_dvb +. dib_dvb));
      add_jac jac ne nc (-.(dic_dvc +. dib_dvc));
      add_jac jac ne ne (-.(dic_dve +. dib_dve))
  done

