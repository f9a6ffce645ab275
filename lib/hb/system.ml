module Cx = Numerics.Cx
module Linalg = Numerics.Linalg
module Kernel = Numerics.Kernel
module Trig = Numerics.Trig_tables
module Circuit = Spice.Circuit
module Device = Spice.Device
module Wave = Spice.Wave
module Err = Resilience.Oshil_error

let two_pi = 2.0 *. Float.pi

type nl_dev = {
  np : int;  (* -1 = ground *)
  nn : int;
  f : float -> float;
  df : float -> float;
}

type branch =
  | Ind of { bp : int; bn : int; l : float }
  | Vsrc of { bp : int; bn : int; wave : Wave.t }

type t = {
  node_names : string array;
  n_nodes : int;
  branches : branch array;
  n_unk : int;
  k_max : int;
  samples : int;
  resistors : (int * int * float) array;  (* p, n, conductance *)
  capacitors : (int * int * float) array;
  isources : (int * int * Wave.t) array;
  nls : nl_dev array;
}

let k_max t = t.k_max
let samples t = t.samples
let node_names t = t.node_names

(* slots per unknown: DC + (Re, Im) per harmonic *)
let nh t = (2 * t.k_max) + 1
let size t = t.n_unk * nh t
let idx t i h = (i * nh t) + h

let unsupported name what =
  Err.raise_ Spice ~phase:"hb" Parse_failure
    (Printf.sprintf "device %s (%s) is not supported by harmonic balance" name
       what)
    ~remedy:"use transient analysis, or model the device as a Nonlinear_cs"

let compile ?(k_max = 7) ?(samples = 1024) circuit =
  if k_max < 1 then invalid_arg "Hb.System.compile: k_max must be >= 1";
  if samples < 4 * k_max || samples < 8 then
    invalid_arg "Hb.System.compile: samples must be >= max 8 (4 * k_max)";
  let node_names = Array.of_list (Circuit.node_names circuit) in
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i nm -> Hashtbl.replace tbl nm i) node_names;
  let node nm = if Circuit.is_ground nm then -1 else Hashtbl.find tbl nm in
  let rs = ref [] and cs = ref [] and is = ref [] in
  let nls = ref [] and brs = ref [] in
  List.iter
    (fun d ->
      match d with
      | Device.Resistor { name; n1; n2; r } ->
        if r = 0.0 then
          Err.raise_ Spice ~phase:"hb" Parse_failure
            (Printf.sprintf "resistor %s has zero resistance" name)
            ~remedy:"use a voltage source for an ideal short"
        else rs := (node n1, node n2, 1.0 /. r) :: !rs
      | Device.Capacitor { n1; n2; c; _ } -> cs := (node n1, node n2, c) :: !cs
      | Device.Inductor { n1; n2; l; _ } ->
        brs := Ind { bp = node n1; bn = node n2; l } :: !brs
      | Device.Vsource { np; nn; wave; _ } ->
        brs := Vsrc { bp = node np; bn = node nn; wave } :: !brs
      | Device.Isource { np; nn; wave; _ } ->
        is := (node np, node nn, wave) :: !is
      | Device.Diode { np; nn; p; _ } ->
        nls :=
          {
            np = node np;
            nn = node nn;
            f = (fun v -> fst (Device.diode_iv p v));
            df = (fun v -> snd (Device.diode_iv p v));
          }
          :: !nls
      | Device.Tunnel_diode { np; nn; p; _ } ->
        nls :=
          {
            np = node np;
            nn = node nn;
            f = (fun v -> fst (Device.tunnel_iv p v));
            df = (fun v -> snd (Device.tunnel_iv p v));
          }
          :: !nls
      | Device.Nonlinear_cs { np; nn; f; df; _ } ->
        let df =
          match df with
          | Some d -> d
          | None ->
            fun v ->
              let h = 1e-6 *. (1.0 +. Float.abs v) in
              (f (v +. h) -. f (v -. h)) /. (2.0 *. h)
        in
        nls := { np = node np; nn = node nn; f; df } :: !nls
      | Device.Bjt { name; _ } -> unsupported name "bjt"
      | Device.Mosfet { name; _ } -> unsupported name "mosfet")
    (Circuit.devices circuit);
  let branches = Array.of_list (List.rev !brs) in
  {
    node_names;
    n_nodes = Array.length node_names;
    branches;
    n_unk = Array.length node_names + Array.length branches;
    k_max;
    samples;
    resistors = Array.of_list (List.rev !rs);
    capacitors = Array.of_list (List.rev !cs);
    isources = Array.of_list (List.rev !is);
    nls = Array.of_list (List.rev !nls);
  }

let osc_node t =
  let pick { np; nn; _ } = if np >= 0 then Some np else if nn >= 0 then Some nn else None in
  Array.fold_left
    (fun acc d -> match acc with Some _ -> acc | None -> pick d)
    None t.nls

(* --- source spectra -------------------------------------------------- *)

(* Harmonic coefficients of an independent-source waveform at base
   frequency [f0], in the [x(θ) = X_0 + Σ 2 Re (X_k e^{jkθ})]
   convention. [Sine] sources must sit on a harmonic of the base;
   [Pulse]/[Pwl] keep only their DC value (harmonic balance is a
   steady-state analysis — startup kicks vanish by design). *)
let spectrum_of_wave ~f0 ~k_max ~what wave =
  let spec = Array.make (k_max + 1) Cx.zero in
  (match wave with
  | Wave.Dc v -> spec.(0) <- Cx.of_float v
  | Wave.Sine { offset; ampl; freq; phase; delay } ->
    let kf = freq /. f0 in
    let k = int_of_float (Float.round kf) in
    if k < 1 || Float.abs (kf -. float_of_int k) > 1e-6 *. Float.max 1.0 kf then
      Err.raise_ Spice ~phase:"hb" Parse_failure
        (Printf.sprintf
           "source %s at %.6g Hz is not a harmonic of the base frequency %.6g \
            Hz" what freq f0)
        ~remedy:"make source frequencies integer multiples of the base"
    else if k > k_max then
      Err.raise_ Spice ~phase:"hb" Parse_failure
        (Printf.sprintf "source %s sits on harmonic %d but k_max = %d" what k
           k_max)
        ~remedy:"raise k_max to cover every source harmonic"
    else begin
      (* offset + ampl sin(2π f (t - delay) + phase)
         = offset + ampl cos(kθ + phase - 2π f delay - π/2) *)
      let psi = phase -. (two_pi *. freq *. delay) -. (Float.pi /. 2.0) in
      spec.(0) <- Cx.of_float offset;
      spec.(k) <- Cx.polar (ampl /. 2.0) psi
    end
  | (Wave.Pulse _ | Wave.Pwl _) as w -> spec.(0) <- Cx.of_float (Wave.dc_value w));
  spec

(* --- linear assembly ------------------------------------------------- *)

type assembled = {
  sys : t;
  omega0 : float;
  a : Linalg.mat;  (* constant linear stamps *)
  b : float array;  (* source vector: residual = a x + NL(x) - b *)
}

let system asm = asm.sys
let omega0 asm = asm.omega0

(* Admittance (or unit-coupling) entry between equation row [row] and
   variable column [col] at harmonic [k], with sign [s]: the real DC
   entry at [k = 0], else the 2x2 rotation block of [yre + j yim]. *)
let stamp a t ~k ~row ~col ~s yre yim =
  if k = 0 then begin
    let r0 = idx t row 0 and c0 = idx t col 0 in
    a.(r0).(c0) <- a.(r0).(c0) +. (s *. yre)
  end
  else begin
    let r1 = idx t row ((2 * k) - 1) and r2 = idx t row (2 * k) in
    let c1 = idx t col ((2 * k) - 1) and c2 = idx t col (2 * k) in
    a.(r1).(c1) <- a.(r1).(c1) +. (s *. yre);
    a.(r1).(c2) <- a.(r1).(c2) -. (s *. yim);
    a.(r2).(c1) <- a.(r2).(c1) +. (s *. yim);
    a.(r2).(c2) <- a.(r2).(c2) +. (s *. yre)
  end

(* Two-terminal admittance between nodes p and n at harmonic k. *)
let stamp_pair a t ~k p n yre yim =
  if p >= 0 then stamp a t ~k ~row:p ~col:p ~s:1.0 yre yim;
  if p >= 0 && n >= 0 then begin
    stamp a t ~k ~row:p ~col:n ~s:(-1.0) yre yim;
    stamp a t ~k ~row:n ~col:p ~s:(-1.0) yre yim
  end;
  if n >= 0 then stamp a t ~k ~row:n ~col:n ~s:1.0 yre yim

let add_spec t vec u s spec =
  vec.(idx t u 0) <- vec.(idx t u 0) +. (s *. Cx.re spec.(0));
  for k = 1 to t.k_max do
    let r1 = idx t u ((2 * k) - 1) and r2 = idx t u (2 * k) in
    vec.(r1) <- vec.(r1) +. (s *. Cx.re spec.(k));
    vec.(r2) <- vec.(r2) +. (s *. Cx.im spec.(k))
  done

(* The capacitor and inductor stamps at [omega]: the only part of the
   residual that depends on the base frequency, and linearly. In their
   own pass the inductor stamps come before the branch couplings, which
   touch other entries, so [assemble]'s sums are as they were. *)
let stamp_reactive a t ~omega =
  Array.iter
    (fun (p, nn, c) ->
      for k = 1 to t.k_max do
        stamp_pair a t ~k p nn 0.0 (float_of_int k *. omega *. c)
      done)
    t.capacitors;
  Array.iteri
    (fun j br ->
      match br with
      | Ind { l; _ } ->
        (* V - jkω L I = 0; at DC the inductor is a short *)
        let u = t.n_nodes + j in
        for k = 1 to t.k_max do
          stamp a t ~k ~row:u ~col:u ~s:(-1.0) 0.0 (float_of_int k *. omega *. l)
        done
      | Vsrc _ -> ())
    t.branches

let assemble t ~omega0 =
  if not (omega0 > 0.0) then
    invalid_arg "Hb.System.assemble: omega0 must be > 0";
  let f0 = omega0 /. two_pi in
  let n = size t in
  let a = Linalg.create n n and b = Array.make n 0.0 in
  Array.iter
    (fun (p, nn, g) ->
      for k = 0 to t.k_max do
        stamp_pair a t ~k p nn g 0.0
      done)
    t.resistors;
  stamp_reactive a t ~omega:omega0;
  Array.iteri
    (fun j br ->
      let u = t.n_nodes + j in
      let bp, bn = match br with Ind { bp; bn; _ } | Vsrc { bp; bn; _ } -> (bp, bn) in
      for k = 0 to t.k_max do
        (* KCL: the branch current leaves bp and enters bn... *)
        if bp >= 0 then stamp a t ~k ~row:bp ~col:u ~s:1.0 1.0 0.0;
        if bn >= 0 then stamp a t ~k ~row:bn ~col:u ~s:(-1.0) 1.0 0.0;
        (* ...and the branch equation pins V_bp - V_bn per harmonic *)
        if bp >= 0 then stamp a t ~k ~row:u ~col:bp ~s:1.0 1.0 0.0;
        if bn >= 0 then stamp a t ~k ~row:u ~col:bn ~s:(-1.0) 1.0 0.0
      done;
      match br with
      | Ind _ -> ()
      | Vsrc { wave; _ } ->
        let spec = spectrum_of_wave ~f0 ~k_max:t.k_max ~what:"vsource" wave in
        add_spec t b u 1.0 spec)
    t.branches;
  Array.iter
    (fun (p, nn, wave) ->
      let spec = spectrum_of_wave ~f0 ~k_max:t.k_max ~what:"isource" wave in
      (* SPICE convention: the current is pulled out of np, pushed into
         nn, so it appears as -J in np's source slot and +J in nn's *)
      if p >= 0 then add_spec t b p (-1.0) spec;
      if nn >= 0 then add_spec t b nn 1.0 spec)
    t.isources;
  { sys = t; omega0; a; b }

let omega_column t =
  let n = size t in
  let d = Linalg.create n n in
  stamp_reactive d t ~omega:1.0;
  fun ~x ->
  Array.init n (fun i ->
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (d.(i).(j) *. x.(j))
      done;
      !acc)

(* --- nonlinear devices: time-domain eval + conversion matrices ------- *)

let nl_stamp t ~x ~jac ~res { np; nn; f; df } =
  let s = t.samples and km = t.k_max in
  let fs = float_of_int s in
  let comp i h = if i >= 0 then x.(idx t i h) else 0.0 in
  Kernel.with_bufs ~len:s 3 @@ fun bufs ->
  let v = bufs.(0) and cur = bufs.(1) and g = bufs.(2) in
  (* synthesize the branch voltage over one period *)
  let dc = comp np 0 -. comp nn 0 in
  Array.fill v 0 s dc;
  for k = 1 to km do
    let cos_t, sin_t = Trig.get ~points:s ~k in
    let vre = 2.0 *. (comp np ((2 * k) - 1) -. comp nn ((2 * k) - 1)) in
    let vim = 2.0 *. (comp np (2 * k) -. comp nn (2 * k)) in
    for smp = 0 to s - 1 do
      v.(smp) <- v.(smp) +. (vre *. cos_t.(smp)) -. (vim *. sin_t.(smp))
    done
  done;
  for smp = 0 to s - 1 do
    cur.(smp) <- f v.(smp);
    g.(smp) <- df v.(smp)
  done;
  (* current spectrum F_k and conductance spectrum G_l (l up to 2K for
     the Toeplitz conversion blocks) *)
  let project buf l =
    let cos_t, sin_t = Trig.get ~points:s ~k:l in
    let re, im = Kernel.dot2 ~n:s buf ~cos_t ~sin_t in
    Cx.make (re /. fs) (im /. fs)
  in
  let fk = Array.init (km + 1) (fun k -> project cur k) in
  let gl = Array.init ((2 * km) + 1) (fun l -> project g l) in
  let gat l = if l >= 0 then gl.(l) else Cx.conj gl.(-l) in
  (* KCL residual: the device current leaves np and enters nn *)
  let add_res i s0 =
    if i >= 0 then begin
      res.(idx t i 0) <- res.(idx t i 0) +. (s0 *. Cx.re fk.(0));
      for k = 1 to km do
        let r1 = idx t i ((2 * k) - 1) and r2 = idx t i (2 * k) in
        res.(r1) <- res.(r1) +. (s0 *. Cx.re fk.(k));
        res.(r2) <- res.(r2) +. (s0 *. Cx.im fk.(k))
      done
    end
  in
  add_res np 1.0;
  add_res nn (-1.0);
  (* conversion-matrix Jacobian block between equation node [row] and
     variable node [col]:
       dF_k/dV_0       = G_k
       dF_k/d(Re V_m)  = G_{k-m} + G_{k+m}
       dF_k/d(Im V_m)  = j (G_{k-m} - G_{k+m})
     with G_{-l} = conj G_l; the DC row is the k = 0 specialisation. *)
  let block row col s0 =
    if row >= 0 && col >= 0 then begin
      let r0 = idx t row 0 in
      let add r c v = jac.(r).(c) <- jac.(r).(c) +. (s0 *. v) in
      add r0 (idx t col 0) (Cx.re gl.(0));
      for m = 1 to km do
        add r0 (idx t col ((2 * m) - 1)) (2.0 *. Cx.re gl.(m));
        add r0 (idx t col (2 * m)) (2.0 *. Cx.im gl.(m))
      done;
      for k = 1 to km do
        let r1 = idx t row ((2 * k) - 1) and r2 = idx t row (2 * k) in
        add r1 (idx t col 0) (Cx.re gl.(k));
        add r2 (idx t col 0) (Cx.im gl.(k));
        for m = 1 to km do
          let gsum = Cx.add (gat (k - m)) (gat (k + m)) in
          let gdif = Cx.sub (gat (k - m)) (gat (k + m)) in
          add r1 (idx t col ((2 * m) - 1)) (Cx.re gsum);
          add r2 (idx t col ((2 * m) - 1)) (Cx.im gsum);
          (* j gdif: Re = -Im gdif, Im = Re gdif *)
          add r1 (idx t col (2 * m)) (-.Cx.im gdif);
          add r2 (idx t col (2 * m)) (Cx.re gdif)
        done
      done
    end
  in
  block np np 1.0;
  block np nn (-1.0);
  block nn np (-1.0);
  block nn nn 1.0

let eval asm ~x ~jac ~res =
  let t = asm.sys in
  let n = size t in
  for i = 0 to n - 1 do
    let ai = asm.a.(i) in
    Array.blit ai 0 jac.(i) 0 n;
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc := !acc +. (ai.(j) *. x.(j))
    done;
    res.(i) <- !acc -. asm.b.(i)
  done;
  Array.iter (fun d -> nl_stamp t ~x ~jac ~res d) t.nls

let spectra t ~x =
  Array.init t.n_nodes (fun i ->
      Array.init (t.k_max + 1) (fun k ->
          if k = 0 then Cx.of_float x.(idx t i 0)
          else Cx.make x.(idx t i ((2 * k) - 1)) x.(idx t i (2 * k))))
