module Interp = Numerics.Interp
module Kernel = Numerics.Kernel

type batch_fn = src:float array -> dst:float array -> n:int -> unit

(* [key], when present, is a canonical identity string for caching: two
   values with equal keys must compute identical currents for every
   input. Closures built from unknown functions get [None] and are
   simply never cached.

   [batch], when present, must be bit-identical to [f] mapped over the
   slice (same operations, same association); [batch_fast] may trade the
   last ulps for speed and is only reachable through [eval_batch_fast],
   which the tolerance-grade reduced paths use. Both must support
   [src == dst]. [odd] declares the mathematical symmetry
   [f (-. v) = -. f v], which licenses the half-period quadrature
   reduction; it is metadata about the ideal function, not a bitwise
   claim. *)
type t = {
  name : string;
  key : string option;
  f : float -> float;
  df : float -> float;
  batch : batch_fn option;
  batch_fast : batch_fn option;
  odd : bool;
}

let numeric_df f v =
  let h = 1e-6 *. (1.0 +. Float.abs v) in
  (f (v +. h) -. f (v -. h)) /. (2.0 *. h)

let make ?(name = "custom") ?key ?df ?batch ?(odd = false) f =
  {
    name;
    key;
    f;
    df = (match df with Some d -> d | None -> numeric_df f);
    batch;
    batch_fast = None;
    odd;
  }

let name t = t.name
let cache_key t = t.key
let eval t v = t.f v
let deriv t v = t.df v
let odd t = t.odd

let check_slice op ?n ~src ~dst () =
  let n = match n with Some n -> n | None -> Array.length src in
  if n < 0 || n > Array.length src || n > Array.length dst then
    invalid_arg ("Nonlinearity." ^ op);
  n

let scalar_batch f ~src ~dst ~n =
  for i = 0 to n - 1 do
    dst.(i) <- f src.(i)
  done

let eval_batch ?n t ~src ~dst =
  let n = check_slice "eval_batch" ?n ~src ~dst () in
  match t.batch with
  | Some b when Kernel.batch_enabled () -> b ~src ~dst ~n
  | Some _ | None -> scalar_batch t.f ~src ~dst ~n

let eval_batch_fast ?n t ~src ~dst =
  let n = check_slice "eval_batch_fast" ?n ~src ~dst () in
  match (t.batch_fast, t.batch) with
  | Some b, _ when Kernel.batch_enabled () -> b ~src ~dst ~n
  | _, Some b when Kernel.batch_enabled () -> b ~src ~dst ~n
  | _ -> scalar_batch t.f ~src ~dst ~n

let neg_tanh ~g0 ~isat =
  if g0 <= 0.0 || isat <= 0.0 then invalid_arg "Nonlinearity.neg_tanh";
  let f v = -.isat *. tanh (g0 *. v /. isat) in
  let df v =
    let c = cosh (g0 *. v /. isat) in
    -.g0 /. (c *. c)
  in
  let key = Some (Printf.sprintf "neg_tanh(g0=%h,isat=%h)" g0 isat) in
  {
    name = "neg_tanh";
    key;
    f;
    df;
    batch = Some (fun ~src ~dst ~n -> Kernel.neg_tanh_batch ~g0 ~isat ~src ~dst ~n);
    batch_fast =
      Some (fun ~src ~dst ~n -> Kernel.neg_tanh_batch_fast ~g0 ~isat ~src ~dst ~n);
    odd = true;
  }

let cubic ~g1 ~g3 =
  let f v = (-.g1 *. v) +. (g3 *. v *. v *. v) in
  let df v = -.g1 +. (3.0 *. g3 *. v *. v) in
  let key = Some (Printf.sprintf "cubic(g1=%h,g3=%h)" g1 g3) in
  let batch ~src ~dst ~n =
    for i = 0 to n - 1 do
      let v = src.(i) in
      dst.(i) <- (-.g1 *. v) +. (g3 *. v *. v *. v)
    done
  in
  { name = "cubic"; key; f; df; batch = Some batch; batch_fast = None; odd = true }

type tunnel_model = {
  is : float;
  eta : float;
  vth : float;
  r0 : float;
  v0 : float;
  m : float;
}

(* Paper appendix §VI-C values (the same as Spice.Device.paper_tunnel;
   duplicated here so the core theory library stays independent of the
   circuit simulator). *)
let paper_tunnel =
  { is = 1e-12; eta = 1.0; vth = 0.025; r0 = 1000.0; v0 = 0.2; m = 2.0 }

(* Eqs. (11)-(13), written with the operations and association of
   Spice.Device.tunnel_iv so the currents agree bit for bit; the diode
   exponential is continued linearly above [x = 40] like the simulator's
   overflow-safe exp. *)
let tunnel_cap = 40.0

let tunnel_current { is; eta; vth; r0; v0; m } v =
  let powm = Float.pow (Float.abs (v /. v0)) m in
  let e = exp (-.powm) in
  let i_tun = v /. r0 *. e in
  let x = v /. (eta *. vth) in
  let ex =
    if x > tunnel_cap then exp tunnel_cap *. (1.0 +. (x -. tunnel_cap))
    else exp x
  in
  i_tun +. (is *. (ex -. 1.0))

let tunnel_conductance { is; eta; vth; r0; v0; m } v =
  let powm = Float.pow (Float.abs (v /. v0)) m in
  let e = exp (-.powm) in
  let g_tun = e /. r0 *. (1.0 -. (m *. powm)) in
  let x = v /. (eta *. vth) in
  let dex = if x > tunnel_cap then exp tunnel_cap else exp x in
  g_tun +. (is *. dex /. (eta *. vth))

(* [tunnel_current] fused over a slice: identical subexpressions in
   identical order, with the model's fields read once per slice. *)
let tunnel_batch { is; eta; vth; r0; v0; m } ~bias ~i0 ~src ~dst ~n =
  let nvt = eta *. vth in
  for idx = 0 to n - 1 do
    let v = bias +. src.(idx) in
    let powm = Float.pow (Float.abs (v /. v0)) m in
    let e = exp (-.powm) in
    let i_tun = v /. r0 *. e in
    let x = v /. nvt in
    let ex =
      if x > tunnel_cap then exp tunnel_cap *. (1.0 +. (x -. tunnel_cap))
      else exp x
    in
    dst.(idx) <- (i_tun +. (is *. (ex -. 1.0))) -. i0
  done

let tunnel_diode ?(model = paper_tunnel) ~bias () =
  (* the six fields and the bias fully determine the current, so every
     model is keyed and every model gets the fused loop *)
  let { is; eta; vth; r0; v0; m } = model in
  let key =
    Some
      (Printf.sprintf "tunnel(is=%h,eta=%h,vth=%h,r0=%h,v0=%h,m=%h,bias=%h)" is
         eta vth r0 v0 m bias)
  in
  let i0 = tunnel_current model bias in
  {
    name = "tunnel_diode";
    key;
    f = (fun v -> tunnel_current model (bias +. v) -. i0);
    df = (fun v -> tunnel_conductance model (bias +. v));
    batch = Some (fun ~src ~dst ~n -> tunnel_batch model ~bias ~i0 ~src ~dst ~n);
    batch_fast = None;
    odd = false;
  }

let of_table ?(name = "table") ~vs ~is () =
  let itp = Interp.pchip ~xs:vs ~ys:is in
  (* the sampled arrays fully determine the interpolant, so their bytes
     are a faithful identity; the digest keeps the key fixed-size *)
  let key =
    Some
      (Printf.sprintf "table(%s,%s)"
         (Digest.to_hex (Digest.string (Marshal.to_string (vs, is) [])))
         name)
  in
  {
    name;
    key;
    f = Interp.eval itp;
    df = Interp.eval_deriv itp;
    batch = Some (fun ~src ~dst ~n -> Interp.eval_batch ~n itp ~src ~dst);
    batch_fast = None;
    odd = false;
  }

let shift_bias t vb =
  let i0 = t.f vb in
  let wrap inner ~src ~dst ~n =
    for i = 0 to n - 1 do
      dst.(i) <- vb +. src.(i)
    done;
    inner ~src:dst ~dst ~n;
    for i = 0 to n - 1 do
      dst.(i) <- dst.(i) -. i0
    done
  in
  {
    name = t.name ^ "+bias";
    key = Option.map (fun k -> Printf.sprintf "bias(%s,vb=%h)" k vb) t.key;
    f = (fun v -> t.f (vb +. v) -. i0);
    df = (fun v -> t.df (vb +. v));
    batch = Option.map wrap t.batch;
    batch_fast = Option.map wrap t.batch_fast;
    (* a bias shift breaks odd symmetry in general *)
    odd = false;
  }

let scale_current t k =
  let wrap inner ~src ~dst ~n =
    inner ~src ~dst ~n;
    for i = 0 to n - 1 do
      dst.(i) <- k *. dst.(i)
    done
  in
  {
    name = t.name;
    key = Option.map (fun ky -> Printf.sprintf "scale(%s,k=%h)" ky k) t.key;
    f = (fun v -> k *. t.f v);
    df = (fun v -> k *. t.df v);
    batch = Option.map wrap t.batch;
    batch_fast = Option.map wrap t.batch_fast;
    (* current scaling preserves odd symmetry *)
    odd = t.odd;
  }

let sample t ~v_min ~v_max ~n =
  if n < 2 then invalid_arg "Nonlinearity.sample";
  let vs = Kernel.linspace v_min v_max n in
  (vs, Array.map t.f vs)
