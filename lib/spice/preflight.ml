(* Static pre-flight gate in front of the analysis entry points: a
   structurally bad circuit (floating island, V-source loop, zero-valued
   L/C, rank-deficient zero pattern) is rejected here with located
   diagnostics instead of surfacing as an opaque Newton divergence deep
   inside Op/Transient. *)

let src = Logs.Src.create "oshil.preflight" ~doc:"netlist pre-flight checks"

module Log = (val Logs.src_log src : Logs.LOG)

let view_device (d : Device.t) : Check.Netlist.device =
  match d with
  | Resistor { name; n1; n2; r } -> Check.Netlist.resistor ~name ~n1 ~n2 r
  | Capacitor { name; n1; n2; c; _ } -> Check.Netlist.capacitor ~name ~n1 ~n2 c
  | Inductor { name; n1; n2; l; _ } -> Check.Netlist.inductor ~name ~n1 ~n2 l
  | Vsource { name; np; nn; _ } -> Check.Netlist.vsource ~name ~np ~nn
  | Isource { name; np; nn; _ } -> Check.Netlist.isource ~name ~np ~nn
  | Diode { name; np; nn; _ }
  | Tunnel_diode { name; np; nn; _ }
  | Nonlinear_cs { name; np; nn; _ } ->
    Check.Netlist.two_terminal ~name ~np ~nn
  | Bjt { name; nc; nb; ne; _ } ->
    (* Ebers-Moll stamps couple all three junction-voltage pairs *)
    Check.Netlist.multi_terminal ~name ~nodes:[ nc; nb; ne ]
      ~conduction:[ (nc, nb); (nb, ne); (nc, ne) ]
      ~control:[]
  | Mosfet { name; nd; ng; ns; _ } ->
    (* the channel conducts drain-source; the gate draws no current but
       its voltage enters the drain/source KCL rows through gm *)
    Check.Netlist.multi_terminal ~name ~nodes:[ nd; ng; ns ]
      ~conduction:[ (nd, ns) ]
      ~control:[ (nd, ng); (ns, ng) ]

let view circuit = List.map view_device (Circuit.devices circuit)
let check circuit = Check.Netlist.check (view circuit)

type mode = Check.Diagnostic.gate_mode

let emit (d : Check.Diagnostic.t) =
  match d.severity with
  | Check.Diagnostic.Error | Check.Diagnostic.Warning ->
    Log.warn (fun m -> m "%a" Check.Diagnostic.pp d)
  | Check.Diagnostic.Info -> Log.info (fun m -> m "%a" Check.Diagnostic.pp d)

let gate ?(mode = `Enforce) circuit =
  match mode with
  | `Off -> ()
  | (`Enforce | `Warn) as mode ->
    Check.Diagnostic.gate ~mode ~emit (check circuit)
