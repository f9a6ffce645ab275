(** Typed analysis requests: the one description of "a unit of oshil
    work" shared by the CLI, the batch runner and the [oshil serve]
    daemon.

    Wire form is a single-line JSON object:
    {v
      {"id":"r1","op":"shil","deadline_s":5,
       "params":{"osc":"tanh","n":3,"vi":0.03}}
    v}
    [id] is echoed in the response; [deadline_s] (optional) is the
    request's wall-clock budget; [params] depends on [op]. *)

type osc_spec =
  | Builtin of string
      (** a cell name or alias, as {!Check.Cell.of_name} reads it *)
  | Custom of { g0 : float; isat : float; r : float; fc : float; q : float }
      (** inline tanh cell, same defaults as the CLI [--g0] family *)

type hb_mode =
  | Hb_osc  (** autonomous steady state (oscprobe) only *)
  | Hb_injected of float  (** solve the locked spectrum at one [f_inj] *)
  | Hb_lockrange  (** march/bisect the HB lock band *)

type payload =
  | Ping  (** liveness probe; report is ["pong"] *)
  | Sleep of { s : float }
      (** burn [s] seconds of wall clock, checking the deadline
          cooperatively — the protocol's deterministic stand-in for a
          long solve (tests, load probes) *)
  | Natural of { osc : osc_spec }
      (** natural oscillation amplitude (§II); report is the
          [oshil natural] text *)
  | Shil of {
      osc : osc_spec;
      n : int;
      vi : float;
      reduced : bool;
      finj : float option;
    }  (** full SHIL analysis; report is the [oshil shil] text *)
  | Lockrange of { osc : osc_spec; n : int; vi : float; validate : bool }
      (** the predicted lock range; with [validate], also the lock edges
          found by transient bisection on the cell's injected netlist
          (slow). Report is the [oshil lockrange] text. *)
  | Hb of {
      osc : osc_spec;
      n : int;
      vi : float;
      k_max : int;
      samples : int;
      mode : hb_mode;
    }
      (** multi-harmonic harmonic-balance analysis over the MNA
          system; report is the [oshil hb] text. Wire params: [kmax],
          [samples], and either [finj] (injected-tone solve) or
          [lockrange:true] — never both. *)
  | Dcsweep of { osc : osc_spec }
      (** the cell's [i = f(v)] table; report is the [oshil dcsweep]
          CSV *)
  | Transient of {
      osc : osc_spec;
      n : int;
      vi : float;
      cycles : float;
      finj : float option;
    }
      (** transient of the cell's netlist over [cycles] tank periods,
          with the injected tone when [finj] is given; report is the
          [oshil transient] CSV *)
  | Scenario of { name : string; text : string }
      (** one [.scn] scenario, inline; report is the [oshil batch]
          per-file JSON entry *)
  | Lint of { name : string; text : string }
      (** scenario or netlist (by [name]'s extension); report is the
          [oshil lint --json] per-file entry *)
  | Netlist_op of { name : string; text : string }
      (** operating point of an inline netlist; report is the
          [oshil netlist] op text *)
  | Netlist_tran of {
      name : string;
      text : string;
      t_stop : float;
      dt : float;
      probes : string list;
    }  (** transient of an inline netlist; report is the CSV *)
  | Health  (** answered inline by the server, locally by the CLI *)
  | Stats  (** likewise; the server adds queue/worker counters *)

type t = { id : string; deadline_s : float option; payload : payload }

val custom :
  ?isat:float -> ?r:float -> ?fc:float -> ?q:float -> float -> osc_spec
(** [custom g0]: a custom tanh cell, the unset fields at their defaults
    (isat = 1 mA, r = 1 kOhm, fc = 1 MHz, q = 10) on the wire and in the
    CLI alike. *)

val hb_mode : lockrange:bool -> float option -> hb_mode option
(** The hb mode of a [lockrange] flag and an [finj]; [None] when both
    are given, since they name different solves. *)

val op_name : payload -> string
(** Stable wire name of the operation, e.g. ["netlist-tran"]. *)

val of_string : string -> (t, string) result
(** Parse one wire line. Total: malformed envelopes come back as
    [Error] with a message naming the offending field. *)

val to_string : t -> string
(** Single-line wire form (deterministic bytes). *)
