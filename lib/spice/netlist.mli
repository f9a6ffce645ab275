(** Text netlists in a SPICE-like dialect.

    One device per line; [*] or [;] start comments; blank lines and a
    trailing [.end] are ignored; everything is case-insensitive except
    node names. Values accept the SPICE suffixes
    [f p n u m k meg g t] (e.g. [100u], [1.5k], [2meg]).

    Supported cards:
    {v
    Rname n1 n2 value
    Cname n1 n2 value [IC=v0]
    Lname n1 n2 value [IC=i0]
    Vname n+ n- DC value
    Vname n+ n- SIN(offset ampl freq [delay [phase_deg]])
    Vname n+ n- PULSE(v1 v2 delay rise fall width [period])
    Vname n+ n- PWL(t1 v1 t2 v2 ...)
    Iname n+ n- <same sources as V>
    Dname n+ n- [IS=..] [N=..]
    Qname nc nb ne [IS=..] [BF=..] [BR=..]
    TDname n+ n- [IS=..] [R0=..] [V0=..] [M=..] [ETA=..]
    v}
    The first letter(s) of the device name select the kind (R, C, L, V,
    I, D, Q, TD). *)

type error = { line : int; message : string }

(* dsa: allow unused-export — test hook: the SPICE suffix table is tested value by value *)
val parse_value : string -> (float, string) result
(** SPICE number with optional suffix: [parse_value "100u" = Ok 1e-4]. *)

val parse_string : string -> (Circuit.t, error) result
val parse_file : string -> (Circuit.t, error) result

val to_string : Circuit.t -> string
(** Round-trippable rendering (behavioural sources are emitted as
    comments since they have no textual form). *)
