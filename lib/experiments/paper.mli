(** The paper's evaluation as one list: every table and figure of the
    reproduction (Figs. 3–19, the §IV-A/§IV-B lock-range tables, the
    §IV speed row) plus the ablations A1–A3 and extensions X1–X3, in
    the paper's order. This is the only place the list is written down;
    [oshil experiments] runs it. *)

val run : fast:bool -> (Output.t -> unit) -> unit
(** [run ~fast yield] computes each output in turn and hands it to
    [yield] as soon as it is ready. The diff-pair and tunnel-diode
    sections run on their {!Api.Cells} rows. [fast] skips
    the transient lock searches: the tables keep their prediction side
    and the paper's reference numbers, and the F15/F19 state runs and
    the S1 speed rows are left out. *)
