(** Extension experiment X1: the paper's flow on a modern 2.4 GHz CMOS
    cross-coupled VCO (the topology §I motivates but §IV does not
    evaluate). Extraction, natural-oscillation validation against the
    device-level transient, 3rd-SHIL lock range, and a time-domain lock
    spot check. *)

val run : validate:bool -> Output.t
(** [validate] runs the device-level transients: the natural
    oscillation and two 1500-cycle lock probes (band centre, one lock
    range above the band). *)
