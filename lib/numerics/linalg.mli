(** Small dense linear algebra: the workhorse of the MNA circuit solver.

    Matrices are dense [float array array] in row-major layout. {!solve}
    allocates its result; the two in-place LU kernels write into
    caller-owned buffers. Sizes are
    the handful-of-nodes systems that lumped circuits produce, so no blocking
    or pivot-growth heroics are attempted beyond partial pivoting. *)

type mat = float array array

val create : int -> int -> mat
(** [create rows cols] is a zero matrix. *)

val norm_inf : float array -> float

exception Singular
(** Raised by factorisations and solvers when a pivot underflows. *)

(** {2 In-place kernels}

    The elimination loops behind {!solve}: they write only into the
    buffers the caller passes, and allocate nothing. Results are
    bit-identical to {!solve}. *)

val lu_factor_in_place : mat -> int array -> unit
(** [lu_factor_in_place m perm] overwrites [m] with its packed LU factors
    (rows of [m] are swapped, not copied) and [perm] (length = rows of
    [m]) with the row permutation.
    Raises {!Singular} if a pivot magnitude falls below [1e-300], leaving
    [m] and [perm] partly overwritten. *)

val lu_solve_into : mat -> int array -> float array -> float array -> unit
(** [lu_solve_into m perm b x] writes into [x] the solution of [a x = b],
    where [m] and [perm] hold the factors {!lu_factor_in_place} left.
    Reads [m], [perm] and [b] only; [x] must not be [b]. *)

(** {2 Solvers} *)

val solve : mat -> float array -> float array
(** [solve a b] solves [a x = b] by LU with partial pivoting on a copy
    of [a], with the two kernels above. Raises {!Singular}. *)
