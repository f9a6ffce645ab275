(** Small dense linear algebra: the workhorse of the MNA circuit solver.

    Matrices are dense [float array array] in row-major layout; all
    operations allocate fresh results except the two in-place LU kernels,
    which write into caller-owned buffers. Sizes are
    the handful-of-nodes systems that lumped circuits produce, so no blocking
    or pivot-growth heroics are attempted beyond partial pivoting. *)

type mat = float array array

val create : int -> int -> mat
(** [create rows cols] is a zero matrix. *)

val identity : int -> mat
val copy : mat -> mat
val dims : mat -> int * int

val mat_vec : mat -> float array -> float array
val mat_mul : mat -> mat -> mat

val vec_add : float array -> float array -> float array
val vec_sub : float array -> float array -> float array
val vec_scale : float -> float array -> float array
val dot : float array -> float array -> float
val norm_inf : float array -> float
val norm2 : float array -> float

exception Singular
(** Raised by factorisations and solvers when a pivot underflows. *)

type lu
(** A packed LU factorisation with partial pivoting. *)

val lu_factor : mat -> lu
(** [lu_factor a] factorises a copy of [a] with {!lu_factor_in_place}.
    Raises {!Singular} if a pivot magnitude falls below [1e-300]. *)

val lu_solve : lu -> float array -> float array
(** [lu_solve f b] is a fresh solution of [a x = b], by {!lu_solve_into}. *)

(** {2 In-place kernels}

    The elimination loops behind {!lu_factor} and {!lu_solve}: they
    write only into the buffers the caller passes, and allocate
    nothing. Results are bit-identical to the allocating versions. *)

val lu_factor_in_place : mat -> int array -> unit
(** [lu_factor_in_place m perm] overwrites [m] with its packed LU factors
    (rows of [m] are swapped, not copied) and [perm] (length = rows of
    [m]) with the row permutation.
    Raises {!Singular} as {!lu_factor} does, leaving [m] and [perm]
    partly overwritten. *)

val lu_solve_into : mat -> int array -> float array -> float array -> unit
(** [lu_solve_into m perm b x] writes into [x] the solution of [a x = b],
    where [m] and [perm] hold the factors {!lu_factor_in_place} left.
    Reads [m], [perm] and [b] only; [x] must not be [b]. *)

(** {2 Solvers} *)

val solve : mat -> float array -> float array
(** [solve a b] solves [a x = b] by LU with partial pivoting. *)

val solve_complex : Cx.t array array -> Cx.t array -> Cx.t array
(** Complex Gaussian elimination with partial pivoting (by modulus); used by
    small-signal AC analysis. *)

val residual : mat -> float array -> float array -> float
(** [residual a x b] is [||a x - b||_inf]. *)
