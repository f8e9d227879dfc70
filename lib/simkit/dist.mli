(** Probability distributions used by workload generators, timing models
    and fault-arrival processes.

    Every sampler takes the PRNG stream explicitly so that call sites
    document which stream they consume. *)

type t =
  | Constant of float
  | Uniform of float * float  (** [Uniform (lo, hi)] *)
  | Exponential of float  (** [Exponential mean] (not rate) *)
  | Normal of float * float  (** [Normal (mu, sigma)] *)
  | Lognormal of float * float  (** [Lognormal (mu, sigma)] of underlying normal *)
  | Weibull of float * float  (** [Weibull (shape, scale)] *)
  | Pareto of float * float  (** [Pareto (alpha, xmin)] *)
  | Erlang of int * float  (** [Erlang (k, mean_per_stage)] *)
  | Mixture of (float * t) list  (** weighted mixture, weights need not sum to 1 *)

val sample : Prng.t -> t -> float
(** Draw one value. *)

val sample_positive : Prng.t -> t -> float
(** Like {!sample} but clamped below at [0.]. *)

val mean : t -> float
(** Analytic mean (mixtures: weighted; Pareto with [alpha <= 1]: [infinity]). *)

val exponential : Prng.t -> mean:float -> float
(** Direct exponential sampler, used by Poisson arrival processes. *)

val normal : Prng.t -> mu:float -> sigma:float -> float
(** Direct Box-Muller sampler. *)

val zipf : Prng.t -> n:int -> s:float -> int
(** Zipf-distributed rank in [\[1, n\]] with exponent [s] (by inversion on
    the exact CDF; [n] is expected to be modest, e.g. cluster counts).
    [zipf rng ~n ~s] is [zipf_sample rng (zipf_table ~n ~s)]. *)

type zipf_table
(** The cumulative weights of a Zipf distribution, immutable once built
    (safe to share across domains). *)

val zipf_table : n:int -> s:float -> zipf_table
(** Cost: [n] calls to [**] and one [n]-float array.  Build it once per
    [(n, s)] when sampling repeatedly.
    @raise Invalid_argument when [n <= 0]. *)

val zipf_sample : Prng.t -> zipf_table -> int
(** One rank, drawing exactly one {!Prng.float} like {!zipf} and
    returning the same rank for the same draw.  O(log n).  It allocates
    what that one draw allocates (the boxed [int64] PRNG state, 8 words
    with OCaml 5.1) and nothing more, whatever [n]. *)

val poisson : Prng.t -> mean:float -> int
(** Poisson-distributed count (Knuth for small means, normal approximation
    above 50). *)
