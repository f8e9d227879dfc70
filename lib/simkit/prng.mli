(** Deterministic pseudo-random number generation.

    SplitMix64: fast, high-quality, and splittable, so every subsystem of
    the simulation can own an independent stream derived from one master
    seed.  All randomness in the repository flows through this module. *)

type t
(** A mutable PRNG stream. *)

val create : int64 -> t
(** [create seed] returns a fresh stream seeded with [seed]. *)

val split : t -> t
(** [split t] derives an independent stream from [t], advancing [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state (both copies then evolve
    independently but identically if used identically). *)

val derive : int64 -> int -> int64
(** [derive seed index] is a stateless per-index stream seed: a pure
    function of [(seed, index)], unlike {!split}, whose result depends
    on how often the parent was consumed before.  Shard/testbed [i] of a
    federation seeds its private stream with [derive master i], so the
    stream layout is invariant under shard count and service order.
    @raise Invalid_argument on a negative index. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [\[0, 1)], 53 bits of precision. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument if
    the array is empty. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] returns [k] distinct elements
    chosen uniformly.  @raise Invalid_argument if [k] exceeds the array
    length. *)
