(** Online statistics and fixed-bin histograms for measurement series. *)

module Online : sig
  (** Welford's online mean/variance accumulator. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two samples. *)

  val min : t -> float
  val max : t -> float
  val sum : t -> float
  val merge : t -> t -> t
  (** Combine two accumulators (parallel Welford merge). *)
end

val percentile : float array -> float -> float
(** [percentile data p] with [p] in [\[0, 1\]], linear interpolation
    between closest ranks.  Sorts a copy; @raise Invalid_argument on
    empty input. *)

val median : float array -> float

module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  (** Uniform bins over [\[lo, hi)]; out-of-range samples land in
      saturating under/overflow bins. *)

  val add : t -> float -> unit
  val count : t -> int
  val bin_count : t -> int -> int
  (** Count of bin [i] in [\[0, bins-1\]]. *)

  val underflow : t -> int
  val overflow : t -> int

  val bin_bounds : t -> int -> float * float

  val render : ?width:int -> t -> string
  (** ASCII rendering, one line per non-empty bin. *)
end
