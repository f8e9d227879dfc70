(** Per-node availability timelines (the scheduler's Gantt chart).

    Each node holds a sorted list of reservations [(start, stop, job)].
    The scheduler queries earliest placements and commits reservations;
    completed intervals are pruned lazily.

    Cost: the lists are sorted by start and never overlap, so they are
    sorted by stop too.  {!reserve} inserts in order, copying only the
    intervals that start earlier; {!is_free} and the window scans
    allocate nothing; {!prune} walks the slots in registration order and
    writes only a slot whose first interval has expired, dropping its
    expired prefix in place.

    A host's list lives in its {!type-slot}, a cell registered on first
    use and never replaced, so a slot taken before the host's first
    reservation sees every later change; the [slot_] functions hash no
    host name.  Each job keeps the slots it was reserved on, so
    {!release_job} hashes no host name either and allocates only the
    intervals it must copy: those before the job's last one on a slot,
    none when the job's interval comes first. *)

type t
type slot

val create : unit -> t

val reserve : t -> host:string -> start:float -> stop:float -> job:int -> unit
(** @raise Invalid_argument when the interval overlaps an existing
    reservation on the host or [stop <= start]. *)

val slot : t -> string -> slot
val reserve_slot : t -> slot -> start:float -> stop:float -> job:int -> unit

val release : t -> host:string -> job:int -> unit
(** Drop all reservations of [job] on [host] (no-op if absent). *)

val release_job : t -> job:int -> unit
(** Drop the job's reservations on every host. *)

val truncate : t -> host:string -> job:int -> stop:float -> unit
(** Early job end: shorten the job's reservation to [stop]. *)

val is_free : t -> host:string -> start:float -> stop:float -> bool
val slot_is_free : slot -> start:float -> stop:float -> bool

val next_free_window : t -> host:string -> after:float -> duration:float -> float
(** Earliest [t >= after] such that the host is continuously free on
    [\[t, t + duration)]. *)

val slot_next_free_window_into :
  Float.Array.t -> int -> slot -> after:float -> duration:float -> unit
(** [slot_next_free_window_into a k slot ~after ~duration] stores the
    slot's {!next_free_window} at [a.(k)], boxing nothing. *)

val reservations : t -> host:string -> (float * float * int) list
(** Current reservations, sorted by start. *)

val prune : t -> before:float -> unit
(** Forget reservations that ended before [before].  They are a prefix
    of each host's list: {!truncate} only shortens or drops intervals. *)

val utilisation : t -> host:string -> lo:float -> hi:float -> float
(** Fraction of [\[lo, hi\]] covered by reservations. *)
