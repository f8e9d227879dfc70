(** Opt-in runtime invariant auditor.

    Cross-checks live simulation state against ground truth at a fixed
    cadence, and watches per-event state digests to flag same-timestamp
    event-ordering races.  Entirely passive: when not started it costs
    nothing, and even when running it draws no engine randomness, so an
    audited campaign replays the unaudited one's decisions exactly. *)

type t

type violation = { at : float; check : string; detail : string }
(** One failed invariant: simulated time, check (or probe) name, and a
    human-readable explanation. *)

val create : ?period:float -> Engine.t -> t
(** Auditor running registered checks every [period] simulated seconds
    (default 6 h).  @raise Invalid_argument if [period <= 0]. *)

val register : t -> name:string -> (unit -> (unit, string) result) -> unit
(** Add an invariant check, run at every cadence tick.  [Error detail]
    (or an exception) records a {!violation}.
    @raise Invalid_argument on duplicate [name]. *)

val watch : t -> name:string -> (unit -> int) -> unit
(** Add a state digest probe for race detection.  The digest is sampled
    after every executed event once {!start}ed; when two time-tied events
    from distinct labelled sources (see {!Engine.schedule}) both change
    the same digest, their commutation would change observed state and an
    ["event-order-race"] violation is recorded (deduplicated per instant
    and probe).  @raise Invalid_argument on duplicate [name]. *)

val start : t -> unit
(** Install the engine observer (only if probes exist) and schedule the
    cadence loop.  Idempotent. *)

val violations : t -> violation list
(** All recorded violations, oldest first. *)

val checks_run : t -> int
val events_observed : t -> int
val races_flagged : t -> int

type summary = {
  checks_run : int;
  violations : violation list;
  races_flagged : int;
  events_observed : int;
}

val summary : t -> summary

val violation_to_json : violation -> Json.t
val summary_to_json : summary -> Json.t
