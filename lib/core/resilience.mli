(** Fault tolerance for the testing infrastructure itself.

    The paper's central lesson is that a testing framework for an
    unreliable testbed must itself survive failure: builds hang, Jenkins
    misbehaves, and the custom scheduler exists precisely to retry
    Unstable builds with backoff.  This module provides the reusable
    pieces the framework uses to stay trustworthy when its own
    infrastructure degrades:

    - {!Retry}: exponential backoff with optional decorrelated jitter
      and a per-caller retry budget;
    - {!Breaker}: a per-test-family circuit breaker (Closed -> Open ->
      Half_open) that stops triggering a family after consecutive
      failures and probes it again after a cool-down;
    - {!Watchdog}: build timeouts driven by {!Simkit.Engine} events —
      armed when a build starts, cancelled on normal completion, and
      aborting the build when the deadline passes;
    - {!Infra}: the supervisor wiring watchdogs and the infrastructure
      fault flags ({!Testbed.Faults.Ci_outage}, [Build_hang],
      [Queue_loss]) into a running environment.

    All randomness is drawn from dedicated deterministic streams so that
    campaigns remain reproducible for a given seed. *)

module Retry : sig
  type config = {
    initial : float;  (** first retry delay, seconds *)
    max_delay : float;  (** backoff cap, seconds *)
    multiplier : float;  (** deterministic growth factor (jitter = 0) *)
    jitter : float;
        (** 0 selects the legacy deterministic exponential backoff
            (delay, then delay x multiplier, capped).  Any value in
            (0, 1] selects decorrelated jitter: each delay is drawn
            uniformly from [initial, 3 x previous] scaled by [jitter],
            capped at [max_delay]. *)
    budget : int;
        (** retries allowed per streak; [max_int] = unlimited.  The
            budget refills on {!reset} (i.e. when the guarded operation
            finally succeeds or is abandoned). *)
  }

  val default : config
  (** 1 h initial, 4-day cap, x2, no jitter, unlimited budget — the
      scheduler's historical behaviour. *)

  type t

  val create : ?seed:int64 -> config -> t
  (** The seed only matters when [jitter > 0]; it defaults to a fixed
      constant so two retries created alike behave alike. *)

  val next_delay : t -> float option
  (** Consume one retry from the budget and return the delay to wait.
      [None] once the budget is exhausted (the caller should give up and
      fall back to its base schedule). *)

  val reset : t -> unit
  (** Start a fresh streak: backoff returns to [initial], the per-streak
      budget refills.  The lifetime total ({!total_spent}) is kept. *)

  val spent : t -> int
  (** Retries consumed in the current streak. *)

  val total_spent : t -> int
  (** Retries consumed over the retry's lifetime (reporting). *)

  val budget : t -> int
  val exhausted : t -> bool
end

module Breaker : sig
  type config = {
    failure_threshold : int;  (** consecutive failures before opening *)
    cooldown : float;  (** seconds Open before allowing a probe *)
  }

  val default : config
  (** 5 consecutive failures, 12-hour cool-down. *)

  type state = Closed | Open | Half_open

  type t

  val create : config -> t
  val state : t -> state

  val allow : t -> now:float -> bool
  (** Whether the caller may attempt the guarded operation now.  In
      [Open] state, the cool-down expiry transitions to [Half_open] and
      admits exactly one probe; further calls return [false] until the
      probe's outcome is recorded. *)

  val record_success : t -> unit
  (** Closes the breaker and clears the failure streak. *)

  val record_failure : t -> now:float -> unit
  (** In [Closed], lengthen the streak (opening at the threshold); in
      [Half_open], re-open immediately.  Each transition to [Open]
      counts as one trip. *)

  val trips : t -> int
  (** Times the breaker transitioned to [Open]. *)
end

module Watchdog : sig
  type t
  type handle

  val create : Simkit.Engine.t -> t

  val arm : t -> delay:float -> (unit -> unit) -> handle
  (** Schedule the callback to fire in [delay] seconds unless disarmed
      first. *)

  val disarm : t -> handle -> unit
  (** Clean cancel; no-op if the watchdog already fired or was
      disarmed. *)

  val fired : t -> int
  (** Watchdogs that expired (= builds aborted when used by {!Infra}). *)

  val armed : t -> int
  (** Watchdogs currently pending. *)
end

(** Aggregated resilience numbers surfaced by the status page and the
    campaign report. *)
type summary = {
  watchdog_aborts : int;  (** builds killed past their deadline *)
  breaker_trips : int;  (** circuit-breaker transitions to Open *)
  skipped_breaker_open : int;  (** trigger attempts vetoed by a breaker *)
  retries_spent : int;  (** backoff retries consumed by the scheduler *)
  retry_budget : int;  (** per-configuration budget ([max_int] = unlimited) *)
  retries_exhausted : int;  (** streaks that ran out of budget *)
  ci_outages : int;  (** CI outage spells weathered *)
  queue_drops : int;  (** queue-loss events absorbed *)
  dropped_builds : int;  (** queued builds lost to queue wipes *)
  deferred_triggers : int;  (** triggers queued during an outage, replayed after *)
}

module Infra : sig
  (** Supervisor making a running environment survive infrastructure
      faults.  It arms a watchdog for every build that starts (aborting
      it at the family deadline), and polls the testbed fault flags to
      drive the CI server's degraded modes: an active
      {!Testbed.Faults.Ci_outage} pauses the executors (triggers keep
      queueing and replay on recovery), [Build_hang] makes started
      builds hang until their watchdog kills them, and [Queue_loss]
      wipes the pending queue once per injection (listeners are
      notified, so the scheduler reschedules the lost work). *)

  type config = {
    check_period : float;  (** fault-flag polling period, seconds *)
    deadline_of : Ci.Build.t -> float option;
        (** watchdog deadline for a build; [None] = don't arm *)
  }

  val default_config : config
  (** 5-minute flag polling; deadline = max(2 h, 8 x the family's
      nominal duration), 4 h for builds outside the catalog. *)

  val default_deadline : Ci.Build.t -> float option
  (** The deadline function used by {!default_config}. *)

  type t

  val attach : ?config:config -> Env.t -> t
  (** Subscribe to build start/completion and begin the fault-flag
      polling loop on the environment's engine. *)

  val watchdog_aborts : t -> int
  val ci_outages : t -> int
  val queue_drops : t -> int
  val dropped_builds : t -> int

  val summary :
    t -> scheduler:(int * int * int * int * int) option -> summary
  (** Assemble a {!summary}.  [scheduler] carries
      [(breaker_trips, skipped_breaker_open, retries_spent,
        retries_exhausted, retry_budget)] when a scheduler ran. *)
end

val summary_to_json : summary -> Simkit.Json.t

val render : summary -> string
(** ASCII table of the counters (watchdog aborts, breaker trips,
    outage/queue-loss events weathered): the campaign status page's
    resilience section. *)

val summary_line : summary -> string
(** One line for {!Campaign.pp_report}. *)
