(** The external job scheduler — the paper's main custom development.

    Jenkins' time-based scheduling is not sufficient: testbed resources
    are heavily used, hardware-centric tests need whole clusters, and
    test jobs must not compete with user requests.  This tool polls the
    CI server and the testbed state and decides when to trigger each
    configuration, applying:

    - resource availability: trigger only when the needed nodes are free
      right now (the build's reservation is immediate-or-cancel);
    - retry with exponential backoff after an Unstable build, routed
      through {!Resilience.Retry} (the fixed {!Resilience.Retry.default}
      1 h first delay and 4-day cap, optional decorrelated jitter and a
      per-configuration retry budget);
    - per-family circuit breakers ({!Resilience.Breaker}): a family
      whose builds keep failing is skipped until its breaker cools down;
    - peak-hours avoidance (no node-consuming test during working hours);
    - same-site anti-affinity (at most one node-consuming test per site).

    The [Naive] policy disables all of that (pure time-based triggering),
    serving as the baseline of experiment E6. *)

type policy = {
  poll_period : float;
  avoid_peak_hours : bool;
  one_job_per_site : bool;
  precheck_resources : bool;
  use_backoff : bool;
  retry_budget : int;
      (** retries granted per configuration between successes
          ([max_int] = unlimited, the historical behaviour) *)
  backoff_jitter : float;
      (** 0.0 = deterministic exponential doubling (historical
          behaviour); in ]0, 1] scales decorrelated jitter *)
  breaker : Resilience.Breaker.config option;
      (** [None] (default) disables circuit breaking *)
}

val smart_policy : policy
val naive_policy : policy

type stats = {
  polls : int;
  triggered : int;
  completed_success : int;
  completed_failure : int;
  completed_unstable : int;
  skipped_peak : int;
  skipped_site_busy : int;
  skipped_no_resources : int;
  skipped_quarantined : int;
      (** precheck misses attributable to quarantined nodes (the health
          supervisor's probe said the configuration's pool is currently
          short because of sidelined nodes); always 0 without a health
          supervisor *)
  skipped_breaker_open : int;
      (** due configurations skipped because their family's breaker was
          open *)
  retries_exhausted : int;
      (** times a configuration ran out of retry budget (it then falls
          back to its base period and the budget is replenished) *)
  retries_spent : int;  (** total backoff delays handed out *)
  breaker_trips : int;  (** total Closed/Half_open -> Open transitions *)
}

type t

val create : ?policy:policy -> ?indexed:bool -> Env.t -> t
(** Subscribes to build completions; families start disabled.

    [indexed] (default [true]) selects the poll-loop implementation.
    The indexed scheduler keeps a due-queue (a {!Simkit.Heap} keyed by
    each configuration's [next_due], ties resolved in config-id order)
    and per-site in-flight counters, so a poll costs O(due) instead of
    re-sorting and re-scanning all 751 configurations.  [~indexed:false]
    is the linear-scan reference implementation with identical
    semantics, kept for the equivalence property tests and as the E12
    bench baseline. *)

val enable_family : t -> Testdef.family -> unit
(** Adds the family's configurations to the rotation, with staggered
    initial due times. *)

val enabled_families : t -> Testdef.family list

val start : t -> unit
(** Begin the poll loop on the environment's engine. *)

val stats : t -> stats
val policy : t -> policy

val poll : t -> unit
(** One poll pass at the current simulated time.  {!start} drives this
    from the engine; exposed for the E12 bench and for tests. *)

val due_count : t -> float -> int
(** Configurations due at the given time (for introspection/tests). *)

val busy_sites : t -> string list
(** Sites with a node-consuming test currently in flight (sorted).  A
    site-less two-node configuration counts against
    {!Testdef.effective_site} — the same site its resource precheck
    draws nodes from — closing the anti-affinity hole the old scheduler
    had for the global kavlan VLAN. *)

val set_health_probe : t -> (Testdef.config -> bool) -> unit
(** Install the health supervisor's probe: given a configuration, does
    its resource pool currently contain quarantined/sidelined nodes?
    Only used to split precheck misses between [skipped_no_resources]
    and [skipped_quarantined] — scheduling decisions are unchanged (the
    OAR-level exclusion already keeps sidelined nodes out of prechecks
    and placement). *)

val audit_check : t -> (unit, string) result
(** Recompute every derived structure the scheduler maintains
    incrementally and compare against ground truth: site in-flight
    counters vs a recount over the entries, in-flight flags vs the CI
    server's actual build states, and (indexed scheduler only) the
    due-queue's live contents vs a linear rescan of [next_due].
    Registered by {!Auditor.attach}; [Error] describes every mismatch. *)

