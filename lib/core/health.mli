(** Node health supervision: the self-healing loop.

    The paper's testbed runs for years with hardware that fails in
    correlated ways; a trustworthy testing framework must not only
    detect broken nodes but take them out of the resource pool, drive
    their repair and verify the fix before handing them back to users.
    This module implements that loop as a per-node state machine

    {v Healthy -> Suspected -> Quarantined -> Repairing -> Reverifying -> Healthy v}

    (plus the terminal [Retired] state after repeated repair failures),
    driven by evidence accumulation: every completed build blames (or
    credits) the nodes it touched, suspicion scores decay exponentially,
    and crossing the quarantine threshold sidelines the node.  A
    simulated operator repairs it after an MTTR drawn from a
    deterministic per-fault-kind distribution; re-admission requires
    passing the verification test (a reboot into the standard
    environment plus a g5k-checks conformity run — the paper's [stdenv]
    check).

    Sidelined (non-{!Testbed.Node.Healthy}) nodes are excluded from OAR
    matching at the source ({!Oar.Manager}'s usable/free predicates), so
    the scheduler's prechecks and placements never see them.  The loop
    is entirely opt-in: without {!attach}, every node stays [Healthy]
    forever and campaigns are byte-identical to the seed behaviour.

    All randomness (MTTR draws) comes from a dedicated
    {!Simkit.Prng.split} stream, so campaigns stay reproducible. *)

type config = {
  suspect_threshold : float;
      (** suspicion score at which a [Healthy] node becomes [Suspected]
          (and leaves the schedulable pool) *)
  quarantine_threshold : float;
      (** score at which the node is quarantined and the repair pipeline
          starts *)
  decay_half_life : float;  (** seconds for a suspicion score to halve *)
  sweep_period : float;  (** seconds between background sweeps *)
  triage_delay : float;
      (** seconds a quarantined node waits before an operator picks it up *)
  max_repair_attempts : int;
      (** failed repair+reverify cycles before the node is [Retired] *)
  mttr_of_kind : Testbed.Faults.kind -> Simkit.Dist.t;
      (** repair-time distribution per root-cause fault kind *)
  default_mttr : Simkit.Dist.t;
      (** repair time when no active fault explains the node's state *)
}

val default_config : config
(** Quarantine after ~3 failures' worth of blame (threshold 3.0, suspect
    at 2.0), one-day half-life, 30-minute sweeps, 1-hour triage, 3 repair
    attempts; MTTR: Erlang-2 (mean 8 h) for site outages, exponential
    4 h for PDU failures, 2 h for partitions, 6 h otherwise.  Fixed, not
    configurable: each failed build adds 1.0 to the score of every node
    it touched, each unstable one 0.3 and each successful one subtracts
    0.5; a sweep adds 1.0 to every physically [Down] node; and every site
    pages when its healthy fraction drops below 0.5. *)

val release_threshold : float
(** 0.5: a [Suspected] node whose decayed score falls back below this
    returns to [Healthy] without operator action. *)

(** One recorded state-machine transition. *)
type transition = {
  at : float;
  host : string;
  from_health : Testbed.Node.health;
  to_health : Testbed.Node.health;
  reason : string;
}

(** Aggregated loop numbers surfaced by the status page and the campaign
    report. *)
type summary = {
  suspected : int;  (** cumulative Healthy -> Suspected transitions *)
  quarantined : int;  (** cumulative quarantine entries *)
  repair_attempts : int;  (** operator repair cycles started *)
  reverify_failures : int;  (** verification runs that failed *)
  released : int;  (** nodes returned to service *)
  retired : int;  (** nodes given up on *)
  out_of_service_now : int;  (** nodes currently not [Healthy] *)
  in_quarantine_now : int;
      (** nodes currently in the quarantine pipeline
          (Quarantined/Repairing/Reverifying) *)
  by_site : (string * int) list;
      (** cumulative quarantine entries per site (sorted, sites with
          none omitted) *)
  mean_hours_to_release : float;
      (** quarantine entry -> release latency, 0 when none released *)
  alerts_fired : int;  (** quarantine + healthy-floor alerts raised *)
}

type t

val attach :
  ?config:config ->
  ?scheduler:Scheduler.t ->
  alerts:Monitoring.Alerts.t ->
  Env.t ->
  t
(** Subscribe to build completions (blame channel), start the background
    sweep on the environment's engine, install the scheduler's
    quarantine probe (see {!Scheduler.set_health_probe}) and arm every
    site's healthy floor on [alerts], which also receives one
    {!Monitoring.Alerts.Quarantine} alert per sidelined host. *)

val decay : half_life:float -> score:float -> dt:float -> float
(** Pure exponential decay [score * 0.5^(dt / half_life)], exposed for
    the property tests. *)

val suspicion : t -> string -> float
(** Current (decayed) suspicion score of a host; 0 if never blamed. *)

val site_healthy_fraction : t -> string -> float
(** Fraction of the site's nodes currently [Healthy]. *)

val unhealthy_in_site : t -> string -> int
val unhealthy_in_cluster : t -> string -> int

val probe : t -> Testdef.config -> bool
(** Whether the configuration's resource pool currently contains
    sidelined nodes (what {!attach} installs into the scheduler). *)

val events : t -> transition list
(** Every transition ever recorded, oldest first. *)

val summary : t -> summary
val summary_to_json : summary -> Simkit.Json.t

val render : months:(int * int * float) list -> summary -> string
(** The campaign status page's self-healing section: the loop counters,
    cumulative quarantine entries per site, and the success ratio over
    time (the paper's 85% => 93% trajectory with the loop keeping broken
    nodes out of the pool).  [months] holds (month, builds, success
    ratio) for each month that completed a build. *)

val summary_line : summary -> string
(** One line for {!Campaign.pp_report}. *)
