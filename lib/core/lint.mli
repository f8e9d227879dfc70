(** Trustlint: static analysis over campaign configurations, the test
    catalog, the 2017 inventory and OAR resource expressions.

    The paper's thesis is that a testbed description must be checked
    against reality before anyone relies on it; this module applies the
    same discipline to the framework's own configuration, before a
    multi-month simulated campaign burns wall-clock on a setup that
    contradicts itself.

    Diagnostic codes (severity in parentheses is the usual one; L011
    also emits warnings for beyond-horizon fault schedules):

    - [L001] (error) duplicate configuration id
    - [L002] (error) dangling reference: unknown cluster/site, or a site
      contradicting the cluster's inventory site
    - [L003] (error) unrunnable configuration: no inventory resource can
      satisfy the family's requirement (kwapi off wattmeter sites,
      mpigraph without InfiniBand, dellbios on non-Dell hardware,
      two-node needs on one-node pools)
    - [L004] (error) unsatisfiable OAR filter: no cluster matches
    - [L005] (warning) vacuously true OAR filter: every cluster matches
    - [L006] (error) OAR filter syntax error
    - [L007] (warning) unknown OAR property name in a filter
    - [L008] (error) scheduler timing/calendar misconfiguration
      (non-positive poll period, peak-hours avoidance that can starve
      for days)
    - [L009] (error) resilience knobs out of range (retry budget < 1,
      jitter outside [0, 1], breaker threshold/cool-down <= 0)
    - [L010] (error) health configuration invalid (threshold ordering,
      non-positive MTTR means)
    - [L011] (error/warning) campaign shape: non-positive months or
      executors, negative fault schedules, beyond-horizon faults
    - [L012] (warning) staging and anti-affinity bottlenecks (families
      staged after the campaign ends, duplicate staging, executors that
      one-job-per-site can never employ)
    - [L013] (error/warning) triage pipeline knobs out of range
      (non-positive evidence ring or live cap, series bounds, flap
      thresholds, drill probabilities outside [0, 1]) and eviction
      thrash (idle grace below the dedup window)
    - [L014] (error/warning) serving layer misconfiguration
      (non-positive admission rate or sub-token burst, negative queue
      bound, degradation thresholds out of order — the ladder must run
      Fresh < Stale < Static_fallback — negative hysteresis, workload
      knobs out of range: tick period, reader rate, flash-crowd timing)
      and unreachable degradation rungs (stale_queue beyond queue_limit)
    - [L015] (error/warning) federation misconfiguration (more shards
      than testbeds, lookahead below the smallest cross-testbed latency
      — which would break the conservative-synchronization contract —
      duplicate member ids, invalid perturbation ranges, coordination
      cadences out of range)

    Semantic codes, proved by {!Semlint} (L004/L005 are also proved
    there now — feasible-host-count bounds over the whole inventory
    replaced the old representative-row heuristic):

    - [L016] (error/warning) filter simplifies to false (contradiction:
      no property assignment can satisfy it) or to true (tautology)
      under {!Oar.Expr.normalize}, independent of any inventory
    - [L017] (warning) ordering on a numeric-valued property that OAR
      compares non-numerically: an integer literal against decimal
      values is silently false, a non-integer quoted value falls back
      to lexicographic string order ('9' > '10')
    - [L018] (error/warning) provable oversubscription / starvation:
      the staged catalog's executor demand exceeds the global executor
      pool, a site's one-job-per-site budget, or a cluster's
      exclusive-test budget (peak-hours avoidance shrinks all three)
    - [L019] (error) anti-affinity deadlock cycle: simultaneous
      multi-pool acquisitions (site-spread configurations) overlap in a
      way that admits a circular wait, and nothing serializes them
    - [L020] (error) PRNG stream collision: two {!Simkit.Streams}
      derivation-tag ranges overlap for the configured federation size,
      aliasing streams that must be independent *)

type severity = Error | Warning | Info

type diagnostic = {
  code : string;  (** ["L001"].."[L020]" *)
  severity : severity;
  path : string;  (** what the diagnostic is about, e.g. a config id *)
  message : string;
  fix : string option;
      (** machine-applicable repair suggestion (semantic codes),
          rendered by [g5ktest lint --explain] *)
}

val severity_to_string : severity -> string

val errors : diagnostic list -> diagnostic list
(** Only the [Error]-severity diagnostics (the CI gate's exit status). *)

val sort : diagnostic list -> diagnostic list
(** Errors first, then by code, then by path. *)

val known_properties : string list
(** The OAR property vocabulary of the simulated instance. *)

val check_filter : path:string -> string -> diagnostic list
(** L004-L007 and L016-L017 on one OAR filter string: syntax and
    property vocabulary here, semantic verdicts from
    {!Semlint.check_expr}. *)

val check_configs : Testdef.config list -> diagnostic list
(** L001-L003 plus filter checks on each configuration's generated OAR
    filter.  Dangling references (L002) suppress the downstream checks
    for that configuration, so one root cause yields one diagnostic. *)

val check_catalog : unit -> diagnostic list
(** {!check_configs} over the full 751-configuration catalog. *)

val check_policy : path:string -> Scheduler.policy -> diagnostic list
(** L008-L009. *)

val check_health : path:string -> Health.config -> diagnostic list
(** L010. *)

val check_triage : path:string -> Triage.config -> diagnostic list
(** L013. *)

val check_serve : path:string -> Serve.config -> diagnostic list
(** L014. *)

val check_federation : path:string -> Federation.config -> diagnostic list
(** L015, plus L020 ({!Semlint.check_streams}) once the shape is sane.
    Static mirror of the dynamic validation {!Federation.run} performs,
    plus conservatism and coordination-cadence checks the runtime does
    not enforce. *)

val check_schedulability :
  path:string ->
  policy:Scheduler.policy ->
  executors:int ->
  Testdef.config list ->
  diagnostic list
(** L018-L019 ({!Semlint.check_capacity} / {!Semlint.check_deadlock})
    over an explicit configuration list. *)

val check_campaign : Campaign.config -> diagnostic list
(** L011-L012, plus {!check_policy}, {!check_health}, {!check_triage}
    and {!check_serve} (when attached), {!check_configs} over every
    staged family's configurations, and {!check_schedulability} over the
    families reachable within the campaign horizon. *)

val run : Campaign.config -> diagnostic list
(** {!check_campaign}, sorted. *)

val presets : (string * Campaign.config) list
(** Named example configurations the CLI gate lints alongside the
    catalog: default, naive policy, resilience drill, health drill, the
    triage pipeline, and the serving layer (with a scheduled
    [Serve_crash] drill). *)

val diagnostic_to_json : diagnostic -> Simkit.Json.t
val to_json : diagnostic list -> Simkit.Json.t

val render : ?explain:bool -> diagnostic list -> string
(** Plain-text table, one diagnostic per line, with a summary footer.
    [~explain:true] adds an indented [fix:] line under every diagnostic
    that carries a repair suggestion. *)
