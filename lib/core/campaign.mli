(** Closed-loop campaign: faults arrive, tests run, bugs get filed,
    operators fix, reliability improves.

    This reproduces the paper's headline numbers: the number of bugs
    filed/fixed over the campaign (118 / 84 at submission time) and the
    test-success trend (85% early, 93% later, despite tests being added
    mid-campaign).  Families are enabled in stages to model "tests still
    being added". *)

type config = {
  months : int;
  seed : int64;
  executors : int;
  initial_faults : int;  (** latent problems present before testing starts *)
  fault_rate_per_day : float;  (** fresh-fault Poisson arrival rate *)
  workload : Oar.Workload.profile option;  (** user contention; [None] = idle testbed *)
  enable_testing : bool;  (** [false] = ablation baseline without the framework *)
  staged_families : (int * Testdef.family list) list;
      (** month index -> families switched on at that month *)
  enable_regression : bool;
      (** also run the user-experiment regression jobs nightly *)
  policy : Scheduler.policy;
  operator : Operator.config;
  resilience : bool;
      (** attach the {!Resilience.Infra} supervisor (watchdogs + CI
          degraded modes); off by default so historical campaigns replay
          bit-for-bit *)
  infra_faults : (float * Testbed.Faults.kind) list;
      (** scheduled faults against the testing infrastructure itself:
          (time, kind) with kind one of [Ci_outage]/[Build_hang]/
          [Queue_loss] *)
  infra_fault_duration : float;
      (** seconds before each scheduled infrastructure fault is
          repaired *)
  health : Health.config option;
      (** attach the {!Health} self-healing loop with this configuration;
          [None] (default) keeps every node permanently in service and
          campaigns byte-identical to the historical behaviour *)
  health_faults : (float * Testbed.Faults.kind * Testbed.Faults.target) list;
      (** scheduled targeted faults for health drills: (time, kind,
          target), e.g. [(t, Site_outage, Site "nancy")].  Unlike
          [infra_faults], these are {e not} auto-repaired — detecting,
          repairing and re-admitting the affected nodes is the health
          loop's job *)
  audit : bool;
      (** attach the {!Auditor} runtime invariant checker ({!Simkit.Audit})
          to the campaign; [false] (default) costs nothing and keeps
          campaigns byte-identical — the auditor draws no engine
          randomness, so even audit-on runs replay the same decisions *)
  triage : Triage.config option;
      (** route evidence through the {!Triage} failure-signature pipeline
          (bundles, canonical signatures, bounded store, flap detection);
          [None] (default) keeps the historical free-form-signature path
          and campaigns byte-identical *)
  serve : Serve.config option;
      (** attach the {!Serve} status-page serving layer (snapshot cache,
          load shedding, degraded reads, crash recovery) and drive its
          synthetic read workload during the campaign; [None] (default)
          serves nothing — and because the workload draws from its own
          seeded PRNG, serve-on campaigns replay the same decisions
          byte for byte *)
}

val default_config : config
(** 6 months, testing enabled, staged families (new tests at months 2 and
    4), default workload, smart scheduling policy. *)

type monthly = {
  month : int;
  builds : int;
  successful : int;
  success_ratio : float;
  bugs_filed_cum : int;
  bugs_fixed_cum : int;
  active_faults : int;
  enabled_configs : int;
}

type report = {
  cfg : config;
  monthly : monthly list;
  bugs_filed : int;
  bugs_fixed : int;
  bugs_by_category : (string * int * int) list;
  faults_injected : int;
  faults_detected : int;
  faults_repaired : int;
  detection_latency_days : (string * float * int) list;
      (** per fault category: mean days from injection to first detection,
          and how many detections the mean covers *)
  builds_total : int;
  workload_jobs : int;
  scheduler_stats : Scheduler.stats option;
  resilience : Resilience.summary option;
      (** present iff the campaign ran with [resilience = true] *)
  health : Health.summary option;
      (** present iff the campaign ran with a health configuration *)
  audit : Simkit.Audit.summary option;
      (** present iff the campaign ran with [audit = true] *)
  triage : Triage.summary option;
      (** present iff the campaign ran with a triage configuration *)
  serve : Serve.summary option;
      (** present iff the campaign ran with a serve configuration *)
  mean_active_faults : float;
  statuspage : string;  (** rendered overview at campaign end *)
  statuspage_html : string;  (** same views as a standalone HTML page *)
}

(** What one attached opt-in subsystem contributes to the report's three
    renderings. *)
type section = {
  key : string;  (** member name in {!Report.to_json} *)
  json : Simkit.Json.t;  (** that member's value *)
  page : (string * string) option;
      (** status-page title and body, appended after the cluster
          confidence table *)
  line : string option;  (** one-line summary printed by {!pp_report} *)
}

val sections : report -> section list
(** The one list of opt-in subsystems: resilience, health, audit, triage
    and serve, in that order, each present iff its summary is [Some _].
    {!Report.to_json}, the [statuspage] text and {!pp_report} are folds
    over it.  The list is rebuilt from the report's typed fields on each
    call, so a caller that edits a summary (say [audit]) and serialises
    again sees its edit.  Attaching a new subsystem means adding its
    report field and one entry here. *)

type sim
(** A campaign wired onto its own engine arena (environment, scheduler,
    operator loop, fault processes, monthly snapshots) but not driven
    yet.  {!run} is [prepare] + drive + [finalize]; the federation layer
    holds one [sim] per member testbed and advances them window by
    window between synchronization barriers instead of driving each to
    its horizon in one call. *)

val prepare : config -> sim
(** Build the campaign without executing any simulated time.  All
    construction-time randomness is drawn here, in a fixed order, so a
    prepared-then-driven campaign replays {!run} byte for byte. *)

val sim_engine : sim -> Simkit.Engine.t
(** The member's private engine; external drivers advance it with
    {!Simkit.Engine.run_until} / {!Simkit.Engine.step}. *)

val sim_env : sim -> Env.t
(** The member's environment (inventory, faults, OAR, CI), for
    cross-testbed coordination reads at barriers. *)

val sim_page : sim -> Statuspage.t
(** The member's status-page aggregate. *)

val sim_serve : sim -> Serve.t option
(** The status-page service, when the [serve] knob attached one. *)

val sim_horizon : sim -> float
(** The campaign end in simulated seconds ([months] x 30 days). *)

val finalize : sim -> report
(** Assemble the report.  Call once, after the engine reached
    {!sim_horizon}. *)

val run : config -> report
(** Execute the whole campaign synchronously (simulated time only):
    [prepare], {!Simkit.Engine.run_until} the horizon, [finalize]. *)

val pp_report : Format.formatter -> report -> unit
