(** Federation sharding: deterministic parallel discrete-event
    simulation across testbeds.

    The paper validates one 894-node testbed; a federation run simulates
    N Grid'5000-class peers (cloned and perturbed from the reference by
    {!Testbed.Fleet}), each owning a complete private simulation — its
    own {!Simkit.Engine} arena, scheduler, OAR manager, CI server and
    fault/health state ({!Campaign.sim}).  Members advance independently
    between cross-testbed synchronization points and couple only through
    the coordinator, which runs at conservative lookahead barriers every
    [lookahead] seconds of simulated time:

    - {b backbone faults}: federation-wide network events partitioning
      the same site on every member simultaneously;
    - {b kavlan global VLANs}: members periodically request one of the
      [global_vlans] federation-spanning VLANs; the coordinator
      arbitrates grants in member order and granted members run a
      federation link test;
    - {b federation health audits}: periodic aggregation of in-service
      nodes and active faults across all members.

    {b Determinism.}  Every coordination decision is a function of (a)
    the federation seed, through streams derived statelessly per member
    ({!Simkit.Prng.derive}), and (b) member state at barrier times —
    which is identical however the windows in between were serviced,
    because members share no mutable state between barriers and all
    coordination effects are scheduled strictly after the barrier that
    computes them (conservative lookahead).  A federation run therefore
    produces byte-identical reports for any shard count and any driver,
    which [test/test_federation.ml] proves differentially. *)

type driver =
  | Sequential  (** one thread, shards serviced round-robin each window *)
  | Interleaved of int64
      (** like [Sequential] but the member service order is re-shuffled
          every window from the given seed — the differential harness's
          interleaving oracle *)
  | Parallel
      (** one [Domain] per shard per window; falls back to the
          sequential semantics (and results) when only one shard is
          configured *)
  | Reference
      (** drive the whole federation through a single unsharded global
          event loop: always execute the globally earliest event across
          all members.  Same results, no shard batching within a
          coordinator window — the unsharded oracle that the
          differential tests compare the sharded drivers with *)

val driver_to_string : driver -> string

type config = {
  testbeds : int;  (** federation size N *)
  shards : int;  (** shard count K; member [i] belongs to shard [i mod K] *)
  names : string list;
      (** explicit member ids; [[]] (default) auto-generates
          ["tb00"].. — duplicates are rejected (and linted, L015) *)
  lookahead : float;
      (** barrier window in simulated seconds; must be at least
          {!min_cross_latency} (linted, L015) *)
  seed : int64;  (** federation master seed (member synthesis + coordination) *)
  base : Campaign.config;
      (** member campaign template; each member gets a derived seed and
          perturbed executors / fault rate / workload on top of it *)
  ranges : Testbed.Fleet.ranges;  (** perturbation ranges for synthesis *)
  backbone_faults_per_year : float;
      (** Poisson rate of federation-wide backbone events *)
  backbone_outage_hours : float;  (** duration of each backbone partition *)
  global_vlans : int;  (** concurrently grantable federation-wide VLANs *)
  vlan_request_period : float;
      (** how often each member requests a global VLAN (seconds) *)
  audit_period : float;  (** federation-wide health audit cadence (seconds) *)
  driver : driver;
}

val default_config : config
(** 10 testbeds, 4 shards, 6-hour lookahead, 2-month members cloned
    from {!Campaign.default_config}, perturbed by
    {!Testbed.Fleet.default_ranges}, ~6 backbone events/year, 3 global
    VLANs, sequential driver. *)

val min_cross_latency : float
(** Smallest latency of any cross-testbed effect (seconds): coordination
    decisions taken at a barrier reach member engines no earlier than
    this, which is what makes a lookahead window of at least this size
    conservative.  Both the VLAN grant latency and the earliest backbone
    onset equal it. *)

val synthesize : config -> Testbed.Fleet.spec list
(** The federation's member specs ({!Testbed.Fleet.synthesize} with this
    configuration's seed, count, names and ranges). *)

val member_campaign : config -> Testbed.Fleet.spec -> Campaign.config
(** The campaign configuration member [spec] runs: [base] with the
    member's derived seed, executor count, biased fault arrival rate and
    scaled user workload. *)

type coordination = {
  barriers : int;  (** synchronization points executed *)
  backbone_faults : int;  (** federation-wide backbone events injected *)
  vlan_requests : int;
  vlan_grants : int;
  vlan_denials : int;  (** requests bounced because all VLANs were busy *)
  link_tests : int;  (** federation link tests run by granted members *)
  link_failures : int;
  audits : int;  (** federation-wide health audits *)
  min_in_service : int;
      (** smallest federation-wide in-service node count an audit saw
          (total node count when no audit ran) *)
  mean_active_faults : float;
      (** mean federation-wide active faults over audits (nan when no
          audit ran) *)
}

type member_report = {
  spec : Testbed.Fleet.spec;
  report : Campaign.report;
  events : int;  (** events executed by the member's engine *)
}

type report = {
  fed_cfg : config;
  members : member_report list;
  coordination : coordination;
  aggregate_builds : int;
  aggregate_successes : int;
  aggregate_success_ratio : float;
  aggregate_bugs_filed : int;
  aggregate_bugs_fixed : int;
  aggregate_faults_injected : int;
  aggregate_faults_detected : int;
  aggregate_faults_repaired : int;
  aggregate_workload_jobs : int;
  aggregate_nodes : int;
  events_total : int;
}

val run : config -> report
(** Execute the federation to its horizon.
    @raise Invalid_argument on an invalid configuration (non-positive
    testbeds/shards/lookahead, more shards than testbeds, duplicate
    member names) — {!Lint.check_federation} reports the same problems
    statically. *)

val report_to_json : ?full:bool -> report -> Simkit.Json.t
(** Machine-readable report.  [full] (default [false]) embeds every
    member's complete campaign report ({!Report.to_json}) — the
    differential test harness compares that serialization byte for byte
    across shard counts and drivers; the summary form keeps one line of
    headline figures per member. *)

val render : report -> string
(** Plain-text federation overview: per-member table plus coordination
    and aggregate summaries. *)
