(** Failure-signature triage pipeline.

    Layered between build completion and the {!Bugtracker}: every failed
    (or, optionally, unstable) build is turned into a structured
    {e evidence bundle} — exit reason, watchdog/retry lineage, touched
    hosts with their health state, failing audit invariants and the
    correlated ground-truth fault context — and its free-form signature
    is {e canonicalized} into [category x fingerprint x scope], so the
    same failure on two hosts of one cluster deduplicates into one bug
    instead of fragmenting.

    On top of the store's event feed the module runs the robustness
    loop: per-category MTTR of the operator fix cycle, regression
    (reopen) counting, detection of {e flapping} bugs (fixed<->reopened
    cycling) escalated through {!Monitoring.Alerts}, and fault drills
    against the triage path itself (evidence loss, delayed filing) whose
    dedup counts must converge regardless. *)

(** Where a canonical signature applies.  Hosts resolve to their cluster
    (the paper's failures are overwhelmingly per-cluster drift); a host
    the inventory does not know stays a host scope. *)
type scope =
  | Host of string
  | Cluster of string
  | Site of string
  | Image of string
  | Global

val scope_to_string : scope -> string
(** ["cluster/grisou"], ["site/nancy"], ["image/debian8-x64-min"],
    ["host/x.y"] or ["global"]. *)

type canonical = { category : string; fingerprint : string; scope : scope }

val canonicalize : Env.t -> Bugtracker.evidence -> canonical
(** Split the legacy ':'-separated signature; tokens naming hosts, sites,
    clusters or images become the scope (first location token wins, most
    get folded from host to cluster), the remaining tokens — in order —
    form the fingerprint. *)

val canonical_signature : canonical -> string
(** The dedup key actually filed: ["category|fingerprint|scope"]. *)

type bundle = {
  at : float;
  job : string;  (** [""] for build-less filings (regression experiments) *)
  build_number : int;
  result : Ci.Build.result;
  retry_lineage : int list;  (** Matrix-Reloaded retry chain, oldest first *)
  hosts : string list;  (** testbed hosts the build touched *)
  node_health : (string * string) list;  (** blamed host -> health state *)
  invariants : string list;
      (** audit checks failing since the build started (requires an
          attached auditor) *)
  active_faults : (int * string) list;
      (** ground-truth faults active on the touched hosts *)
  canonical : canonical;
  evidence : Bugtracker.evidence;  (** the raw evidence, legacy signature *)
}

type drill = {
  evidence_loss : float;  (** probability a bundle is lost before filing *)
  filing_delay : float;  (** seconds between observation and filing *)
}

type config = {
  limits : Bugtracker.limits;  (** bounded-store sizing, see {!Bugtracker} *)
  dedup_window : float;
      (** seconds within which a {e retried} build re-reporting the same
          canonical signature is collapsed client-side *)
  flap_cycles : int;
      (** reopens within 30 days that make a flapper, which pages
          through {!Monitoring.Alerts} *)
  file_unstable : bool;
      (** also file a synthetic ["ci"]-category bug for unschedulable
          (UNSTABLE) builds *)
  drill : drill option;  (** fault injection into the triage path itself *)
}

val default_config : config
(** Default limits, 1 h dedup window, 3 reopens make a flapper,
    unstable builds counted but not filed, no drill. *)

type summary = {
  builds_observed : int;
  bundles : int;  (** bundles assembled (after drill losses) *)
  filed : int;  (** new bugs *)
  duplicates : int;
  collapsed : int;  (** retry re-reports collapsed client-side *)
  lost : int;  (** drill: bundles lost before filing *)
  delayed : int;  (** drill: bundles filed late *)
  unstable_observed : int;
  dedup_ratio : float;  (** filings per distinct signature *)
  reopens : int;
  flapping : int;  (** distinct flapping bugs *)
  escalations : int;
  mttr_days_by_category : (string * float * int) list;
      (** category, mean days open before a fix, fixes counted *)
  store : Bugtracker.stats;
}

type t

val create :
  ?config:config -> alerts:Monitoring.Alerts.t -> Env.t -> Bugtracker.t -> t
(** Subscribe to the tracker's event feed.  The tracker should be
    created with [config.limits] so the store honours the memory bound.
    Flapping bugs fire a {!Monitoring.Alerts.Flapping} alert on [alerts]
    that resolves when the bug is fixed again.  Only drill configurations
    draw engine randomness (one {!Simkit.Prng} split at creation). *)

val set_auditor : t -> Simkit.Audit.t -> unit
(** Attach the auditor whose failing invariants bundles record
    (campaigns create it after the job wiring). *)

val observe :
  t -> build:Ci.Build.t -> result:Ci.Build.result -> Bugtracker.evidence list -> unit
(** Feed one completed build's outcome: failed builds have each evidence
    assembled into a bundle and filed; unstable builds are counted (and
    filed when [file_unstable]); successes only count. *)

val ingest : t -> Bugtracker.evidence -> unit
(** Build-less filing path (regression experiments): canonicalize,
    bundle and file one evidence. *)

val recent_bundles : t -> bundle list
(** Newest first, at most 32. *)

val flapping_count : t -> int

val summary : t -> summary
val summary_to_json : summary -> Simkit.Json.t

val render : summary -> string
(** Plain-text triage section for the status page. *)

val summary_line : summary -> string
(** One line for {!Campaign.pp_report}. *)
