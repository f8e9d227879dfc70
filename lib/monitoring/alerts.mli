(** Time-series alerting rules.

    The paper's related work notes the move "to more complex checks
    (functionality-based) and alerting based on time-series, e.g. with
    Prometheus".  This module provides that style of rule on top of the
    collector: threshold rules over an aggregation window and
    absence-of-data rules, evaluated on demand, with firing/resolved
    state tracking.

    Besides metric rules, the module tracks two kinds of sources.
    Level-triggered ones are observed repeatedly and fire while a
    condition holds: metric rules ({!evaluate}) and per-site
    healthy-fraction floors ({!set_healthy_floor}/{!observe_site_health}).
    Event-style ones are fired and resolved by the subsystem that owns
    them through {!fire}/{!resolve}: quarantined hosts, flapping bugs and
    a degraded status-page service. *)

type aggregation = Mean | Max | Min

type condition =
  | Above of float  (** aggregated value strictly above *)
  | Below of float
  | Absent  (** no samples at all in the window *)

type rule = {
  rule_name : string;
  host : string;
  metric : Collector.metric;
  window : float;  (** seconds of history to aggregate *)
  aggregation : aggregation;
  condition : condition;
}

(** What raised the alert: a metric rule, a site whose healthy fraction
    sank below its floor, a quarantined host, a flapping bug (the
    triage loop's fixed<->reopened escalation), or a status-page
    service that left fresh serving mode. *)
type source =
  | Metric of rule
  | Healthy_floor of string  (** site *)
  | Quarantine of string  (** host *)
  | Flapping of int  (** bug id *)
  | Serving_degraded of string  (** service *)

type alert = {
  source : source;
  fired_at : float;
  value : float option;
      (** aggregated value / healthy fraction; [None] for {!Absent} and
          quarantine events. *)
  reason : string;  (** human-readable description *)
  mutable resolved_at : float option;
}

type t

val create : Collector.t -> t
val add_rule : t -> rule -> unit
val rules : t -> rule list

val evaluate : t -> now:float -> alert list
(** Evaluate every rule over [\[now - window, now\]].  A rule whose
    condition holds and which is not already firing produces a new
    {!alert}; a firing rule whose condition no longer holds is resolved.
    Returns the alerts that {e started firing} in this evaluation. *)

val firing : t -> alert list
(** Currently-firing alerts. *)

val history : t -> alert list
(** Every alert ever fired, oldest first. *)

val set_healthy_floor : t -> site:string -> floor:float -> unit
(** Arm a {!Healthy_floor} source: alert whenever the site's healthy
    fraction (in [\[0, 1\]]) is observed below [floor].  Replaces any
    previous floor for the site. *)

val observe_site_health :
  t -> now:float -> site:string -> healthy_fraction:float -> alert option
(** Feed one healthy-fraction observation.  Fires (once) when the value
    is below the site's armed floor, resolves the firing alert when it
    recovers, and is a no-op for sites without a floor. *)

val fire : t -> now:float -> source -> reason:string -> alert
(** Fire an event-style alert for [source], or return the alert already
    firing for it (sources are compared structurally). *)

val resolve : t -> now:float -> source -> unit
(** Resolve the alert firing for [source], if any. *)

val render : t -> string
