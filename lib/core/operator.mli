(** Testbed-operator model: bug fixing and maintenance.

    Operators work through the bug tracker ("test-driven operations"):
    open bugs are triaged, then fixed at a bounded rate; fixing a bug
    repairs the ground-truth faults it was correlated with.  Operators
    also run maintenance windows — which, as the paper notes, are
    themselves a frequent source of fresh configuration drift — and,
    rarely, notice long-standing problems through user complaints even
    without a bug report (the slow path the testing framework is meant to
    replace). *)

type config = {
  fix_capacity_per_day : float;  (** bugs fixed per day, fleet-wide *)
  triage_delay : float;  (** minimum bug age before work starts *)
  maintenance_period : float;  (** one maintenance window per this period *)
  maintenance_fault_rate : float;  (** mean faults introduced per window *)
  complaint_rate_per_day : float;
      (** probability per day that one long-undetected fault surfaces *)
  prioritize_reopened : bool;
      (** work regressions (reopened bugs) before fresh filings; [false]
          (default) keeps the historical filing-order queue *)
}

val default_config : config

type t

val start : ?config:config -> Env.t -> Bugtracker.t -> t
(** Begin the operator processes on the environment's engine. *)

val stop : t -> unit

val bugs_fixed : t -> int
val maintenance_windows : t -> int
