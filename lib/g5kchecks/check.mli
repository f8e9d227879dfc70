(** g5k-checks: verify that each node conforms to its Reference API
    description.

    "Runs at node boot (or manually by users); acquires info using OHAI,
    ethtool, etc.; compares with Reference API."  A mismatch means either
    the node drifted (broken/replaced hardware, BIOS reset) or the
    description is wrong — both harm experiments, and both are exactly
    what this check reports. *)

type severity =
  | Perf_affecting
      (** CPU settings, disk cache/firmware: silently skews measurements *)
  | Capacity  (** RAM/core count wrong: jobs get fewer resources *)
  | Descriptive  (** inventory metadata (BIOS version, firmware strings) *)

type mismatch = {
  path : string;  (** JSON path, e.g. ["hardware/settings/c_states"] *)
  described : string;  (** value in the Reference API ("-" if absent) *)
  observed : string;  (** acquired value ("-" if absent) *)
  severity : severity;
}

type report = {
  host : string;
  checked_at : float;
  mismatches : mismatch list;  (** empty = node conforms *)
}

val conforms : report -> bool

val run : Testbed.Instance.t -> Testbed.Node.t -> report
(** Compare the node's acquired state against its published Reference API
    document.  A node with no published document reports a single
    mismatch on path ["(document)"] . *)

val run_cluster : Testbed.Instance.t -> string -> report list
(** Every Alive node of the cluster (boot-time sweep). *)

val worst_severity : report -> severity option
