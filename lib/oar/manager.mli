(** The OAR server: property database, job queue, FCFS scheduler with
    per-node Gantt reservations.

    Scheduling is conservative: each waiting job gets the earliest
    reservation compatible with existing ones, in submission order.
    Best-effort jobs go last, and their future reservations stay
    re-placeable until the job actually starts — a later default job
    takes the slot and the best-effort job is pushed back (OAR's
    best-effort semantics, minus in-flight preemption).  [~immediate:true] submissions — used by the
    external test scheduler — are rejected instead of queued when they
    cannot start right away, reproducing the paper's "if the testbed job
    fails to be scheduled immediately, it is cancelled and the build is
    marked as unstable". *)

type t

type submit_error =
  | No_matching_resource  (** filter matches nothing at all *)
  | Not_immediately_schedulable of float
      (** earliest possible start (absolute time), for immediate jobs *)
  | Service_unavailable  (** the OAR service itself is down at that site *)

val create : Testbed.Instance.t -> t

val instance : t -> Testbed.Instance.t
val properties : t -> Property.t

val refresh_properties : t -> unit
(** Re-derive the property database from the Reference API
    ({!Property.refresh_from_refapi}).  The memoised filter results
    behind {!matching_hosts}, {!free_matching_now} and {!free_at_least}
    are dropped only when the refresh changed a row or the host set; a
    refresh that changes nothing keeps them. *)

val submit :
  t ->
  ?user:string ->
  ?jtype:Job.jtype ->
  ?duration:float ->
  ?immediate:bool ->
  Request.t ->
  (Job.t, submit_error) result
(** [duration] defaults to the request's walltime.  The result job is
    {!Job.Waiting} or {!Job.Scheduled}; progression to Running/Terminated
    happens through engine events. *)

val submit_at :
  t ->
  ?user:string ->
  ?jtype:Job.jtype ->
  ?duration:float ->
  start:float ->
  Request.t ->
  (Job.t, submit_error) result
(** Advance reservation (OAR's [-r <date>]): commit resources for a
    specific future start time.  Fails with
    {!Not_immediately_schedulable} when the requested slot is already
    taken (OAR rejects rather than moves advance reservations), and with
    [Invalid_argument] when [start] is in the past. *)

val cancel : t -> Job.t -> unit

val job : t -> int -> Job.t option
val jobs : t -> Job.t list
(** All jobs ever submitted, in id order. *)

val running_jobs : t -> Job.t list

val matching_hosts : t -> Expr.t -> string list
(** Hosts whose properties satisfy the filter (sorted). *)

val free_matching_now : t -> Expr.t -> string list
(** Matching hosts that are Alive and unreserved right now. *)

val free_at_least : t -> Expr.t -> int -> bool
(** [free_at_least t filter n] is [List.length (free_matching_now t
    filter) >= n], but stops scanning the host pool as soon as [n] free
    hosts are found — the external scheduler's resource precheck, called
    every poll for every due configuration. *)

val estimate_start : t -> Request.t -> float option
(** Earliest feasible start for a hypothetical request, [None] if the
    filters match nothing. *)

val on_job_end : t -> (Job.t -> unit) -> unit
(** Register a listener called whenever a job reaches a final state. *)

val utilisation : t -> lo:float -> hi:float -> float
(** Mean node-reservation utilisation over a window. *)

val assigned_busy_consistent : t -> bool
(** Invariant used by the [oarstate] test: every node assigned to a
    Running job is Alive or Deploying/Rebooting under a deploy job, and
    no host is assigned to two running jobs. *)
