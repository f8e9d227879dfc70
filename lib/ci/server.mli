(** The automation server (Jenkins substitute).

    Provides the benefits the paper lists for keeping Jenkins: a clean
    execution environment per build, a queue that controls overloading
    (bounded executor pool), access control for manual triggering, and
    long-term storage of build history and logs — plus the Matrix Project
    and Matrix Reloaded behaviours the framework relies on. *)

type t

type permission = Read | Trigger | Admin

type trigger_outcome =
  | Queued of int list  (** build numbers created (children for matrix jobs) *)
  | Not_found
  | Disabled
  | Denied  (** missing Trigger permission *)

val create : ?executors:int -> Simkit.Engine.t -> t
(** Default 6 executors. *)

val engine : t -> Simkit.Engine.t

val define : t -> Jobdef.t -> unit
(** Register (or replace) a job; cron triggers are armed immediately. *)

val job_names : t -> string list
val find_job : t -> string -> Jobdef.t option
val enable : t -> string -> unit
val disable : t -> string -> unit

val grant : t -> user:string -> permission -> unit
val permission_of : t -> user:string -> permission option

val trigger : t -> ?cause:string -> string -> trigger_outcome
(** System-initiated trigger (no permission check). *)

val trigger_as : t -> user:string -> string -> trigger_outcome
(** User-initiated trigger through the web interface. *)

val trigger_subset :
  t ->
  ?cause:string ->
  ?retry_of:int ->
  string ->
  axes:(string * string) list list ->
  trigger_outcome
(** Matrix Reloaded: run only the given combinations of a matrix job.
    [retry_of] records the lineage ({!Build.t.retry_of}) on every build
    created. *)

val retry_failed : t -> ?cause:string -> string -> trigger_outcome
(** Matrix Reloaded convenience: re-run every combination whose most
    recent build was not successful.  Each new build's [retry_of] links
    to the build it retries. *)

val builds : t -> string -> Build.t list
(** History, newest first, trimmed to the job's retention. *)

val build : t -> string -> int -> Build.t option
val last_build : t -> string -> Build.t option
val last_completed : t -> string -> Build.t option

val last_of_axes : t -> string -> axes:(string * string) list -> Build.t option
(** Most recent build of one matrix combination. *)

val queue_length : t -> int
(** Entries in the pending queue, in O(1); a build aborted while queued
    counts until an executor pops it. *)

val busy_executors : t -> int
val executors : t -> int
val builds_executed : t -> int

val on_build_complete : t -> (Build.t -> unit) -> unit
(** Register a listener fired whenever any build finishes. *)

val on_build_start : t -> (Build.t -> unit) -> unit
(** Register a listener fired when a build leaves the queue and starts
    executing (the resilience layer arms its watchdog here). *)

val abort_build : t -> Build.t -> unit
(** Mark a queued (not yet started) build {!Build.Aborted}. *)

(** {2 Degraded modes}

    The server survives its own infrastructure faults instead of
    crashing.  These switches are driven by the framework's resilience
    layer from the testbed fault flags. *)

val set_outage : t -> bool -> unit
(** Entering an outage pauses the executors: triggers are accepted and
    queue up (see {!deferred_triggers}).  Leaving it replays the whole
    queue. *)

val outage : t -> bool

val deferred_triggers : t -> int
(** Builds enqueued while in outage (replayed on recovery). *)

val set_hang : t -> bool -> unit
(** While set, builds that start never run their body — they occupy an
    executor until {!interrupt} (normally the watchdog) finishes them. *)

val interrupt : t -> Build.t -> bool
(** Abort a started, unfinished build: finishes it {!Build.Aborted}
    through the normal completion path (listeners fire, the executor is
    freed, the queue pumps).  [false] if the build is not running. *)

val drop_queue : t -> int
(** Queue-loss fault: wipe the pending queue, marking every queued build
    {!Build.Not_built} and notifying completion listeners so schedulers
    reschedule the lost work.  Returns the number of builds dropped. *)

val search_logs :
  ?limit:int -> t -> pattern:string -> (Build.t * string) list
(** Substring search over every retained build log (the paper's
    "long-term storage of results history and test logs" benefit):
    returns (build, matching line), capped at [limit] (default 200)
    hits, jobs in name order, each job newest build first. *)

val rest : t -> string -> (Simkit.Json.t, string) result
(** Minimal REST API: [/api/json] (jobs + queue), [/job/<name>/api/json]
    (recent builds), [/job/<name>/<number>/api/json] (one build). *)
