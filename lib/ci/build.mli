(** Build records, Jenkins-style.

    A build's [result] uses Jenkins' ordering: [Success] < [Unstable] <
    [Failure]; [Aborted]/[Not_built] are administrative.  "Unstable" is
    how the external scheduler marks builds whose testbed job could not
    be scheduled immediately. *)

type result = Success | Unstable | Failure | Aborted | Not_built

type t = {
  job_name : string;
  number : int;
  axes : (string * string) list;  (** matrix coordinates; [] for freestyle *)
  cause : string;  (** who/what triggered it *)
  retry_of : int option;
      (** Matrix-Reloaded lineage: the build number (same job) this
          build retries, [None] for first attempts *)
  queued_at : float;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable result : result option;  (** [None] while queued/running *)
  mutable log : string list;  (** oldest first *)
  mutable artifacts : (string * string) list;  (** name -> content *)
  mutable touched_hosts : string list;
      (** testbed hosts the build's job actually touched (reserved nodes);
          the health loop's blame channel — empty until the script runs *)
}

val result_to_string : result -> string

val worse : result -> result -> result
(** Jenkins severity max (for matrix parents). *)

val is_finished : t -> bool
val duration : t -> float option
val append_log : t -> string -> unit

val touch_hosts : t -> string list -> unit
(** Record hosts the build touched (union, first-seen order kept). *)

val attach_artifact : t -> name:string -> string -> unit
(** Store (or replace) a named artifact, e.g. a measurement CSV. *)

val artifact : t -> string -> string option

val axes_to_string : (string * string) list -> string
(** ["image=debian8,cluster=graphene"] (empty string for []). *)
