(** OAR jobs. *)

type jtype =
  | Default
  | Deploy  (** grants root / Kadeploy rights on the nodes *)
  | Besteffort  (** lowest priority *)

type state =
  | Waiting
  | Scheduled  (** reservation committed, start in the future *)
  | Running
  | Terminated
  | Error  (** e.g. an assigned node died before launch *)
  | Cancelled

type t = {
  id : int;
  user : string;
  jtype : jtype;
  request : Request.t;
  submitted_at : float;
  duration : float;  (** actual work time, [<= walltime] *)
  mutable state : state;
  mutable assigned : string list;
  mutable scheduled_start : float;
  mutable started_at : float option;
  mutable ended_at : float option;
}

val jtype_to_string : jtype -> string
val state_to_string : state -> string
val is_finished : t -> bool
val wait_time : t -> float option
(** Start minus submission, once started. *)
