type jtype = Default | Deploy | Besteffort
type state = Waiting | Scheduled | Running | Terminated | Error | Cancelled

type t = {
  id : int;
  user : string;
  jtype : jtype;
  request : Request.t;
  submitted_at : float;
  duration : float;
  mutable state : state;
  mutable assigned : string list;
  mutable scheduled_start : float;
  mutable started_at : float option;
  mutable ended_at : float option;
}

let jtype_to_string = function
  | Default -> "default"
  | Deploy -> "deploy"
  | Besteffort -> "besteffort"

let state_to_string = function
  | Waiting -> "Waiting"
  | Scheduled -> "Scheduled"
  | Running -> "Running"
  | Terminated -> "Terminated"
  | Error -> "Error"
  | Cancelled -> "Cancelled"

let is_finished t =
  match t.state with Terminated | Error | Cancelled -> true | _ -> false

let wait_time t =
  match t.started_at with Some s -> Some (s -. t.submitted_at) | None -> None
