type result = Success | Unstable | Failure | Aborted | Not_built

type t = {
  job_name : string;
  number : int;
  axes : (string * string) list;
  cause : string;
  retry_of : int option;
  queued_at : float;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable result : result option;
  mutable log : string list;
  mutable artifacts : (string * string) list;
  mutable touched_hosts : string list;
}

let result_to_string = function
  | Success -> "SUCCESS"
  | Unstable -> "UNSTABLE"
  | Failure -> "FAILURE"
  | Aborted -> "ABORTED"
  | Not_built -> "NOT_BUILT"

let severity = function
  | Success -> 0
  | Not_built -> 1
  | Unstable -> 2
  | Aborted -> 3
  | Failure -> 4

let worse a b = if severity a >= severity b then a else b
let is_finished t = t.finished_at <> None

let duration t =
  match (t.started_at, t.finished_at) with
  | Some s, Some f -> Some (f -. s)
  | _ -> None

let append_log t line = t.log <- t.log @ [ line ]

let touch_hosts t hosts =
  t.touched_hosts <-
    t.touched_hosts @ List.filter (fun h -> not (List.mem h t.touched_hosts)) hosts

let attach_artifact t ~name content =
  t.artifacts <- (name, content) :: List.remove_assoc name t.artifacts

let artifact t name = List.assoc_opt name t.artifacts

let axes_to_string axes =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) axes)
