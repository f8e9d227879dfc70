type permission = Read | Trigger | Admin

type trigger_outcome = Queued of int list | Not_found | Disabled | Denied

type pending = { job : Jobdef.t; build : Build.t }

(* One job's retained builds.  [fresh_number] numbers a job's builds
   1, 2, 3... and each is recorded once, so the retained builds are
   numbers [newest - len + 1 .. newest], build [n] sits in slot
   [n mod capacity], and recording overwrites the oldest in place.
   Slots beyond [len] hold filler builds that are never read. *)
type ring = { mutable slots : Build.t array; mutable newest : int; mutable len : int }

type t = {
  engine : Simkit.Engine.t;
  jobs : (string, Jobdef.t) Hashtbl.t;
  mutable queue : pending list;  (* FIFO: head = next to run *)
  history : (string, ring) Hashtbl.t;
  permissions : (string, permission) Hashtbl.t;
  n_executors : int;
  mutable busy : int;
  mutable next_number : (string, int) Hashtbl.t;
  mutable executed : int;
  mutable listeners : (Build.t -> unit) list;
  mutable start_listeners : (Build.t -> unit) list;
  (* Degraded modes driven by the resilience layer (infrastructure
     faults).  During an outage the executors pause: triggers keep
     queueing and are replayed when the outage clears.  While [hang] is
     set, started builds never run their body — only an external
     [interrupt] (the watchdog) finishes them. *)
  mutable in_outage : bool;
  mutable hang : bool;
  mutable deferred : int;  (* builds enqueued while in outage *)
  running : (string * int, Build.result -> unit) Hashtbl.t;
      (* started, unfinished builds -> their finish continuation *)
}

let create ?(executors = 6) engine =
  {
    engine;
    jobs = Hashtbl.create 32;
    queue = [];
    history = Hashtbl.create 32;
    permissions = Hashtbl.create 16;
    n_executors = executors;
    busy = 0;
    next_number = Hashtbl.create 32;
    executed = 0;
    listeners = [];
    start_listeners = [];
    in_outage = false;
    hang = false;
    deferred = 0;
    running = Hashtbl.create 16;
  }

let on_build_complete t f = t.listeners <- f :: t.listeners
let on_build_start t f = t.start_listeners <- f :: t.start_listeners

let engine t = t.engine
let now t = Simkit.Engine.now t.engine

let job_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.jobs [] |> List.sort String.compare

let find_job t name = Hashtbl.find_opt t.jobs name

let enable t name =
  match find_job t name with Some j -> j.Jobdef.enabled <- true | None -> ()

let disable t name =
  match find_job t name with Some j -> j.Jobdef.enabled <- false | None -> ()

let grant t ~user permission = Hashtbl.replace t.permissions user permission
let permission_of t ~user = Hashtbl.find_opt t.permissions user

let slot r number = r.slots.(number mod Array.length r.slots)

(* Newest retained build satisfying [p], searched newest first. *)
let find_newest t name p =
  match Hashtbl.find_opt t.history name with
  | None -> None
  | Some r ->
    let rec scan number =
      if number <= r.newest - r.len then None
      else
        let b = slot r number in
        if p b then Some b else scan (number - 1)
    in
    scan r.newest

let builds t name =
  match Hashtbl.find_opt t.history name with
  | None -> []
  | Some r ->
    let rec collect acc number =
      if number > r.newest then acc else collect (slot r number :: acc) (number + 1)
    in
    collect [] (r.newest - r.len + 1)

let build t name number =
  match Hashtbl.find_opt t.history name with
  | Some r when number <= r.newest && number > r.newest - r.len -> Some (slot r number)
  | _ -> None

let last_build t name = find_newest t name (fun _ -> true)
let last_completed t name = find_newest t name Build.is_finished
let last_of_axes t name ~axes = find_newest t name (fun b -> b.Build.axes = axes)

let queue_length t = List.length t.queue
let busy_executors t = t.busy
let executors t = t.n_executors
let builds_executed t = t.executed

let fresh_number t name =
  let n = Option.value ~default:1 (Hashtbl.find_opt t.next_number name) in
  Hashtbl.replace t.next_number name (n + 1);
  n

let record t build =
  let job_name = build.Build.job_name in
  let retention =
    max 0 (match find_job t job_name with Some j -> j.Jobdef.retention | None -> 200)
  in
  let r =
    match Hashtbl.find_opt t.history job_name with
    | Some r -> r
    | None ->
      let r = { slots = [||]; newest = build.Build.number - 1; len = 0 } in
      Hashtbl.replace t.history job_name r;
      r
  in
  if Array.length r.slots <> retention then begin
    (* First build, or the job was redefined with another retention:
       re-slot the newest builds that still fit. *)
    let kept = min r.len retention in
    let slots = Array.make retention build in
    for number = r.newest - kept + 1 to r.newest do
      slots.(number mod retention) <- slot r number
    done;
    r.slots <- slots;
    r.len <- kept
  end;
  if retention > 0 then begin
    r.slots.(build.Build.number mod retention) <- build;
    r.len <- min (r.len + 1) retention
  end;
  r.newest <- build.Build.number

(* ---- executor pool ------------------------------------------------------ *)

let rec pump t =
  if t.busy < t.n_executors && not t.in_outage then begin
    match t.queue with
    | [] -> ()
    | { job; build } :: rest ->
      t.queue <- rest;
      if build.Build.result <> None then pump t
      else begin
        t.busy <- t.busy + 1;
        build.Build.started_at <- Some (now t);
        let key = (build.Build.job_name, build.Build.number) in
        let finished = ref false in
        let finish result =
          if not !finished then begin
            finished := true;
            Hashtbl.remove t.running key;
            build.Build.result <- Some result;
            build.Build.finished_at <- Some (now t);
            t.busy <- t.busy - 1;
            t.executed <- t.executed + 1;
            List.iter (fun f -> f build) t.listeners;
            pump t
          end
        in
        Hashtbl.replace t.running key finish;
        List.iter (fun f -> f build) t.start_listeners;
        if t.hang then begin
          (* Build_hang fault: the executor is consumed but the body
             never runs; only the watchdog's interrupt frees it. *)
          Build.append_log build "build hung (infrastructure fault)";
          pump t
        end
        else begin
          (try job.Jobdef.body ~engine:t.engine ~build ~finish
           with exn ->
             Build.append_log build ("executor exception: " ^ Printexc.to_string exn);
             finish Build.Failure);
          pump t
        end
      end
  end

let enqueue t job ?(retry_of = None) ~axes ~cause () =
  let build =
    {
      Build.job_name = job.Jobdef.name;
      number = fresh_number t job.Jobdef.name;
      axes;
      cause;
      retry_of;
      queued_at = now t;
      started_at = None;
      finished_at = None;
      result = None;
      log = [];
      artifacts = [];
      touched_hosts = [];
    }
  in
  record t build;
  if t.in_outage then begin
    t.deferred <- t.deferred + 1;
    Build.append_log build "queued during CI outage; will replay on recovery"
  end;
  t.queue <- t.queue @ [ { job; build } ];
  pump t;
  build

let trigger_combinations t job ?(retry_of = None) ~cause combos =
  let numbers =
    List.map (fun axes -> (enqueue t job ~retry_of ~axes ~cause ()).Build.number) combos
  in
  Queued numbers

let trigger t ?(cause = "system") name =
  match find_job t name with
  | None -> Not_found
  | Some job ->
    if not job.Jobdef.enabled then Disabled
    else begin
      match job.Jobdef.kind with
      | Jobdef.Freestyle -> trigger_combinations t job ~cause [ [] ]
      | Jobdef.Matrix axes -> trigger_combinations t job ~cause (Jobdef.combinations axes)
    end

let trigger_as t ~user name =
  match permission_of t ~user with
  | Some (Trigger | Admin) -> trigger t ~cause:("user:" ^ user) name
  | Some Read | None -> Denied

let trigger_subset t ?(cause = "matrix-reloaded") ?retry_of name ~axes =
  match find_job t name with
  | None -> Not_found
  | Some job ->
    if not job.Jobdef.enabled then Disabled
    else trigger_combinations t job ~retry_of ~cause axes

let retry_failed t ?(cause = "matrix-reloaded") name =
  match find_job t name with
  | None -> Not_found
  | Some job -> (
    match job.Jobdef.kind with
    | Jobdef.Freestyle -> (
      match last_completed t name with
      | Some b when b.Build.result <> Some Build.Success ->
        if not job.Jobdef.enabled then Disabled
        else
          Queued
            [ (enqueue t job ~retry_of:(Some b.Build.number) ~axes:[] ~cause ())
                .Build.number ]
      | _ -> Queued [])
    | Jobdef.Matrix axes ->
      let failed =
        Jobdef.combinations axes
        |> List.filter_map (fun combo ->
               match last_of_axes t name ~axes:combo with
               | Some b when Build.is_finished b && b.Build.result <> Some Build.Success
                 -> Some (combo, b.Build.number)
               | _ -> None)
      in
      if failed = [] then Queued []
      else if not job.Jobdef.enabled then Disabled
      else
        Queued
          (List.map
             (fun (combo, src) ->
               (enqueue t job ~retry_of:(Some src) ~axes:combo ~cause ()).Build.number)
             failed))

let abort_build t build =
  if build.Build.started_at = None && build.Build.result = None then begin
    build.Build.result <- Some Build.Aborted;
    build.Build.finished_at <- Some (now t)
  end

(* ---- degraded modes (infrastructure faults) ----------------------------- *)

let outage t = t.in_outage
let deferred_triggers t = t.deferred
let set_hang t hang = t.hang <- hang

let set_outage t down =
  if t.in_outage <> down then begin
    t.in_outage <- down;
    if not down then pump t  (* recovery: replay everything queued *)
  end

let interrupt t build =
  match Hashtbl.find_opt t.running (build.Build.job_name, build.Build.number) with
  | Some finish ->
    Build.append_log build "aborted: exceeded watchdog deadline";
    finish Build.Aborted;
    true
  | None -> false

let drop_queue t =
  let lost = t.queue in
  t.queue <- [];
  List.iter
    (fun { build; _ } ->
      if build.Build.result = None then begin
        Build.append_log build "lost: CI queue wiped (infrastructure fault)";
        build.Build.result <- Some Build.Not_built;
        build.Build.finished_at <- Some (now t);
        (* Notify listeners so schedulers reschedule the lost work. *)
        List.iter (fun f -> f build) t.listeners
      end)
    lost;
  List.length lost

(* ---- log search ---------------------------------------------------------- *)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i = i + n <= m && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let search_logs ?(limit = 200) t ~pattern =
  let hits = ref [] in
  let count = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun build ->
          List.iter
            (fun line ->
              if !count < limit && contains line pattern then begin
                incr count;
                hits := (build, line) :: !hits
              end)
            build.Build.log)
        (builds t name))
    (job_names t);
  List.rev !hits

(* ---- cron triggers ------------------------------------------------------ *)

let arm_cron t job cron =
  let rec arm after =
    let time = Cron.next_fire cron ~after in
    ignore
      (Simkit.Engine.schedule_at t.engine ~label:"ci-cron" ~time (fun _ ->
           let still_current =
             match Hashtbl.find_opt t.jobs job.Jobdef.name with
             | Some registered -> registered == job
             | None -> false
           in
           if job.Jobdef.enabled && still_current then
             ignore (trigger t ~cause:"timer" job.Jobdef.name);
           arm time))
  in
  arm (now t)

let define t job =
  Hashtbl.replace t.jobs job.Jobdef.name job;
  if not (Hashtbl.mem t.next_number job.Jobdef.name) then
    Hashtbl.replace t.next_number job.Jobdef.name 1;
  match job.Jobdef.trigger with Some cron -> arm_cron t job cron | None -> ()

(* ---- REST --------------------------------------------------------------- *)

let build_json b =
  let open Simkit.Json in
  Obj
    [ ("job", String b.Build.job_name);
      ("number", Int b.Build.number);
      ("axes", String (Build.axes_to_string b.Build.axes));
      ("cause", String b.Build.cause);
      ("queued_at", Float b.Build.queued_at);
      ( "result",
        match b.Build.result with
        | Some r -> String (Build.result_to_string r)
        | None -> Null );
      ( "duration",
        match Build.duration b with Some d -> Float d | None -> Null ) ]

let rest t path =
  let open Simkit.Json in
  let segments = String.split_on_char '/' path |> List.filter (( <> ) "") in
  match segments with
  | [ "api"; "json" ] ->
    Ok
      (Obj
         [ ("jobs", List (List.map (fun n -> String n) (job_names t)));
           ("queue_length", Int (queue_length t));
           ("busy_executors", Int t.busy);
           ("executors", Int t.n_executors) ])
  | [ "job"; name; "api"; "json" ] -> (
    match find_job t name with
    | None -> Error "no such job"
    | Some job ->
      Ok
        (Obj
           [ ("name", String name);
             ("enabled", Bool job.Jobdef.enabled);
             ("builds", List (List.map build_json (builds t name))) ]))
  | [ "job"; name; number; "api"; "json" ] -> (
    match int_of_string_opt number with
    | None -> Error "bad build number"
    | Some n -> (
      match build t name n with
      | None -> Error "no such build"
      | Some b -> Ok (build_json b)))
  | _ -> Error "no such endpoint"
