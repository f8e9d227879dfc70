type submit_error =
  | No_matching_resource
  | Not_immediately_schedulable of float
  | Service_unavailable

module Filter_cache = Hashtbl.Make (struct
  type t = Expr.t

  let equal = Expr.equal
  let hash = Expr.hash
end)

type t = {
  instance : Testbed.Instance.t;
  props : Property.t;
  gantt : Gantt.t;
  jobs : (int, Job.t) Hashtbl.t;
  mutable next_id : int;
  mutable queue : int list;  (* waiting job ids, submission order *)
  mutable listeners : (Job.t -> unit) list;
  besteffort_scheduled : (int, Job.t) Hashtbl.t;
      (* best-effort jobs currently in [Scheduled]: the release scan in
         [schedule_pass] walks this live set instead of every job ever
         submitted *)
  running : (int, Job.t) Hashtbl.t;
      (* jobs currently in [Running], so consistency checks that run on
         every test round stay O(live) as the job history grows *)
  mutable last_prune : float;  (* gantt pruning runs at most hourly *)
  filter_cache : string array Filter_cache.t;
      (* parsed filter -> matching hosts (sorted); properties change
         rarely (only refreshes that change a row reset it), so filter
         evaluation over 894 hosts is memoised, keyed structurally so
         callers holding a pre-parsed filter never re-render it to a
         string *)
}

let engine t = t.instance.Testbed.Instance.engine
let now t = Simkit.Engine.now (engine t)
let instance t = t.instance
let properties t = t.props

let refresh_properties t =
  if
    Property.refresh_from_refapi t.props
      (Testbed.Faults.context t.instance.Testbed.Instance.faults)
  then Filter_cache.reset t.filter_cache

let create instance =
  let t =
    {
      instance;
      props = Property.create ();
      gantt = Gantt.create ();
      jobs = Hashtbl.create 256;
      next_id = 1;
      queue = [];
      listeners = [];
      besteffort_scheduled = Hashtbl.create 16;
      running = Hashtbl.create 256;
      last_prune = Float.neg_infinity;
      filter_cache = Filter_cache.create 64;
    }
  in
  refresh_properties t;
  t

let job t id = Hashtbl.find_opt t.jobs id

let jobs t =
  Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs []
  |> List.sort (fun a b -> compare a.Job.id b.Job.id)

let running_jobs t =
  Hashtbl.fold (fun _ j acc -> j :: acc) t.running []
  |> List.sort (fun a b -> compare a.Job.id b.Job.id)

let on_job_end t f = t.listeners <- f :: t.listeners

let finish t job state =
  job.Job.state <- state;
  job.Job.ended_at <- Some (now t);
  Hashtbl.remove t.besteffort_scheduled job.Job.id;
  Hashtbl.remove t.running job.Job.id;
  Gantt.release_job t.gantt ~job:job.Job.id;
  List.iter (fun f -> f job) t.listeners

let matching_hosts_arr t filter =
  match Filter_cache.find_opt t.filter_cache filter with
  | Some hosts -> hosts
  | None ->
    let hosts =
      Property.hosts t.props
      |> List.filter (fun host ->
             Expr.eval filter ~props:(Property.props_fun t.props ~host))
      |> Array.of_list
    in
    Filter_cache.replace t.filter_cache filter hosts;
    hosts

let matching_hosts t filter = Array.to_list (matching_hosts_arr t filter)

let host_usable t host =
  match Testbed.Instance.find_node t.instance host with
  | Some node ->
    node.Testbed.Node.state <> Testbed.Node.Down && Testbed.Node.in_service node
  | None -> false

(* Alive, in service (not sidelined by the health loop), and unreserved
   for the next instant. *)
let host_free_now t ~time host =
  match Testbed.Instance.find_node t.instance host with
  | Some node ->
    Testbed.Node.is_available node
    && Testbed.Node.in_service node
    && Gantt.is_free t.gantt ~host ~start:time ~stop:(time +. 1.0)
  | None -> false

let free_matching_now t filter =
  let time = now t in
  let hosts = matching_hosts_arr t filter in
  Array.fold_right
    (fun host acc -> if host_free_now t ~time host then host :: acc else acc)
    hosts []

let free_at_least t filter n =
  n <= 0
  ||
  let time = now t in
  let hosts = matching_hosts_arr t filter in
  let len = Array.length hosts in
  let found = ref 0 in
  let i = ref 0 in
  while !found < n && !i < len do
    if host_free_now t ~time hosts.(!i) then incr found;
    incr i
  done;
  !found >= n

(* ---- placement --------------------------------------------------------- *)

(* The first [needed] of [hosts], in order, that are free over
   [\[start, start + duration)]. *)
let first_free t ~start ~duration ~needed hosts =
  let stop = start +. duration in
  let rec take acc taken = function
    | _ when taken >= needed -> Some (List.rev acc)
    | [] -> None
    | h :: rest ->
      if Gantt.is_free t.gantt ~host:h ~start ~stop then take (h :: acc) (taken + 1) rest
      else take acc taken rest
  in
  take [] 0 hosts

(* Earliest time >= after when [n] of [hosts] are simultaneously free for
   [duration]; also returns the chosen hosts. *)
let place_group t ~after ~duration ~hosts ~count =
  let usable = List.filter (host_usable t) hosts in
  let needed =
    match count with `N n -> n | `All -> List.length usable
  in
  if needed = 0 || List.length usable < needed then None
  else
    (* [after] is the earliest candidate of the window search below, a
       host's next window starts at [after] exactly when it is free from
       [after], and the window sort is stable: so that search would take
       the first [needed] usable hosts, in matching order, free at
       [after].  Try them before building and sorting the windows. *)
    match first_free t ~start:after ~duration ~needed usable with
    | Some chosen -> Some (after, chosen)
    | None ->
      let windows =
        List.map (fun h -> (h, Gantt.next_free_window t.gantt ~host:h ~after ~duration)) usable
        (* Earliest-available hosts first, so the early-exit scan below
           finds small placements without touching the whole pool. *)
        |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
      in
      let by_window = List.map fst windows in
      (* Candidate start instants: each host's next window start. *)
      let candidates =
        List.sort_uniq Float.compare (after :: List.map snd windows)
      in
      let feasible_at start = first_free t ~start ~duration ~needed by_window in
      let rec try_candidates = function
        | [] -> None
        | start :: rest -> (
          match feasible_at start with
          | Some chosen -> Some (start, chosen)
          | None -> try_candidates rest)
      in
      match try_candidates candidates with
      | Some placement -> Some placement
      | None ->
        (* All candidate instants collide with reservations that start
           later; fall back to the time when everything is drained. *)
        let horizon =
          List.fold_left
            (fun acc h ->
              let reservations = Gantt.reservations t.gantt ~host:h in
              List.fold_left (fun acc (_, stop, _) -> Float.max acc stop) acc reservations)
            after by_window
        in
        (match feasible_at horizon with
         | Some chosen -> Some (horizon, chosen)
         | None -> None)

(* Find a common start for all groups of a request (fixpoint search). *)
let place_request t ~after request =
  let groups =
    List.map
      (fun g -> (g, matching_hosts t g.Request.filter))
      request.Request.groups
  in
  if List.exists (fun (_, hosts) -> hosts = []) groups then None
  else begin
    let duration = request.Request.walltime in
    let rec search start attempts =
      if attempts > 30 then None
      else begin
        (* Propose each group's earliest placement from [start]; if they
           all agree on [start], check disjointness and commit. *)
        let placements =
          List.map
            (fun (g, hosts) ->
              place_group t ~after:start ~duration ~hosts ~count:g.Request.count)
            groups
        in
        if List.exists (fun p -> p = None) placements then None
        else begin
          let placements = List.filter_map Fun.id placements in
          let latest =
            List.fold_left (fun acc (s, _) -> Float.max acc s) start placements
          in
          if latest > start then search latest (attempts + 1)
          else begin
            (* Same start everywhere; ensure no host double-assigned
               across groups. *)
            let all_hosts = List.concat_map snd placements in
            let distinct = List.sort_uniq String.compare all_hosts in
            if List.length distinct = List.length all_hosts then
              Some (start, all_hosts)
            else begin
              (* Conflicting groups (overlapping filters): nudge forward
                 to break the tie on busy hosts. *)
              search (start +. 60.0) (attempts + 1)
            end
          end
        end
      end
    in
    search after 0
  end

let estimate_start t request =
  match place_request t ~after:(now t) request with
  | Some (start, _) -> Some start
  | None -> None

(* ---- lifecycle --------------------------------------------------------- *)

let rec start_job t job =
  let alive host =
    match Testbed.Instance.find_node t.instance host with
    | Some node -> Testbed.Node.is_available node
    | None -> false
  in
  if job.Job.state <> Job.Scheduled then ()
  else if not (List.for_all alive job.Job.assigned) then begin
    (* A reserved node died before launch: the job errors out; its
       remaining reservation is released.  This is one of the paper's
       "unreliable services" experiences for users. *)
    finish t job Job.Error;
    schedule_pass t
  end
  else begin
    job.Job.state <- Job.Running;
    job.Job.started_at <- Some (now t);
    Hashtbl.remove t.besteffort_scheduled job.Job.id;
    Hashtbl.replace t.running job.Job.id job;
    let run_time = Float.min job.Job.duration job.Job.request.Request.walltime in
    ignore
      (Simkit.Engine.schedule (engine t) ~label:"oar" ~delay:run_time (fun _ ->
           if job.Job.state = Job.Running then begin
             finish t job Job.Terminated;
             schedule_pass t
           end))
  end

and try_place_job t job =
  match place_request t ~after:(now t) job.Job.request with
  | None -> false
  | Some (start, hosts) ->
    let stop = start +. job.Job.request.Request.walltime in
    List.iter
      (fun host -> Gantt.reserve t.gantt ~host ~start ~stop ~job:job.Job.id)
      hosts;
    job.Job.assigned <- hosts;
    job.Job.scheduled_start <- start;
    job.Job.state <- Job.Scheduled;
    if job.Job.jtype = Job.Besteffort then
      Hashtbl.replace t.besteffort_scheduled job.Job.id job;
    if start <= now t +. 1e-6 then start_job t job
    else begin
      (* Best-effort reservations can be re-placed before they start; the
         stale wake-up must then not fire, so it checks the slot it was
         armed for. *)
      let armed_for = start in
      ignore
        (Simkit.Engine.schedule_at (engine t) ~label:"oar" ~time:start (fun _ ->
             if job.Job.scheduled_start = armed_for then start_job t job))
    end;
    true

and schedule_pass t =
  let current = now t in
  (* Expired intervals can never collide with future placements, so
     pruning more than once per simulated hour is pure overhead. *)
  if current -. t.last_prune >= 3600.0 then begin
    t.last_prune <- current;
    Gantt.prune t.gantt ~before:(current -. 3600.0)
  end;
  (* Best-effort reservations that have not started yet are fair game:
     release them so higher-priority jobs can take their slots (they are
     re-placed at the end of this pass).  Only the live Scheduled set is
     scanned — not every job ever submitted — in id (submission) order
     for determinism. *)
  if Hashtbl.length t.besteffort_scheduled > 0 then begin
    let candidates =
      Hashtbl.fold (fun _ j acc -> j :: acc) t.besteffort_scheduled []
      |> List.sort (fun a b -> compare a.Job.id b.Job.id)
    in
    List.iter
      (fun j ->
        if
          j.Job.state = Job.Scheduled
          && j.Job.started_at = None
          && j.Job.scheduled_start > current +. 1.0
        then begin
          Hashtbl.remove t.besteffort_scheduled j.Job.id;
          Gantt.release_job t.gantt ~job:j.Job.id;
          j.Job.assigned <- [];
          j.Job.state <- Job.Waiting;
          if not (List.mem j.Job.id t.queue) then t.queue <- t.queue @ [ j.Job.id ]
        end)
      candidates
  end;
  (* Best-effort jobs go last; otherwise submission order. *)
  let pending =
    List.filter_map (job t) t.queue
    |> List.filter (fun j -> j.Job.state = Job.Waiting)
  in
  let normal, besteffort =
    List.partition (fun j -> j.Job.jtype <> Job.Besteffort) pending
  in
  let done_ids =
    List.filter_map
      (fun j ->
        if try_place_job t j then Some j.Job.id
        else begin
          (* No feasible placement even in the future (e.g. more nodes
             requested than the cluster can ever line up): reject rather
             than retrying the search on every pass. *)
          finish t j Job.Error;
          Some j.Job.id
        end)
      (normal @ besteffort)
  in
  t.queue <- List.filter (fun id -> not (List.mem id done_ids)) t.queue

let submit t ?(user = "anon") ?(jtype = Job.Default) ?duration ?(immediate = false)
    request =
  let site_ok =
    (* The submission goes through one site's OAR server; model a global
       front-end that needs at least one site's OAR to be up. *)
    List.exists
      (fun site -> Testbed.Services.use t.instance.Testbed.Instance.services ~site Testbed.Services.Oar)
      Testbed.Inventory.sites
  in
  if not site_ok then Error Service_unavailable
  else begin
    let duration = Option.value ~default:request.Request.walltime duration in
    let job =
      {
        Job.id = t.next_id;
        user;
        jtype;
        request;
        submitted_at = now t;
        duration;
        state = Job.Waiting;
        assigned = [];
        scheduled_start = nan;
        started_at = None;
        ended_at = None;
      }
    in
    (* Cheap sanity check first: every group must match at least one
       usable host; the real placement happens in [schedule_pass]. *)
    let matchable =
      List.for_all
        (fun g -> List.exists (host_usable t) (matching_hosts t g.Request.filter))
        request.Request.groups
    in
    if not matchable then Error No_matching_resource
    else if immediate then begin
      match place_request t ~after:(now t) request with
      | None -> Error No_matching_resource
      | Some (start, _) when start > now t +. 1.0 ->
        Error (Not_immediately_schedulable start)
      | Some _ ->
        t.next_id <- t.next_id + 1;
        Hashtbl.replace t.jobs job.Job.id job;
        t.queue <- t.queue @ [ job.Job.id ];
        schedule_pass t;
        Ok job
    end
    else begin
      t.next_id <- t.next_id + 1;
      Hashtbl.replace t.jobs job.Job.id job;
      t.queue <- t.queue @ [ job.Job.id ];
      schedule_pass t;
      Ok job
    end
  end

let submit_at t ?(user = "anon") ?(jtype = Job.Default) ?duration ~start request =
  if start < now t then invalid_arg "Manager.submit_at: start in the past";
  let duration = Option.value ~default:request.Request.walltime duration in
  match place_request t ~after:start request with
  | None -> Error No_matching_resource
  | Some (found_start, hosts) ->
    if found_start > start +. 1e-6 then Error (Not_immediately_schedulable found_start)
    else begin
      let job =
        {
          Job.id = t.next_id;
          user;
          jtype;
          request;
          submitted_at = now t;
          duration;
          state = Job.Scheduled;
          assigned = hosts;
          scheduled_start = start;
          started_at = None;
          ended_at = None;
        }
      in
      t.next_id <- t.next_id + 1;
      Hashtbl.replace t.jobs job.Job.id job;
      if jtype = Job.Besteffort then
        Hashtbl.replace t.besteffort_scheduled job.Job.id job;
      let stop = start +. request.Request.walltime in
      List.iter (fun host -> Gantt.reserve t.gantt ~host ~start ~stop ~job:job.Job.id) hosts;
      ignore
        (Simkit.Engine.schedule_at (engine t) ~label:"oar" ~time:start (fun _ -> start_job t job));
      Ok job
    end

let cancel t job =
  match job.Job.state with
  | Job.Waiting | Job.Scheduled | Job.Running ->
    finish t job Job.Cancelled;
    t.queue <- List.filter (fun id -> id <> job.Job.id) t.queue;
    schedule_pass t
  | Job.Terminated | Job.Error | Job.Cancelled -> ()

let utilisation t ~lo ~hi =
  let hosts = Property.hosts t.props in
  match hosts with
  | [] -> 0.0
  | _ ->
    let total =
      List.fold_left (fun acc host -> acc +. Gantt.utilisation t.gantt ~host ~lo ~hi) 0.0 hosts
    in
    total /. float_of_int (List.length hosts)

let assigned_busy_consistent t =
  let running = running_jobs t in
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun job ->
      List.for_all
        (fun host ->
          let fresh = not (Hashtbl.mem seen host) in
          Hashtbl.replace seen host ();
          let node_ok =
            match Testbed.Instance.find_node t.instance host with
            | Some node -> (
              match node.Testbed.Node.state with
              | Testbed.Node.Alive -> true
              | Testbed.Node.Deploying | Testbed.Node.Rebooting ->
                job.Job.jtype = Job.Deploy
              | Testbed.Node.Down -> false)
            | None -> false
          in
          fresh && node_ok)
        job.Job.assigned)
    running
