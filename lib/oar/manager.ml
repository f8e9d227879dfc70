type submit_error =
  | No_matching_resource
  | Not_immediately_schedulable of float
  | Service_unavailable

(* A matching host, resolved when its filter's cache entry is filled;
   valid while the entry is (DESIGN §10, "Host handles"). *)
type handle = { host : string; node : Testbed.Node.t option; slot : Gantt.slot }

module Filter_cache = Hashtbl.Make (struct
  type t = Expr.t

  let equal = Expr.equal
  let hash = Expr.hash
end)

type t = {
  instance : Testbed.Instance.t;
  props : Property.t;
  gantt : Gantt.t;
  mutable next_id : int;
  mutable queue : Job.t list;
      (* waiting jobs, submission order; a finished job is reachable only
         from its caller, so live state stays bounded by the live jobs *)
  mutable listeners : (Job.t -> unit) list;
  besteffort_scheduled : (int, Job.t) Hashtbl.t;
      (* best-effort jobs currently in [Scheduled], which the release
         scan in [schedule_pass] walks *)
  running : (int, Job.t) Hashtbl.t;
      (* jobs currently in [Running], which consistency checks that run
         on every test round walk *)
  mutable last_prune : float;  (* gantt pruning runs at most hourly *)
  filter_cache : handle array Filter_cache.t;
      (* parsed filter -> matching hosts (sorted); properties change
         rarely, so filter evaluation over 894 hosts is memoised, keyed
         structurally so callers holding a pre-parsed filter never
         re-render it to a string; a refresh re-tests only the changed
         rows *)
  placed : (int, handle list) Hashtbl.t;
      (* each live job's current placement: a best-effort job re-placed
         at its old start is started by the old wake-up, on new hosts *)
  mutable windows : Float.Array.t;  (* [place_group]'s scratch, grown on demand *)
  seen : (string, unit) Hashtbl.t;  (* [assigned_busy_consistent]'s scratch *)
}

let engine t = t.instance.Testbed.Instance.engine
let now t = Simkit.Engine.now (engine t)
let instance t = t.instance
let properties t = t.props

let resolve t host =
  { host; node = Testbed.Instance.find_node t.instance host; slot = Gantt.slot t.gantt host }

let matches t filter host = Expr.eval filter ~props:(Property.props_fun t.props ~host)

let refresh_properties t =
  match
    Property.refresh_from_refapi t.props
      (Testbed.Faults.context t.instance.Testbed.Instance.faults)
  with
  | `Unchanged -> ()
  | `Hosts_added -> Filter_cache.reset t.filter_cache
  | `Rows changed ->
    (* Re-test each entry on the changed rows only, and merge the hosts
       that match into the others in [Property.hosts] (sorted) order. *)
    let by_host a b = String.compare a.host b.host in
    Filter_cache.filter_map_inplace
      (fun filter hosts ->
        let kept = List.filter (fun h -> not (List.mem h.host changed)) (Array.to_list hosts) in
        let matched = List.map (resolve t) (List.filter (matches t filter) changed) in
        Some (Array.of_list (List.merge by_host kept (List.sort by_host matched))))
      t.filter_cache

let create instance =
  let t =
    {
      instance;
      props = Property.create ();
      gantt = Gantt.create ();
      next_id = 1;
      queue = [];
      listeners = [];
      besteffort_scheduled = Hashtbl.create 16;
      running = Hashtbl.create 256;
      last_prune = Float.neg_infinity;
      filter_cache = Filter_cache.create 64;
      placed = Hashtbl.create 256;
      windows = Float.Array.create 0;
      seen = Hashtbl.create 64;
    }
  in
  refresh_properties t;
  t

let running_jobs t =
  Hashtbl.fold (fun _ j acc -> j :: acc) t.running []
  |> List.sort (fun a b -> compare a.Job.id b.Job.id)

let on_job_end t f = t.listeners <- f :: t.listeners

let finish t job state =
  job.Job.state <- state;
  job.Job.ended_at <- Some (now t);
  Hashtbl.remove t.besteffort_scheduled job.Job.id;
  Hashtbl.remove t.running job.Job.id;
  Hashtbl.remove t.placed job.Job.id;
  Gantt.release_job t.gantt ~job:job.Job.id;
  List.iter (fun f -> f job) t.listeners

let matching_hosts_arr t filter =
  match Filter_cache.find_opt t.filter_cache filter with
  | Some hosts -> hosts
  | None ->
    let matched = List.filter (matches t filter) (Property.hosts t.props) in
    let hosts = Array.of_list (List.map (resolve t) matched) in
    Filter_cache.replace t.filter_cache filter hosts;
    hosts

let matching_hosts t filter = Array.to_list (Array.map (fun h -> h.host) (matching_hosts_arr t filter))

(* The per-host tests read the node's live fields and the host's Gantt
   slot through the handle, so they hash nothing and allocate nothing. *)
let is_usable h =
  match h.node with
  | Some node -> node.Testbed.Node.state <> Testbed.Node.Down && Testbed.Node.in_service node
  | None -> false

(* Alive, in service (not sidelined by the health loop), and unreserved
   over the next instant.  Scans take the window as arguments: a float
   computed in a scan's body is boxed again at every call in its loop. *)
let free_now ~start ~stop h =
  match h.node with
  | Some node ->
    Testbed.Node.is_available node
    && Testbed.Node.in_service node
    && Gantt.slot_is_free h.slot ~start ~stop
  | None -> false

let free_matching_now t filter =
  let start = now t in
  let stop = start +. 1.0 in
  let hosts = matching_hosts_arr t filter in
  Array.fold_right (fun h acc -> if free_now ~start ~stop h then h.host :: acc else acc) hosts []

(* Hosts free over the window, counted up to [n]. *)
let count_free ~start ~stop hosts n =
  let len = Array.length hosts in
  let found = ref 0 in
  let i = ref 0 in
  while !found < n && !i < len do
    if free_now ~start ~stop hosts.(!i) then incr found;
    incr i
  done;
  !found

let free_at_least t filter n =
  n <= 0
  ||
  let start = now t in
  count_free ~start ~stop:(start +. 1.0) (matching_hosts_arr t filter) n >= n

(* ---- placement --------------------------------------------------------- *)

(* Where one group can go from [after]: its chosen hosts when [count]
   usable hosts are free at [after] itself, else the earliest later start
   at which they are.  [place_request] searches again from that later
   start, where the first case applies, so the hosts a later start would
   pick are never needed. *)
type group_placement = At_after of handle list | Later of float | Never

(* Whether [needed] usable hosts are free over [\[start, stop)]; stops at
   the [needed]-th.  The window comes in boxed: a [stop] computed here
   would be boxed again for every host. *)
let enough_free ~start ~stop ~needed hosts =
  let len = Array.length hosts in
  let free = ref 0 and i = ref 0 in
  while !free < needed && !i < len do
    let h = hosts.(!i) in
    if is_usable h && Gantt.slot_is_free h.slot ~start ~stop then incr free;
    incr i
  done;
  !free >= needed

(* Restore the min-heap order of [w.(0 .. n-1)] below [i]. *)
let rec sift_down w n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && Float.Array.get w (l + 1) < Float.Array.get w l then l + 1 else l in
    let x = Float.Array.get w i in
    if Float.Array.get w c < x then begin
      Float.Array.set w i (Float.Array.get w c);
      Float.Array.set w c x;
      sift_down w n c
    end
  end

let place_group t ~after ~stop ~duration ~hosts ~count =
  let len = Array.length hosts in
  (* One scan: count the usable hosts, and those free at [after] until
     [needed] are found. *)
  let wanted = match count with `N n -> n | `All -> max_int in
  let usable = ref 0 and free = ref 0 and last = ref (-1) and i = ref 0 in
  while !i < len && !free < wanted do
    let h = hosts.(!i) in
    if is_usable h then begin
      incr usable;
      if Gantt.slot_is_free h.slot ~start:after ~stop then begin
        incr free;
        last := !i
      end
    end;
    incr i
  done;
  (* The scan stops early only once [wanted] hosts are free, so
     otherwise [usable] counts every usable host. *)
  let needed = match count with `N n -> n | `All -> !usable in
  if needed = 0 || (!free < needed && !usable < needed) then Never
  else if !free >= needed then begin
    (* The first [needed] usable hosts free at [after], in matching
       order: walk back from the last one and allocate only them. *)
    let chosen = ref [] in
    for i = !last downto 0 do
      let h = hosts.(i) in
      if is_usable h && Gantt.slot_is_free h.slot ~start:after ~stop then chosen := h :: !chosen
    done;
    At_after !chosen
  end
  else begin
    (* Candidate starts: the usable hosts' next free windows, popped
       ascending without repeats from a min-heap in [t.windows].  They
       are all at or after [after], which is infeasible and skipped. *)
    let n = !usable in
    if Float.Array.length t.windows < n then
      t.windows <- Float.Array.create (max n (2 * Float.Array.length t.windows));
    let w = t.windows in
    let k = ref 0 in
    for i = 0 to len - 1 do
      let h = hosts.(i) in
      if is_usable h then begin
        Gantt.slot_next_free_window_into w !k h.slot ~after ~duration;
        incr k
      end
    done;
    for i = (n / 2) - 1 downto 0 do
      sift_down w n i
    done;
    let size = ref n and previous = ref after and found = ref false in
    while (not !found) && !size > 0 do
      let start = Float.Array.get w 0 in
      decr size;
      Float.Array.set w 0 (Float.Array.get w !size);
      sift_down w !size 0;
      if start <> !previous then begin
        previous := start;
        found := enough_free ~start ~stop:(start +. duration) ~needed hosts
      end
    done;
    if !found then Later !previous
    else begin
      (* All candidate instants collide with reservations that start
         later; fall back to the time when everything is drained.  A
         host's window of infinite length opens at its last stop (or at
         [after] when that is later). *)
      let horizon = ref after in
      for i = 0 to len - 1 do
        let h = hosts.(i) in
        if is_usable h then begin
          Gantt.slot_next_free_window_into w 0 h.slot ~after ~duration:Float.infinity;
          if Float.Array.get w 0 > !horizon then horizon := Float.Array.get w 0
        end
      done;
      let horizon = !horizon in
      if enough_free ~start:horizon ~stop:(horizon +. duration) ~needed hosts then Later horizon
      else Never
    end
  end

(* Find a common start for all groups of a request (fixpoint search). *)
let place_request t ~after request =
  let groups =
    List.map
      (fun g -> (g.Request.count, matching_hosts_arr t g.Request.filter))
      request.Request.groups
  in
  if List.exists (fun (_, hosts) -> Array.length hosts = 0) groups then None
  else begin
    let duration = request.Request.walltime in
    (* One group's chosen hosts are distinct by construction; only
       overlapping filters of several groups can pick a host twice. *)
    let single = match groups with [ _ ] -> true | _ -> false in
    let rec search start attempts =
      (* Propose each group's earliest placement from [start]; if they
         all agree on [start], check disjointness and commit. *)
      let rec propose chosen latest = function
        | (count, hosts) :: rest -> (
          match place_group t ~after:start ~stop:(start +. duration) ~duration ~hosts ~count with
          | Never -> None
          | Later s -> propose chosen (Float.max latest s) rest
          | At_after hosts -> propose (hosts :: chosen) latest rest)
        | [] when latest > start -> search latest (attempts + 1)
        | [] ->
          let all_hosts = List.concat (List.rev chosen) in
          let distinct () =
            let by_host a b = String.compare a.host b.host in
            List.length (List.sort_uniq by_host all_hosts) = List.length all_hosts
          in
          if single || distinct () then Some (start, all_hosts)
          else
            (* Conflicting groups (overlapping filters): nudge forward
               to break the tie on busy hosts. *)
            search (start +. 60.0) (attempts + 1)
      in
      if attempts > 30 then None else propose [] start groups
    in
    search after 0
  end

let estimate_start t request =
  match place_request t ~after:(now t) request with
  | Some (start, _) -> Some start
  | None -> None

(* ---- lifecycle --------------------------------------------------------- *)

let alive h =
  match h.node with Some node -> Testbed.Node.is_available node | None -> false

let rec start_job t job =
  if job.Job.state <> Job.Scheduled then ()
  else if not (List.for_all alive (Hashtbl.find t.placed job.Job.id)) then begin
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
  | Some (start, handles) ->
    let stop = start +. job.Job.request.Request.walltime in
    List.iter (fun h -> Gantt.reserve_slot t.gantt h.slot ~start ~stop ~job:job.Job.id) handles;
    Hashtbl.replace t.placed job.Job.id handles;
    job.Job.assigned <- List.map (fun h -> h.host) handles;
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
     re-placed at the end of this pass).  The live Scheduled set is
     scanned in id (submission) order for determinism. *)
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
          if not (List.memq j t.queue) then t.queue <- t.queue @ [ j ]
        end)
      candidates
  end;
  (* Best-effort jobs go last; otherwise submission order. *)
  let pending = List.filter (fun j -> j.Job.state = Job.Waiting) t.queue in
  let normal, besteffort =
    List.partition (fun j -> j.Job.jtype <> Job.Besteffort) pending
  in
  List.iter
    (fun j ->
      if not (try_place_job t j) then
        (* No feasible placement even in the future (e.g. more nodes
           requested than the cluster can ever line up): reject rather
           than retrying the search on every pass. *)
        finish t j Job.Error)
    (normal @ besteffort);
  t.queue <- List.filter (fun j -> not (List.memq j pending)) t.queue

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
    (* Cheap sanity check first: every group must match at least one
       usable host; the real placement happens in [schedule_pass]. *)
    let matchable =
      List.for_all
        (fun g -> Array.exists is_usable (matching_hosts_arr t g.Request.filter))
        request.Request.groups
    in
    let admitted =
      if not matchable then Error No_matching_resource
      else if not immediate then Ok ()
      else
        match place_request t ~after:(now t) request with
        | None -> Error No_matching_resource
        | Some (start, _) when start > now t +. 1.0 ->
          Error (Not_immediately_schedulable start)
        | Some _ -> Ok ()
    in
    match admitted with
    | Error e -> Error e
    | Ok () ->
      let job =
        {
          Job.id = t.next_id;
          user;
          jtype;
          request;
          submitted_at = now t;
          duration = Option.value ~default:request.Request.walltime duration;
          state = Job.Waiting;
          assigned = [];
          scheduled_start = nan;
          started_at = None;
          ended_at = None;
        }
      in
      t.next_id <- t.next_id + 1;
      t.queue <- t.queue @ [ job ];
      schedule_pass t;
      Ok job
  end

let submit_at t ?(user = "anon") ?(jtype = Job.Default) ?duration ~start request =
  if start < now t then invalid_arg "Manager.submit_at: start in the past";
  let duration = Option.value ~default:request.Request.walltime duration in
  match place_request t ~after:start request with
  | None -> Error No_matching_resource
  | Some (found_start, handles) ->
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
          assigned = List.map (fun h -> h.host) handles;
          scheduled_start = start;
          started_at = None;
          ended_at = None;
        }
      in
      t.next_id <- t.next_id + 1;
      if jtype = Job.Besteffort then
        Hashtbl.replace t.besteffort_scheduled job.Job.id job;
      let stop = start +. request.Request.walltime in
      List.iter (fun h -> Gantt.reserve_slot t.gantt h.slot ~start ~stop ~job:job.Job.id) handles;
      Hashtbl.replace t.placed job.Job.id handles;
      ignore
        (Simkit.Engine.schedule_at (engine t) ~label:"oar" ~time:start (fun _ -> start_job t job));
      Ok job
    end

let cancel t job =
  match job.Job.state with
  | Job.Waiting | Job.Scheduled | Job.Running ->
    finish t job Job.Cancelled;
    t.queue <- List.filter (fun j -> j != job) t.queue;
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
  let seen = t.seen in
  Hashtbl.clear seen;
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
