type policy = {
  poll_period : float;
  avoid_peak_hours : bool;
  one_job_per_site : bool;
  precheck_resources : bool;
  use_backoff : bool;
  retry_budget : int;
  backoff_jitter : float;
  breaker : Resilience.Breaker.config option;
}

let smart_policy =
  {
    poll_period = 600.0;
    avoid_peak_hours = true;
    one_job_per_site = true;
    precheck_resources = true;
    use_backoff = true;
    retry_budget = max_int;
    backoff_jitter = 0.0;
    breaker = None;
  }

let naive_policy =
  {
    poll_period = 600.0;
    avoid_peak_hours = false;
    one_job_per_site = false;
    precheck_resources = false;
    use_backoff = false;
    retry_budget = max_int;
    backoff_jitter = 0.0;
    breaker = None;
  }

type stats = {
  polls : int;
  triggered : int;
  completed_success : int;
  completed_failure : int;
  completed_unstable : int;
  skipped_peak : int;
  skipped_site_busy : int;
  skipped_no_resources : int;
  skipped_quarantined : int;
  skipped_breaker_open : int;
  retries_exhausted : int;
  retries_spent : int;
  breaker_trips : int;
}

(* Resource precheck, pre-compiled per configuration at enable time so
   the poll loop never re-formats or re-parses an OAR filter. *)
type precheck =
  | Always
  | Free_at_least of Oar.Expr.t * int
  | All_free of Oar.Expr.t list  (* one node on each cluster of a site *)
  | Cluster_free of Testbed.Node.t array * Oar.Expr.t
      (* every usable node of the cluster simultaneously free *)

type entry = {
  config : Testdef.config;
  site : string option;
      (* resolved anti-affinity site ({!Testdef.effective_site}) *)
  precheck : precheck;
  mutable next_due : float;
  retry : Resilience.Retry.t;
  mutable in_flight : bool;
  mutable retry_src : int option;
      (* last non-successful build of this configuration, linked as
         [retry_of] when the configuration is re-triggered *)
  mutable gen : int;
      (* generation of the entry's live copy in the due-queue; older
         heap copies are discarded lazily on pop *)
}

type t = {
  env : Env.t;
  pol : policy;
  indexed : bool;
  entries : (string, entry) Hashtbl.t;  (* config_id -> entry *)
  due : (entry * int) Simkit.Heap.t;
      (* due-queue keyed by next_due; each reschedule pushes a fresh
         (entry, gen) copy and bumps entry.gen, so a poll only touches
         due entries instead of sorting the whole catalog *)
  site_busy : (string, int) Hashtbl.t;
      (* site -> node-consuming tests in flight, maintained incrementally
         on trigger/completion instead of rescanning all entries *)
  breakers : (string, Resilience.Breaker.t) Hashtbl.t;  (* family name *)
  mutable families : Testdef.family list;
  mutable started : bool;
  rng : Simkit.Prng.t;
  mutable polls : int;
  mutable triggered : int;
  mutable completed_success : int;
  mutable completed_failure : int;
  mutable completed_unstable : int;
  mutable skipped_peak : int;
  mutable skipped_site_busy : int;
  mutable skipped_no_resources : int;
  mutable skipped_quarantined : int;
  mutable skipped_breaker_open : int;
  mutable retries_exhausted : int;
  mutable quarantined_probe : (Testdef.config -> bool) option;
      (* set by the health supervisor: does this configuration's resource
         pool currently contain sidelined nodes?  Used only to attribute
         precheck misses to the right counter *)
}

let policy t = t.pol

let retries_spent t =
  Hashtbl.fold
    (fun _ e acc -> acc + Resilience.Retry.total_spent e.retry)
    t.entries 0

let breaker_trips t =
  Hashtbl.fold (fun _ b acc -> acc + Resilience.Breaker.trips b) t.breakers 0

let stats t =
  {
    polls = t.polls;
    triggered = t.triggered;
    completed_success = t.completed_success;
    completed_failure = t.completed_failure;
    completed_unstable = t.completed_unstable;
    skipped_peak = t.skipped_peak;
    skipped_site_busy = t.skipped_site_busy;
    skipped_no_resources = t.skipped_no_resources;
    skipped_quarantined = t.skipped_quarantined;
    skipped_breaker_open = t.skipped_breaker_open;
    retries_exhausted = t.retries_exhausted;
    retries_spent = retries_spent t;
    breaker_trips = breaker_trips t;
  }

let breaker_of t family =
  match t.pol.breaker with
  | None -> None
  | Some cfg ->
    let key = Testdef.family_to_string family in
    (match Hashtbl.find_opt t.breakers key with
     | Some b -> Some b
     | None ->
       let b = Resilience.Breaker.create cfg in
       Hashtbl.replace t.breakers key b;
       Some b)

(* ---- due-queue and busy-site bookkeeping ------------------------------- *)

let push_due t entry =
  if t.indexed then begin
    entry.gen <- entry.gen + 1;
    Simkit.Heap.push t.due ~key:entry.next_due (entry, entry.gen)
  end

let set_next_due t entry time =
  entry.next_due <- time;
  push_due t entry

let site_is_busy t site =
  match Hashtbl.find_opt t.site_busy site with Some n -> n > 0 | None -> false

let mark_site_busy t site =
  let n = Option.value ~default:0 (Hashtbl.find_opt t.site_busy site) in
  Hashtbl.replace t.site_busy site (n + 1)

let unmark_site_busy t site =
  match Hashtbl.find_opt t.site_busy site with
  | Some n when n > 1 -> Hashtbl.replace t.site_busy site (n - 1)
  | Some _ -> Hashtbl.remove t.site_busy site
  | None -> ()

let busy_sites t =
  Hashtbl.fold
    (fun site n acc -> if n > 0 then site :: acc else acc)
    t.site_busy []
  |> List.sort String.compare

let consumes_nodes entry =
  Testdef.need entry.config.Testdef.family <> Testdef.No_nodes

(* Backoff: hand out the entry's next retry delay, falling back to the
   base period when the retry budget is exhausted. *)
let backoff_delay t entry ~base =
  match Resilience.Retry.next_delay entry.retry with
  | Some d -> d
  | None ->
    t.retries_exhausted <- t.retries_exhausted + 1;
    Resilience.Retry.reset entry.retry;
    base

let on_completed t build =
  match Jobs.config_of_build build with
  | None -> ()
  | Some config -> (
    match Hashtbl.find_opt t.entries config.Testdef.config_id with
    | None -> ()
    | Some entry ->
      if entry.in_flight && consumes_nodes entry then
        Option.iter (unmark_site_busy t) entry.site;
      entry.in_flight <- false;
      let now = Env.now t.env in
      let base = Testdef.base_period config.Testdef.family in
      (match build.Ci.Build.result with
       | Some Ci.Build.Success ->
         t.completed_success <- t.completed_success + 1;
         Resilience.Retry.reset entry.retry;
         entry.retry_src <- None;
         (match breaker_of t config.Testdef.family with
          | Some b -> Resilience.Breaker.record_success b
          | None -> ());
         entry.next_due <- now +. base
       | Some Ci.Build.Unstable ->
         t.completed_unstable <- t.completed_unstable + 1;
         entry.retry_src <- Some build.Ci.Build.number;
         if t.pol.use_backoff then
           entry.next_due <- now +. backoff_delay t entry ~base
         else entry.next_due <- now +. t.pol.poll_period
       | Some (Ci.Build.Failure | Ci.Build.Aborted | Ci.Build.Not_built) | None ->
         t.completed_failure <- t.completed_failure + 1;
         entry.retry_src <- Some build.Ci.Build.number;
         Resilience.Retry.reset entry.retry;
         (match breaker_of t config.Testdef.family with
          | Some b -> Resilience.Breaker.record_failure b ~now
          | None -> ());
         (* Re-test failures sooner: confirm the problem, then confirm
            the fix. *)
         entry.next_due <- now +. base);
      push_due t entry)

let create ?(policy = smart_policy) ?(indexed = true) env =
  let t =
    {
      env;
      pol = policy;
      indexed;
      entries = Hashtbl.create 1024;
      due = Simkit.Heap.create ();
      site_busy = Hashtbl.create 16;
      breakers = Hashtbl.create 16;
      families = [];
      started = false;
      rng = Simkit.Prng.split (Simkit.Engine.rng (Env.engine env));
      polls = 0;
      triggered = 0;
      completed_success = 0;
      completed_failure = 0;
      completed_unstable = 0;
      skipped_peak = 0;
      skipped_site_busy = 0;
      skipped_no_resources = 0;
      skipped_quarantined = 0;
      skipped_breaker_open = 0;
      retries_exhausted = 0;
      quarantined_probe = None;
    }
  in
  Ci.Server.on_build_complete env.Env.ci (fun build -> on_completed t build);
  t

let set_health_probe t probe = t.quarantined_probe <- Some probe

let precheck_of instance config =
  let parse = Oar.Expr.parse_exn in
  match Testdef.need config.Testdef.family with
  | Testdef.No_nodes -> Always
  | Testdef.One_node -> (
    match config.Testdef.family with
    | Testdef.Kwapi ->
      Free_at_least
        ( parse
            (Printf.sprintf "site='%s' and wattmeter='YES'"
               (Option.get config.Testdef.site)),
          1 )
    | _ -> Free_at_least (parse (Testdef.oar_filter config), 1))
  | Testdef.Two_nodes ->
    let site = Option.get (Testdef.effective_site config) in
    Free_at_least (parse (Printf.sprintf "site='%s'" site), 2)
  | Testdef.Site_spread ->
    let site = Option.get config.Testdef.site in
    All_free
      (List.map
         (fun spec ->
           parse (Printf.sprintf "cluster='%s'" spec.Testbed.Inventory.cluster))
         (Testbed.Inventory.clusters_of_site site))
  | Testdef.Whole_cluster ->
    let cluster = Option.get config.Testdef.cluster in
    Cluster_free
      ( Array.of_list (Testbed.Instance.nodes_of_cluster instance cluster),
        parse (Printf.sprintf "cluster='%s'" cluster) )

let enable_family t family =
  if not (List.mem family t.families) then begin
    t.families <- t.families @ [ family ];
    let now = Env.now t.env in
    let base = Testdef.base_period family in
    List.iter
      (fun config ->
        if not (Hashtbl.mem t.entries config.Testdef.config_id) then begin
          let retry =
            Resilience.Retry.create
              ~seed:(Int64.of_int (Hashtbl.hash config.Testdef.config_id))
              {
                Resilience.Retry.default with
                jitter = t.pol.backoff_jitter;
                budget = t.pol.retry_budget;
              }
          in
          let entry =
            {
              config;
              site = Testdef.effective_site config;
              precheck = precheck_of t.env.Env.instance config;
              (* Stagger initial runs across one base period. *)
              next_due = now +. (Simkit.Prng.float t.rng *. base);
              retry;
              in_flight = false;
              retry_src = None;
              gen = 0;
            }
          in
          Hashtbl.replace t.entries config.Testdef.config_id entry;
          push_due t entry
        end)
      (Testdef.expand family)
  end

let enabled_families t = t.families

let due_count t time =
  Hashtbl.fold
    (fun _ e acc -> if (not e.in_flight) && e.next_due <= time then acc + 1 else acc)
    t.entries 0

let resources_available t entry =
  let oar = t.env.Env.oar in
  match entry.precheck with
  | Always -> true
  | Free_at_least (filter, n) -> Oar.Manager.free_at_least oar filter n
  | All_free filters ->
    List.for_all (fun filter -> Oar.Manager.free_at_least oar filter 1) filters
  | Cluster_free (nodes, filter) ->
    let usable =
      Array.fold_left
        (fun acc node ->
          if
            node.Testbed.Node.state <> Testbed.Node.Down
            && Testbed.Node.in_service node
          then acc + 1
          else acc)
        0 nodes
    in
    usable > 0 && Oar.Manager.free_at_least oar filter usable

let consider t entry =
  let now = Env.now t.env in
  let config = entry.config in
  let consumes_nodes = consumes_nodes entry in
  if entry.in_flight || entry.next_due > now then ()
  else if
    match breaker_of t config.Testdef.family with
    | Some b -> not (Resilience.Breaker.allow b ~now)
    | None -> false
  then begin
    (* Circuit open for this family: don't pile more work on it. *)
    t.skipped_breaker_open <- t.skipped_breaker_open + 1;
    set_next_due t entry (now +. t.pol.poll_period)
  end
  else if t.pol.avoid_peak_hours && consumes_nodes && Simkit.Calendar.is_peak_hours now
  then begin
    (* Count the skip once per due-window, and sleep through the rest of
       the user window — the entry becomes due again the moment peak
       hours end, so "run as soon as peak ends" is preserved while the
       counter stops inflating on every poll. *)
    t.skipped_peak <- t.skipped_peak + 1;
    set_next_due t entry (Simkit.Calendar.peak_end now)
  end
  else if
    t.pol.one_job_per_site && consumes_nodes
    &&
    match entry.site with
    | Some site -> site_is_busy t site
    | None -> false
  then begin
    t.skipped_site_busy <- t.skipped_site_busy + 1;
    set_next_due t entry (now +. t.pol.poll_period)
  end
  else if t.pol.precheck_resources && not (resources_available t entry) then begin
    (match t.quarantined_probe with
     | Some probe when consumes_nodes && probe config ->
       t.skipped_quarantined <- t.skipped_quarantined + 1
     | _ -> t.skipped_no_resources <- t.skipped_no_resources + 1);
    if t.pol.use_backoff then
      set_next_due t entry
        (now
        +. backoff_delay t entry ~base:(Testdef.base_period config.Testdef.family))
    else set_next_due t entry (now +. t.pol.poll_period)
  end
  else begin
    (* Mark in flight BEFORE triggering: a build body that completes
       synchronously fires the completion listener inside trigger_subset,
       and that listener must see the entry in flight to unwind it —
       marking afterwards left the entry (and its anti-affinity site)
       busy forever.  Found by Scheduler.audit_check. *)
    entry.in_flight <- true;
    if consumes_nodes then Option.iter (mark_site_busy t) entry.site;
    match
      Ci.Server.trigger_subset t.env.Env.ci ~cause:"external-scheduler"
        ?retry_of:entry.retry_src
        (Jobs.job_name config.Testdef.family)
        ~axes:[ Testdef.axes_of_config config ]
    with
    | Ci.Server.Queued _ -> t.triggered <- t.triggered + 1
    | Ci.Server.Not_found | Ci.Server.Disabled | Ci.Server.Denied ->
      entry.in_flight <- false;
      if consumes_nodes then Option.iter (unmark_site_busy t) entry.site;
      set_next_due t entry (now +. t.pol.poll_period)
  end

let compare_entries a b =
  String.compare a.config.Testdef.config_id b.config.Testdef.config_id

(* Reference path (and E12 baseline): rebuild the busy table by rescanning
   every entry, then consider the whole catalog in config-id order — what
   the scheduler did before the due-queue. *)
let poll_linear t =
  Hashtbl.reset t.site_busy;
  Hashtbl.iter
    (fun _ e ->
      if e.in_flight && consumes_nodes e then Option.iter (mark_site_busy t) e.site)
    t.entries;
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort compare_entries
  |> List.iter (consider t)

(* Indexed path: pop the due prefix of the heap.  Deterministic order:
   ties (and everything due in the same poll window) are considered in
   config-id order, exactly like the linear scan — non-due entries were
   no-ops there. *)
let poll_indexed t =
  let now = Env.now t.env in
  let rec drain acc =
    match Simkit.Heap.peek t.due with
    | Some (_, (e, gen)) when gen <> e.gen || e.in_flight ->
      (* Stale copy superseded by a later reschedule. *)
      ignore (Simkit.Heap.pop t.due);
      drain acc
    | Some (key, (e, _)) when key <= now ->
      ignore (Simkit.Heap.pop t.due);
      drain (e :: acc)
    | Some _ | None -> acc
  in
  drain [] |> List.sort compare_entries |> List.iter (consider t)

let poll t =
  t.polls <- t.polls + 1;
  if t.indexed then poll_indexed t else poll_linear t

let start t =
  if not t.started then begin
    t.started <- true;
    Simkit.Engine.every (Env.engine t.env) ~label:"scheduler"
      ~period:t.pol.poll_period ~jitter:30.0
      (fun _ ->
        poll t;
        true)
  end

(* Self-check for Simkit.Audit: recompute every derived structure the
   hot path maintains incrementally and compare against ground truth. *)
let audit_check t =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* 1. site_busy counters vs a recount over the entries. *)
  let recount = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ e ->
      if e.in_flight && consumes_nodes e then
        Option.iter
          (fun site ->
            Hashtbl.replace recount site
              (1 + Option.value ~default:0 (Hashtbl.find_opt recount site)))
          e.site)
    t.entries;
  List.iter
    (fun site ->
      let cached = Option.value ~default:0 (Hashtbl.find_opt t.site_busy site) in
      let truth = Option.value ~default:0 (Hashtbl.find_opt recount site) in
      if cached <> truth then
        problem "site_busy[%s] = %d but %d node-consuming tests are in flight"
          site cached truth)
    (List.sort_uniq String.compare
       (Hashtbl.fold (fun s _ acc -> s :: acc) t.site_busy []
       @ Hashtbl.fold (fun s _ acc -> s :: acc) recount []));
  (* 2. every in-flight entry has an unfinished build on the CI server. *)
  Hashtbl.iter
    (fun _ e ->
      if e.in_flight then begin
        let job = Jobs.job_name e.config.Testdef.family in
        match
          Ci.Server.last_of_axes t.env.Env.ci job
            ~axes:(Testdef.axes_of_config e.config)
        with
        | None ->
          problem "%s is marked in-flight but has no build at all"
            e.config.Testdef.config_id
        | Some b when Ci.Build.is_finished b ->
          problem "%s is marked in-flight but its last build #%d is finished"
            e.config.Testdef.config_id b.Ci.Build.number
        | Some _ -> ()
      end)
    t.entries;
  (* 3. indexed only: every waiting entry has its live generation in the
     due-queue at exactly next_due (the linear scan has no index). *)
  if t.indexed then begin
    let live = Hashtbl.create 1024 in
    List.iter
      (fun (key, (e, gen)) ->
        if gen = e.gen then Hashtbl.replace live e.config.Testdef.config_id key)
      (Simkit.Heap.to_list t.due);
    Hashtbl.iter
      (fun id e ->
        if not e.in_flight then
          match Hashtbl.find_opt live id with
          | None -> problem "%s is waiting but absent from the due-queue" id
          | Some key when key <> e.next_due ->
            problem "%s due-queue key %g disagrees with next_due %g" id key
              e.next_due
          | Some _ -> ())
      t.entries
  end;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))
