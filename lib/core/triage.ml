(* Failure-signature triage pipeline: evidence bundles assembled on build
   completion, canonical signatures that cluster equivalent failures, and
   a robustness loop (MTTR, regression/flap detection, escalation) on top
   of the bounded-memory bug store. *)

type scope =
  | Host of string
  | Cluster of string
  | Site of string
  | Image of string
  | Global

let scope_to_string = function
  | Host h -> "host/" ^ h
  | Cluster c -> "cluster/" ^ c
  | Site s -> "site/" ^ s
  | Image i -> "image/" ^ i
  | Global -> "global"

type canonical = { category : string; fingerprint : string; scope : scope }

(* Legacy signatures are ':'-separated with hosts, sites, images and vlan
   ids mixed into the dedup key, so the same failure on two hosts of one
   cluster files two bugs.  Canonicalization strips the location tokens
   into a scope (host -> its cluster, site, image) and keeps the rest as
   the fingerprint: category x fingerprint x scope is the cluster key. *)
let canonicalize env (evidence : Bugtracker.evidence) =
  let classify token =
    if String.contains token '.' then
      match Testbed.Instance.find_node env.Env.instance token with
      | Some node -> `Scope (Cluster node.Testbed.Node.cluster_name)
      | None -> `Scope (Host token)
    else if List.mem token Testbed.Inventory.sites then `Scope (Site token)
    else if Testbed.Inventory.find_cluster token <> None then
      `Scope (Cluster token)
    else if Kadeploy.Image.find token <> None then `Scope (Image token)
    else `Keep token
  in
  let tokens = String.split_on_char ':' evidence.Bugtracker.signature in
  let scope, kept =
    List.fold_left
      (fun (scope, kept) token ->
        match classify token with
        | `Scope s -> ((if scope = Global then s else scope), kept)
        | `Keep token -> (scope, token :: kept))
      (Global, []) tokens
  in
  {
    category = evidence.Bugtracker.category;
    fingerprint = String.concat ":" (List.rev kept);
    scope;
  }

let canonical_signature c =
  c.category ^ "|" ^ c.fingerprint ^ "|" ^ scope_to_string c.scope

type bundle = {
  at : float;
  job : string;  (** "" for build-less filings (regression experiments) *)
  build_number : int;
  result : Ci.Build.result;
  retry_lineage : int list;  (** watchdog/retry chain, oldest first *)
  hosts : string list;
  node_health : (string * string) list;  (** blamed host -> health state *)
  invariants : string list;  (** audit checks failing during the build *)
  active_faults : (int * string) list;  (** ground-truth faults on the hosts *)
  canonical : canonical;
  evidence : Bugtracker.evidence;
}

type drill = { evidence_loss : float; filing_delay : float }

type config = {
  limits : Bugtracker.limits;
  dedup_window : float;
  flap_cycles : int;
  file_unstable : bool;
  drill : drill option;
}

let flap_window = 30.0 *. Simkit.Calendar.day
let keep_bundles = 32

let default_config =
  {
    limits = Bugtracker.default_limits;
    dedup_window = 3600.0;
    flap_cycles = 3;
    file_unstable = false;
    drill = None;
  }

type summary = {
  builds_observed : int;
  bundles : int;
  filed : int;
  duplicates : int;
  collapsed : int;
  lost : int;
  delayed : int;
  unstable_observed : int;
  dedup_ratio : float;
  reopens : int;
  flapping : int;
  escalations : int;
  mttr_days_by_category : (string * float * int) list;
  store : Bugtracker.stats;
}

type t = {
  env : Env.t;
  cfg : config;
  tracker : Bugtracker.t;
  alerts : Monitoring.Alerts.t;
  mutable auditor : Simkit.Audit.t option;
  rng : Simkit.Prng.t option;  (* only drawn for drills *)
  last_filed : (string, string * float) Hashtbl.t;  (* canonical -> job, at *)
  open_since : (int, float) Hashtbl.t;  (* bug id -> entered Open *)
  reopen_times : (int, float list) Hashtbl.t;  (* newest first, pruned *)
  flappers : (int, unit) Hashtbl.t;
  mutable recent : bundle list;  (* newest first, bounded *)
  mutable builds_observed : int;
  mutable bundles : int;
  mutable filed : int;
  mutable duplicates : int;
  mutable collapsed : int;
  mutable lost : int;
  mutable delayed : int;
  mutable unstable_observed : int;
  mutable reopens : int;
  mutable escalations : int;
  mttr : (string, float * int) Hashtbl.t;  (* category -> total s, n *)
}

(* ---- robustness loop on store events ------------------------------------ *)

let check_flapping t (bug : Bugtracker.bug) ~now =
  let times =
    now :: Option.value ~default:[] (Hashtbl.find_opt t.reopen_times bug.Bugtracker.id)
    |> List.filter (fun at -> now -. at <= flap_window)
  in
  Hashtbl.replace t.reopen_times bug.Bugtracker.id times;
  if
    List.length times >= t.cfg.flap_cycles
    && not (Hashtbl.mem t.flappers bug.Bugtracker.id)
  then begin
    Hashtbl.replace t.flappers bug.Bugtracker.id ();
    t.escalations <- t.escalations + 1;
    ignore
      (Monitoring.Alerts.fire t.alerts ~now
         (Monitoring.Alerts.Flapping bug.Bugtracker.id)
         ~reason:
           (Printf.sprintf "bug #%d [%s] fixed<->reopened %d times in %.0f days"
              bug.Bugtracker.id bug.Bugtracker.category
              (List.length times)
              (flap_window /. Simkit.Calendar.day)))
  end

let on_store_event t event =
  let now = Env.now t.env in
  match event with
  | Bugtracker.Filed bug | Bugtracker.Resurrected bug ->
    Hashtbl.replace t.open_since bug.Bugtracker.id now
  | Bugtracker.Reopened bug ->
    t.reopens <- t.reopens + 1;
    Hashtbl.replace t.open_since bug.Bugtracker.id now;
    check_flapping t bug ~now
  | Bugtracker.Marked_fixed bug ->
    (match Hashtbl.find_opt t.open_since bug.Bugtracker.id with
     | Some since ->
       Hashtbl.remove t.open_since bug.Bugtracker.id;
       let total, n =
         Option.value ~default:(0.0, 0)
           (Hashtbl.find_opt t.mttr bug.Bugtracker.category)
       in
       Hashtbl.replace t.mttr bug.Bugtracker.category (total +. (now -. since), n + 1)
     | None -> ());
    if Hashtbl.mem t.flappers bug.Bugtracker.id then
      Monitoring.Alerts.resolve t.alerts ~now
        (Monitoring.Alerts.Flapping bug.Bugtracker.id)
  | Bugtracker.Refiled _ -> ()
  | Bugtracker.Evicted bug -> Hashtbl.remove t.open_since bug.Bugtracker.id

let create ?(config = default_config) ~alerts env tracker =
  let t =
    {
      env;
      cfg = config;
      tracker;
      alerts;
      auditor = None;
      rng =
        (match config.drill with
         | Some _ -> Some (Simkit.Prng.split (Simkit.Engine.rng (Env.engine env)))
         | None -> None);
      last_filed = Hashtbl.create 1024;
      open_since = Hashtbl.create 1024;
      reopen_times = Hashtbl.create 64;
      flappers = Hashtbl.create 16;
      recent = [];
      builds_observed = 0;
      bundles = 0;
      filed = 0;
      duplicates = 0;
      collapsed = 0;
      lost = 0;
      delayed = 0;
      unstable_observed = 0;
      reopens = 0;
      escalations = 0;
      mttr = Hashtbl.create 8;
    }
  in
  Bugtracker.on_event tracker (on_store_event t);
  t

let set_auditor t auditor = t.auditor <- Some auditor

(* ---- evidence-bundle assembly ------------------------------------------- *)

let retry_lineage t (build : Ci.Build.t) =
  let rec chain number acc =
    if List.length acc >= 16 then acc  (* defensive bound *)
    else
      match Ci.Server.build t.env.Env.ci build.Ci.Build.job_name number with
      | Some b -> (
        match b.Ci.Build.retry_of with
        | Some prev -> chain prev (prev :: acc)
        | None -> acc)
      | None -> acc
  in
  match build.Ci.Build.retry_of with
  | Some prev -> chain prev [ prev ]
  | None -> []

let node_health_of t hosts =
  List.filter_map
    (fun host ->
      match Testbed.Instance.find_node t.env.Env.instance host with
      | Some node ->
        Some (host, Testbed.Node.health_to_string node.Testbed.Node.health)
      | None -> None)
    hosts

let failing_invariants t ~since =
  match t.auditor with
  | None -> []
  | Some auditor ->
    Simkit.Audit.violations auditor
    |> List.filter (fun v -> v.Simkit.Audit.at >= since)
    |> List.map (fun v -> v.Simkit.Audit.check)
    |> List.sort_uniq String.compare

let fault_context t hosts =
  let faults = Env.faults t.env in
  List.concat_map (fun host -> Testbed.Faults.active_on_host faults host) hosts
  |> List.sort_uniq (fun a b -> compare a.Testbed.Faults.id b.Testbed.Faults.id)
  |> List.map (fun f ->
         (f.Testbed.Faults.id, Testbed.Faults.kind_to_string f.Testbed.Faults.kind))

let assemble t ?build ~result evidence =
  let canonical = canonicalize t.env evidence in
  let hosts =
    match build with Some b -> b.Ci.Build.touched_hosts | None -> []
  in
  let since =
    match build with
    | Some b -> Option.value ~default:0.0 b.Ci.Build.started_at
    | None -> Env.now t.env
  in
  {
    at = Env.now t.env;
    job = (match build with Some b -> b.Ci.Build.job_name | None -> "");
    build_number = (match build with Some b -> b.Ci.Build.number | None -> 0);
    result;
    retry_lineage = (match build with Some b -> retry_lineage t b | None -> []);
    hosts;
    node_health = node_health_of t hosts;
    invariants = failing_invariants t ~since;
    active_faults = fault_context t hosts;
    canonical;
    evidence;
  }

(* ---- filing -------------------------------------------------------------- *)

let keep_bundle t bundle =
  let kept = bundle :: t.recent in
  t.recent <-
    (if List.length kept > keep_bundles then
       List.filteri (fun i _ -> i < keep_bundles) kept
     else kept)

let file_bundle t bundle =
  t.bundles <- t.bundles + 1;
  keep_bundle t bundle;
  let key = canonical_signature bundle.canonical in
  (* A retried build re-reporting the failure its predecessor already
     filed within the window is collapsed client-side: watchdog/retry
     storms must not inflate occurrence counts. *)
  let collapse =
    bundle.retry_lineage <> []
    && (match Hashtbl.find_opt t.last_filed key with
       | Some (job, at) ->
         String.equal job bundle.job && bundle.at -. at < t.cfg.dedup_window
       | None -> false)
  in
  if collapse then t.collapsed <- t.collapsed + 1
  else begin
    (* The collapse cache only needs the recent past; flush it before it
       grows beyond the live-signature order of magnitude. *)
    if Hashtbl.length t.last_filed > 4 * t.cfg.limits.Bugtracker.max_live then
      Hashtbl.reset t.last_filed;
    Hashtbl.replace t.last_filed key (bundle.job, bundle.at);
    let evidence = { bundle.evidence with Bugtracker.signature = key } in
    match Bugtracker.file t.tracker ~now:bundle.at evidence with
    | `New _ -> t.filed <- t.filed + 1
    | `Duplicate _ -> t.duplicates <- t.duplicates + 1
  end

(* Triage-path fault drills: evidence bundles can be lost before filing,
   or filed late.  Dedup counts must converge to the same distinct bugs
   regardless (only occurrence totals shrink with the losses). *)
let deliver t bundle =
  match (t.cfg.drill, t.rng) with
  | Some drill, Some rng ->
    if drill.evidence_loss > 0.0 && Simkit.Prng.chance rng drill.evidence_loss
    then t.lost <- t.lost + 1
    else if drill.filing_delay > 0.0 then begin
      t.delayed <- t.delayed + 1;
      ignore
        (Simkit.Engine.schedule (Env.engine t.env) ~label:"triage-delay"
           ~delay:drill.filing_delay (fun _ ->
             file_bundle t { bundle with at = Env.now t.env }))
    end
    else file_bundle t bundle
  | _ -> file_bundle t bundle

let unscheduled_evidence (build : Ci.Build.t) =
  {
    Bugtracker.signature = "unsched:" ^ build.Ci.Build.job_name;
    summary =
      Printf.sprintf "%s could not be scheduled (marked UNSTABLE)"
        build.Ci.Build.job_name;
    category = "ci";
    source_test = build.Ci.Build.job_name;
    fault_ids = [];
  }

let observe t ~build ~result evidences =
  t.builds_observed <- t.builds_observed + 1;
  match result with
  | Ci.Build.Success | Ci.Build.Aborted | Ci.Build.Not_built -> ()
  | Ci.Build.Unstable ->
    t.unstable_observed <- t.unstable_observed + 1;
    if t.cfg.file_unstable then
      deliver t (assemble t ~build ~result (unscheduled_evidence build));
    List.iter (fun e -> deliver t (assemble t ~build ~result e)) evidences
  | Ci.Build.Failure ->
    List.iter (fun e -> deliver t (assemble t ~build ~result e)) evidences

let ingest t evidence =
  deliver t (assemble t ~result:Ci.Build.Failure evidence)

let recent_bundles t = t.recent

(* ---- reporting ----------------------------------------------------------- *)

let flapping_count t = Hashtbl.length t.flappers

let summary t =
  {
    builds_observed = t.builds_observed;
    bundles = t.bundles;
    filed = t.filed;
    duplicates = t.duplicates;
    collapsed = t.collapsed;
    lost = t.lost;
    delayed = t.delayed;
    unstable_observed = t.unstable_observed;
    dedup_ratio =
      (let reached = t.filed + t.duplicates in
       if t.filed = 0 then (if reached = 0 then 1.0 else float_of_int reached)
       else float_of_int reached /. float_of_int t.filed);
    reopens = t.reopens;
    flapping = flapping_count t;
    escalations = t.escalations;
    mttr_days_by_category =
      Hashtbl.fold
        (fun category (total, n) acc ->
          (category, total /. float_of_int n /. Simkit.Calendar.day, n) :: acc)
        t.mttr []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b);
    store = Bugtracker.stats t.tracker;
  }

let summary_to_json (s : summary) =
  let open Simkit.Json in
  Obj
    [ ("builds_observed", Int s.builds_observed);
      ("bundles", Int s.bundles);
      ("filed", Int s.filed);
      ("duplicates", Int s.duplicates);
      ("collapsed", Int s.collapsed);
      ("lost", Int s.lost);
      ("delayed", Int s.delayed);
      ("unstable_observed", Int s.unstable_observed);
      ("dedup_ratio", Float s.dedup_ratio);
      ("reopens", Int s.reopens);
      ("flapping", Int s.flapping);
      ("escalations", Int s.escalations);
      ( "mttr_days_by_category",
        List
          (List.map
             (fun (category, days, n) ->
               Obj
                 [ ("category", String category); ("mean_days", Float days);
                   ("fixes", Int n) ])
             s.mttr_days_by_category) );
      ( "store",
        Obj
          [ ("live", Int s.store.Bugtracker.live);
            ("filed_total", Int s.store.Bugtracker.filed_total);
            ("fixed_total", Int s.store.Bugtracker.fixed_total);
            ("evicted", Int s.store.Bugtracker.evicted);
            ("resurrected", Int s.store.Bugtracker.resurrected);
            ( "tombstoned_occurrences",
              Int s.store.Bugtracker.tombstoned_occurrences );
            ("peak_live", Int s.store.Bugtracker.peak_live) ] ) ]

let render (s : summary) =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (fun line -> Buffer.add_string buf (line ^ "\n")) fmt in
  add "builds observed %d (%d unstable); %d bundles -> %d bugs, %d duplicates"
    s.builds_observed s.unstable_observed s.bundles s.filed s.duplicates;
  add "dedup ratio %.2f; collapsed %d, lost %d, delayed %d" s.dedup_ratio
    s.collapsed s.lost s.delayed;
  add "reopens %d, flapping %d, escalations %d" s.reopens s.flapping s.escalations;
  add "store: %d live (peak %d), %d distinct filed, %d evicted (%d occurrences \
       tombstoned), %d resurrected"
    s.store.Bugtracker.live s.store.Bugtracker.peak_live
    s.store.Bugtracker.filed_total s.store.Bugtracker.evicted
    s.store.Bugtracker.tombstoned_occurrences s.store.Bugtracker.resurrected;
  if s.mttr_days_by_category <> [] then begin
    add "MTTR by category:";
    List.iter
      (fun (category, days, n) ->
        add "  %-15s %.1f days over %d fix(es)" category days n)
      s.mttr_days_by_category
  end;
  Buffer.contents buf

let summary_line (s : summary) =
  Printf.sprintf "triage: %d bundles, %d bugs, dedup x%.1f, %d reopens, %d flapping"
    s.bundles s.filed s.dedup_ratio s.reopens s.flapping
