type config = {
  suspect_threshold : float;
  quarantine_threshold : float;
  decay_half_life : float;
  sweep_period : float;
  triage_delay : float;
  max_repair_attempts : int;
  mttr_of_kind : Testbed.Faults.kind -> Simkit.Dist.t;
  default_mttr : Simkit.Dist.t;
}

let hour = 3600.0
let release_threshold = 0.5
let credit_success = 0.5
let blame_failure = 1.0
let blame_unstable = 0.3
let down_blame = 1.0
let healthy_floor = 0.5

let default_mttr_of_kind = function
  | Testbed.Faults.Site_outage -> Simkit.Dist.Erlang (2, 4.0 *. hour)
  | Testbed.Faults.Pdu_failure -> Simkit.Dist.Exponential (4.0 *. hour)
  | Testbed.Faults.Network_partition -> Simkit.Dist.Exponential (2.0 *. hour)
  | _ -> Simkit.Dist.Exponential (6.0 *. hour)

let default_config =
  {
    suspect_threshold = 2.0;
    quarantine_threshold = 3.0;
    decay_half_life = Simkit.Calendar.day;
    sweep_period = 1800.0;
    triage_delay = 1.0 *. hour;
    max_repair_attempts = 3;
    mttr_of_kind = default_mttr_of_kind;
    default_mttr = Simkit.Dist.Exponential (6.0 *. hour);
  }

type transition = {
  at : float;
  host : string;
  from_health : Testbed.Node.health;
  to_health : Testbed.Node.health;
  reason : string;
}

type summary = {
  suspected : int;
  quarantined : int;
  repair_attempts : int;
  reverify_failures : int;
  released : int;
  retired : int;
  out_of_service_now : int;
  in_quarantine_now : int;
  by_site : (string * int) list;
  mean_hours_to_release : float;
  alerts_fired : int;
}

type score = { mutable value : float; mutable last : float }

type t = {
  env : Env.t;
  cfg : config;
  alerts : Monitoring.Alerts.t;
  rng : Simkit.Prng.t;
  scores : (string, score) Hashtbl.t;
  unhealthy_site : (string, int) Hashtbl.t;
  unhealthy_cluster : (string, int) Hashtbl.t;
  site_quarantines : (string, int) Hashtbl.t;  (* cumulative entries *)
  quarantine_since : (string, float) Hashtbl.t;
  attempts : (string, int) Hashtbl.t;  (* repair cycles this quarantine *)
  mutable events : transition list;  (* newest first *)
  mutable suspected : int;
  mutable quarantined : int;
  mutable repair_attempts : int;
  mutable reverify_failures : int;
  mutable released : int;
  mutable retired : int;
  mutable release_seconds : float;
  mutable alerts_fired : int;
}

(* ---- pure pieces -------------------------------------------------------- *)

let decay ~half_life ~score ~dt =
  if dt <= 0.0 || score = 0.0 then score
  else score *. (0.5 ** (dt /. half_life))

(* ---- score bookkeeping -------------------------------------------------- *)

let score_of t host =
  match Hashtbl.find_opt t.scores host with
  | Some s -> s
  | None ->
    let s = { value = 0.0; last = Env.now t.env } in
    Hashtbl.replace t.scores host s;
    s

let decayed t s =
  let now = Env.now t.env in
  s.value <- decay ~half_life:t.cfg.decay_half_life ~score:s.value ~dt:(now -. s.last);
  s.last <- now;
  s.value

let suspicion t host =
  match Hashtbl.find_opt t.scores host with
  | None -> 0.0
  | Some s -> decayed t s

(* ---- per-site / per-cluster counters ------------------------------------ *)

let bump table key delta =
  let n = Option.value ~default:0 (Hashtbl.find_opt table key) in
  Hashtbl.replace table key (Stdlib.max 0 (n + delta))

let count table key = Option.value ~default:0 (Hashtbl.find_opt table key)

let unhealthy_in_site t site = count t.unhealthy_site site
let unhealthy_in_cluster t cluster = count t.unhealthy_cluster cluster

let site_node_total site =
  List.fold_left
    (fun acc spec -> acc + spec.Testbed.Inventory.nodes)
    0
    (Testbed.Inventory.clusters_of_site site)

let site_healthy_fraction t site =
  let total = site_node_total site in
  if total = 0 then 1.0
  else float_of_int (total - unhealthy_in_site t site) /. float_of_int total

let observe_site t site =
  match
    Monitoring.Alerts.observe_site_health t.alerts ~now:(Env.now t.env) ~site
      ~healthy_fraction:(site_healthy_fraction t site)
  with
  | Some _ -> t.alerts_fired <- t.alerts_fired + 1
  | None -> ()

(* ---- transitions --------------------------------------------------------- *)

let set_health t node to_health ~reason =
  let from_health = node.Testbed.Node.health in
  if from_health <> to_health then begin
    let site = node.Testbed.Node.site_name in
    if from_health = Testbed.Node.Healthy then begin
      bump t.unhealthy_site site 1;
      bump t.unhealthy_cluster node.Testbed.Node.cluster_name 1
    end
    else if to_health = Testbed.Node.Healthy then begin
      bump t.unhealthy_site site (-1);
      bump t.unhealthy_cluster node.Testbed.Node.cluster_name (-1)
    end;
    node.Testbed.Node.health <- to_health;
    t.events <-
      { at = Env.now t.env; host = node.Testbed.Node.host; from_health;
        to_health; reason }
      :: t.events;
    observe_site t site
  end

(* ---- repair pipeline ----------------------------------------------------- *)

let after t delay k =
  ignore (Simkit.Engine.schedule (Env.engine t.env) ~delay (fun _ -> k ()))

let mttr_of t host =
  match Testbed.Faults.active_on_host (Env.faults t.env) host with
  | fault :: _ -> t.cfg.mttr_of_kind fault.Testbed.Faults.kind
  | [] -> t.cfg.default_mttr

let release t node =
  let host = node.Testbed.Node.host in
  set_health t node Testbed.Node.Healthy ~reason:"verification passed";
  (match Hashtbl.find_opt t.scores host with
   | Some s ->
     s.value <- 0.0;
     s.last <- Env.now t.env
   | None -> ());
  (match Hashtbl.find_opt t.quarantine_since host with
   | Some since ->
     t.release_seconds <- t.release_seconds +. (Env.now t.env -. since);
     Hashtbl.remove t.quarantine_since host
   | None -> ());
  Hashtbl.remove t.attempts host;
  t.released <- t.released + 1;
  Monitoring.Alerts.resolve t.alerts ~now:(Env.now t.env)
    (Monitoring.Alerts.Quarantine host)

let retire t node ~reason =
  set_health t node Testbed.Node.Retired ~reason;
  Hashtbl.remove t.quarantine_since node.Testbed.Node.host;
  Hashtbl.remove t.attempts node.Testbed.Node.host;
  t.retired <- t.retired + 1

let rec begin_repair t node =
  if node.Testbed.Node.health = Testbed.Node.Quarantined
     || node.Testbed.Node.health = Testbed.Node.Reverifying
  then begin
    let host = node.Testbed.Node.host in
    let attempt = 1 + count t.attempts host in
    Hashtbl.replace t.attempts host attempt;
    t.repair_attempts <- t.repair_attempts + 1;
    let mttr =
      Simkit.Dist.sample_positive t.rng
        (if attempt = 1 then mttr_of t host else t.cfg.default_mttr)
    in
    set_health t node Testbed.Node.Repairing
      ~reason:(Printf.sprintf "operator repair, attempt %d" attempt);
    after t mttr (fun () -> finish_repair t node)
  end

and finish_repair t node =
  if node.Testbed.Node.health = Testbed.Node.Repairing then begin
    let host = node.Testbed.Node.host in
    let faults = Env.faults t.env in
    List.iter
      (Testbed.Faults.repair faults ~now:(Env.now t.env))
      (Testbed.Faults.active_on_host faults host);
    Testbed.Node.reset_to_reference node;
    Oar.Manager.refresh_properties t.env.Env.oar;
    set_health t node Testbed.Node.Reverifying ~reason:"repair done";
    (* Verification: reboot into the standard environment and run the
       conformity check — the paper's stdenv test, applied as a
       re-admission gate. *)
    Testbed.Instance.reboot t.env.Env.instance node ~on_done:(fun ~ok ->
        if node.Testbed.Node.health = Testbed.Node.Reverifying then begin
          let conforms =
            ok
            && G5kchecks.Check.conforms
                 (G5kchecks.Check.run t.env.Env.instance node)
          in
          if conforms then release t node
          else begin
            t.reverify_failures <- t.reverify_failures + 1;
            if count t.attempts host >= t.cfg.max_repair_attempts then
              retire t node
                ~reason:
                  (Printf.sprintf "verification failed %d times"
                     (count t.attempts host))
            else begin_repair t node
          end
        end)
  end

let quarantine t node ~reason =
  let host = node.Testbed.Node.host in
  set_health t node Testbed.Node.Quarantined ~reason;
  t.quarantined <- t.quarantined + 1;
  bump t.site_quarantines node.Testbed.Node.site_name 1;
  Hashtbl.replace t.quarantine_since host (Env.now t.env);
  Hashtbl.replace t.attempts host 0;
  ignore
    (Monitoring.Alerts.fire t.alerts ~now:(Env.now t.env)
       (Monitoring.Alerts.Quarantine host) ~reason);
  t.alerts_fired <- t.alerts_fired + 1;
  after t t.cfg.triage_delay (fun () ->
      if node.Testbed.Node.health = Testbed.Node.Quarantined then
        begin_repair t node)

(* ---- evidence accumulation ----------------------------------------------- *)

(* Only nodes still in circulation (Healthy/Suspected) accumulate
   evidence; sidelined nodes are already in the pipeline. *)
let in_circulation node =
  match node.Testbed.Node.health with
  | Testbed.Node.Healthy | Testbed.Node.Suspected -> true
  | Testbed.Node.Quarantined | Testbed.Node.Repairing
  | Testbed.Node.Reverifying | Testbed.Node.Retired -> false

let reconsider t node ~reason =
  let host = node.Testbed.Node.host in
  let value = suspicion t host in
  match node.Testbed.Node.health with
  | Testbed.Node.Healthy ->
    if value >= t.cfg.quarantine_threshold then quarantine t node ~reason
    else if value >= t.cfg.suspect_threshold then begin
      set_health t node Testbed.Node.Suspected ~reason;
      t.suspected <- t.suspected + 1
    end
  | Testbed.Node.Suspected ->
    if value >= t.cfg.quarantine_threshold then quarantine t node ~reason
    else if value <= release_threshold then
      set_health t node Testbed.Node.Healthy ~reason:"suspicion decayed"
  | _ -> ()

let blame t node amount ~reason =
  if in_circulation node then begin
    let s = score_of t node.Testbed.Node.host in
    ignore (decayed t s);
    s.value <- s.value +. amount;
    reconsider t node ~reason
  end

let credit t node amount =
  if in_circulation node then begin
    let s = score_of t node.Testbed.Node.host in
    ignore (decayed t s);
    s.value <- Float.max 0.0 (s.value -. amount);
    reconsider t node ~reason:"successful build"
  end

let on_build_complete t build =
  let blame_amount =
    match build.Ci.Build.result with
    | Some Ci.Build.Success -> None
    | Some Ci.Build.Unstable -> Some blame_unstable
    | Some (Ci.Build.Failure | Ci.Build.Aborted | Ci.Build.Not_built) | None ->
      Some blame_failure
  in
  List.iter
    (fun host ->
      match Testbed.Instance.find_node t.env.Env.instance host with
      | None -> ()
      | Some node -> (
        match blame_amount with
        | Some amount ->
          blame t node amount
            ~reason:
              (Printf.sprintf "build %s#%d %s" build.Ci.Build.job_name
                 build.Ci.Build.number
                 (match build.Ci.Build.result with
                  | Some r -> Ci.Build.result_to_string r
                  | None -> "lost"))
        | None -> credit t node credit_success))
    build.Ci.Build.touched_hosts

(* A build that dies without reserving anything (e.g. its site's OAR is
   down) has an empty touched-host list and blames nobody: service
   outages are the resilience layer's business, not the nodes'. *)

let sweep t =
  let ctx = Env.fault_ctx t.env in
  Array.iter
    (fun node ->
      if node.Testbed.Node.state = Testbed.Node.Down && in_circulation node then
        blame t node down_blame ~reason:"node is down"
      else if node.Testbed.Node.health = Testbed.Node.Suspected then
        (* Pure decay can release a suspect even with no new builds. *)
        reconsider t node ~reason:"sweep")
    ctx.Testbed.Faults.nodes;
  List.iter (observe_site t) Testbed.Inventory.sites

(* ---- scheduler probe ------------------------------------------------------ *)

let any_unhealthy t =
  Hashtbl.fold (fun _ n acc -> acc || n > 0) t.unhealthy_site false

let probe t config =
  match Testdef.need config.Testdef.family with
  | Testdef.No_nodes -> false
  | Testdef.Whole_cluster -> (
    match config.Testdef.cluster with
    | Some cluster -> unhealthy_in_cluster t cluster > 0
    | None -> any_unhealthy t)
  | Testdef.One_node | Testdef.Two_nodes | Testdef.Site_spread -> (
    match Testdef.effective_site config with
    | Some site -> unhealthy_in_site t site > 0
    | None -> any_unhealthy t)

(* ---- lifecycle ------------------------------------------------------------ *)

let attach ?(config = default_config) ?scheduler ~alerts env =
  let t =
    {
      env;
      cfg = config;
      alerts;
      rng = Simkit.Prng.split (Simkit.Engine.rng (Env.engine env));
      scores = Hashtbl.create 256;
      unhealthy_site = Hashtbl.create 16;
      unhealthy_cluster = Hashtbl.create 64;
      site_quarantines = Hashtbl.create 16;
      quarantine_since = Hashtbl.create 64;
      attempts = Hashtbl.create 64;
      events = [];
      suspected = 0;
      quarantined = 0;
      repair_attempts = 0;
      reverify_failures = 0;
      released = 0;
      retired = 0;
      release_seconds = 0.0;
      alerts_fired = 0;
    }
  in
  List.iter
    (fun site ->
      Monitoring.Alerts.set_healthy_floor alerts ~site ~floor:healthy_floor)
    Testbed.Inventory.sites;
  (match scheduler with
   | Some sched -> Scheduler.set_health_probe sched (probe t)
   | None -> ());
  Ci.Server.on_build_complete env.Env.ci (on_build_complete t);
  Simkit.Engine.every (Env.engine env) ~label:"health" ~period:config.sweep_period (fun _ ->
      sweep t;
      true);
  t

let events t = List.rev t.events

let summary t =
  let ctx = Env.fault_ctx t.env in
  let out_of_service = ref 0 and in_pipeline = ref 0 in
  Array.iter
    (fun node ->
      match node.Testbed.Node.health with
      | Testbed.Node.Healthy -> ()
      | Testbed.Node.Quarantined | Testbed.Node.Repairing
      | Testbed.Node.Reverifying ->
        incr out_of_service;
        incr in_pipeline
      | Testbed.Node.Suspected | Testbed.Node.Retired -> incr out_of_service)
    ctx.Testbed.Faults.nodes;
  {
    suspected = t.suspected;
    quarantined = t.quarantined;
    repair_attempts = t.repair_attempts;
    reverify_failures = t.reverify_failures;
    released = t.released;
    retired = t.retired;
    out_of_service_now = !out_of_service;
    in_quarantine_now = !in_pipeline;
    by_site =
      Hashtbl.fold (fun site n acc -> if n > 0 then (site, n) :: acc else acc)
        t.site_quarantines []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    mean_hours_to_release =
      (if t.released = 0 then 0.0
       else t.release_seconds /. float_of_int t.released /. hour);
    alerts_fired = t.alerts_fired;
  }

let summary_to_json (s : summary) =
  let open Simkit.Json in
  Obj
    [ ("suspected", Int s.suspected);
      ("quarantined", Int s.quarantined);
      ("repair_attempts", Int s.repair_attempts);
      ("reverify_failures", Int s.reverify_failures);
      ("released", Int s.released);
      ("retired", Int s.retired);
      ("out_of_service_now", Int s.out_of_service_now);
      ("in_quarantine_now", Int s.in_quarantine_now);
      ("by_site", Obj (List.map (fun (site, n) -> (site, Int n)) s.by_site));
      ("mean_hours_to_release", Float s.mean_hours_to_release);
      ("alerts_fired", Int s.alerts_fired) ]

let render ~months (s : summary) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Simkit.Table.render
       ~header:[ "health counter"; "value" ]
       [ [ "suspected (cumulative)"; string_of_int s.suspected ];
         [ "quarantined (cumulative)"; string_of_int s.quarantined ];
         [ "repair attempts"; string_of_int s.repair_attempts ];
         [ "reverify failures"; string_of_int s.reverify_failures ];
         [ "released"; string_of_int s.released ];
         [ "retired"; string_of_int s.retired ];
         [ "out of service now"; string_of_int s.out_of_service_now ];
         [ "in quarantine pipeline now"; string_of_int s.in_quarantine_now ];
         [ "mean hours to release"; Simkit.Table.fmt_float s.mean_hours_to_release ];
         [ "alerts fired"; string_of_int s.alerts_fired ] ]);
  if s.by_site <> [] then begin
    Buffer.add_string buf "\n-- Quarantine entries per site --\n";
    Buffer.add_string buf
      (Simkit.Table.render
         ~header:[ "site"; "quarantines" ]
         (List.map (fun (site, n) -> [ site; string_of_int n ]) s.by_site))
  end;
  Buffer.add_string buf "\n-- Success ratio over time (self-healing loop on) --\n";
  Buffer.add_string buf
    (Simkit.Table.render
       ~header:[ "month"; "builds"; "success" ]
       (List.map
          (fun (month, builds, ratio) ->
            [ string_of_int month; string_of_int builds; Statuspage.fmt_ratio ratio ])
          months));
  Buffer.contents buf

let summary_line (s : summary) =
  Printf.sprintf "health: %d quarantined, %d released, %d retired, mean %.1f h to release"
    s.quarantined s.released s.retired s.mean_hours_to_release
