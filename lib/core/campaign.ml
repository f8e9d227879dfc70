type config = {
  months : int;
  seed : int64;
  executors : int;
  initial_faults : int;
  fault_rate_per_day : float;
  workload : Oar.Workload.profile option;
  enable_testing : bool;
  staged_families : (int * Testdef.family list) list;
  enable_regression : bool;
  policy : Scheduler.policy;
  operator : Operator.config;
  resilience : bool;
  infra_faults : (float * Testbed.Faults.kind) list;
  infra_fault_duration : float;
  health : Health.config option;
  health_faults : (float * Testbed.Faults.kind * Testbed.Faults.target) list;
  audit : bool;
  triage : Triage.config option;
  serve : Serve.config option;
}

let default_config =
  {
    months = 6;
    seed = 42L;
    executors = 10;
    initial_faults = 60;
    fault_rate_per_day = 0.18;
    workload = Some Oar.Workload.default_profile;
    enable_testing = true;
    staged_families =
      [ ( 0,
          [ Testdef.Refapi; Testdef.Oarproperties; Testdef.Dellbios;
            Testdef.Oarstate; Testdef.Cmdline; Testdef.Sidapi;
            Testdef.Environments; Testdef.Stdenv; Testdef.Paralleldeploy;
            Testdef.Multireboot; Testdef.Multideploy; Testdef.Console ] );
        (2, [ Testdef.Disk; Testdef.Kavlan ]);
        (4, [ Testdef.Kwapi; Testdef.Mpigraph ]) ];
    enable_regression = false;
    policy = Scheduler.smart_policy;
    operator = Operator.default_config;
    resilience = false;
    infra_faults = [];
    infra_fault_duration = 12.0 *. Simkit.Calendar.hour;
    health = None;
    health_faults = [];
    audit = false;
    triage = None;
    serve = None;
  }

type monthly = {
  month : int;
  builds : int;
  successful : int;
  success_ratio : float;
  bugs_filed_cum : int;
  bugs_fixed_cum : int;
  active_faults : int;
  enabled_configs : int;
}

type report = {
  cfg : config;
  monthly : monthly list;
  bugs_filed : int;
  bugs_fixed : int;
  bugs_by_category : (string * int * int) list;
  faults_injected : int;
  faults_detected : int;
  faults_repaired : int;
  detection_latency_days : (string * float * int) list;
  builds_total : int;
  workload_jobs : int;
  scheduler_stats : Scheduler.stats option;
  resilience : Resilience.summary option;
  health : Health.summary option;
  audit : Simkit.Audit.summary option;
  triage : Triage.summary option;
  serve : Serve.summary option;
  mean_active_faults : float;
  statuspage : string;
  statuspage_html : string;
}

type section = {
  key : string;
  json : Simkit.Json.t;
  page : (string * string) option;
  line : string option;
}

(* The one list of opt-in subsystems.  Built from the report's typed
   fields on every call, so a caller that edits a summary sees the edit. *)
let sections report =
  let section summary f = Option.to_list (Option.map f summary) in
  let months =
    List.filter_map
      (fun m -> if m.builds > 0 then Some (m.month, m.builds, m.success_ratio) else None)
      report.monthly
  in
  List.concat
    [ section report.resilience (fun s ->
          { key = "resilience";
            json = Resilience.summary_to_json s;
            page = Some ("Resilience (testing infrastructure)", Resilience.render s);
            line = Some (Resilience.summary_line s) });
      section report.health (fun s ->
          { key = "health";
            json = Health.summary_to_json s;
            page = Some ("Node health (self-healing loop)", Health.render ~months s);
            line = Some (Health.summary_line s) });
      section report.audit (fun s ->
          { key = "audit"; json = Simkit.Audit.summary_to_json s; page = None; line = None });
      section report.triage (fun s ->
          { key = "triage";
            json = Triage.summary_to_json s;
            page = Some ("Triage (failure-signature pipeline)", Triage.render s);
            line = Some (Triage.summary_line s) });
      section report.serve (fun s ->
          { key = "serve";
            json = Serve.summary_to_json s;
            page = Some ("Serving (status-page service)", Serve.render s);
            line = Some (Serve.summary_line s) }) ]

(* Arrival mix: hardware/configuration drift dominates, matching the
   paper's bug list. *)
let kind_weights =
  [ (Testbed.Faults.Cpu_cstates, 1.4); (Testbed.Faults.Cpu_hyperthreading, 0.8);
    (Testbed.Faults.Cpu_turbo, 0.8); (Testbed.Faults.Cpu_governor, 0.7);
    (Testbed.Faults.Bios_drift, 0.7); (Testbed.Faults.Disk_firmware, 1.2);
    (Testbed.Faults.Disk_write_cache, 1.0); (Testbed.Faults.Ram_dimm_loss, 0.5);
    (Testbed.Faults.Cabling_swap, 0.5); (Testbed.Faults.Kwapi_misattribution, 0.4);
    (Testbed.Faults.Random_reboots, 0.6); (Testbed.Faults.Kernel_boot_race, 0.25);
    (Testbed.Faults.Ofed_flaky, 0.3); (Testbed.Faults.Console_broken, 0.8);
    (Testbed.Faults.Service_outage, 1.3); (Testbed.Faults.Refapi_desync, 0.8);
    (Testbed.Faults.Oar_property_desync, 0.6); (Testbed.Faults.Env_image_corrupt, 0.25) ]

let pick_kind rng =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 kind_weights in
  let target = Simkit.Prng.float rng *. total in
  let rec pick acc = function
    | [] -> Testbed.Faults.Cpu_cstates
    | [ (k, _) ] -> k
    | (k, w) :: rest -> if acc +. w >= target then k else pick (acc +. w) rest
  in
  pick 0.0 kind_weights

(* A campaign that has been fully wired onto its engine but not driven
   yet.  [run] is [prepare] + drive + [finalize]; the federation layer
   interleaves many prepared campaigns window by window instead of
   driving each to its horizon in one call. *)
type sim = {
  sim_cfg : config;
  env : Env.t;
  tracker : Bugtracker.t;
  page : Statuspage.t;
  triage : Triage.t option;
  serve : Serve.t option;
  infra : Resilience.Infra.t option;
  workload : Oar.Workload.t option;
  scheduler : Scheduler.t option;
  health : Health.t option;
  auditor : Simkit.Audit.t option;
  snapshots : (int, int * int * int * int) Hashtbl.t;
  faults : Testbed.Faults.t;
}

let sim_engine sim = Env.engine sim.env
let sim_env sim = sim.env
let sim_page sim = sim.page
let sim_serve sim = sim.serve
let sim_horizon sim = float_of_int sim.sim_cfg.months *. Simkit.Calendar.month

let prepare cfg =
  let env = Env.create ~seed:cfg.seed ~executors:cfg.executors () in
  let engine = Env.engine env in
  let rng = Simkit.Prng.split (Simkit.Engine.rng engine) in
  let tracker =
    match cfg.triage with
    | Some tc -> Bugtracker.create ~limits:tc.Triage.limits ()
    | None -> Bugtracker.create ()
  in
  let page = Statuspage.create env in
  (* One alerts instance shared by the opt-in subsystems that page. *)
  let alerts = Monitoring.Alerts.create env.Env.collector in

  (* Failure-signature triage pipeline: opt-in so default campaigns
     replay bit-for-bit (no extra Prng split unless a drill is armed,
     no extra listeners, no canonicalized signatures). *)
  let triage =
    Option.map (fun tc -> Triage.create ~config:tc ~alerts env tracker) cfg.triage
  in

  (* Status-page serving layer: opt-in, and its synthetic read workload
     draws from a dedicated seeded PRNG (never the engine master), so a
     serving campaign replays the unserved one's decisions byte for
     byte. *)
  let serve =
    Option.map (fun sconfig -> Serve.attach ~alerts ~config:sconfig env page) cfg.serve
  in

  (* Latent problems predating the campaign. *)
  let faults = Env.faults env in
  for _ = 1 to cfg.initial_faults do
    ignore (Testbed.Faults.inject faults ~now:0.0 (pick_kind rng))
  done;
  Oar.Manager.refresh_properties env.Env.oar;

  (* Resilience layer: watchdogs + degraded-mode supervision of the CI
     server.  Off by default so historical campaigns replay bit-for-bit. *)
  let infra = if cfg.resilience then Some (Resilience.Infra.attach env) else None in

  (* Scheduled faults against the testing infrastructure itself
     (CI outage, hung builds, queue loss), each repaired after
     [infra_fault_duration]. *)
  List.iter
    (fun (time, kind) ->
      ignore
        (Simkit.Engine.schedule_at engine ~time (fun eng ->
             match Testbed.Faults.inject faults ~now:(Simkit.Engine.now eng) kind with
             | Some fault ->
               ignore
                 (Simkit.Engine.schedule eng ~delay:cfg.infra_fault_duration
                    (fun eng ->
                      Testbed.Faults.repair faults ~now:(Simkit.Engine.now eng) fault))
             | None -> ())))
    cfg.infra_faults;

  (* Scheduled correlated/targeted faults for health drills.  Unlike
     [infra_faults] these are NOT auto-repaired: fixing them (and
     re-admitting the affected nodes) is the self-healing loop's job. *)
  List.iter
    (fun (time, kind, target) ->
      ignore
        (Simkit.Engine.schedule_at engine ~time (fun eng ->
             ignore
               (Testbed.Faults.inject_on faults ~now:(Simkit.Engine.now eng) kind
                  target))))
    cfg.health_faults;

  (* Continuous fault arrivals, sampled every 6 hours. *)
  let sweep = 6.0 *. Simkit.Calendar.hour in
  Simkit.Engine.every engine ~label:"faults" ~period:sweep (fun eng ->
      let mean = cfg.fault_rate_per_day *. (sweep /. Simkit.Calendar.day) in
      let n = Simkit.Dist.poisson rng ~mean in
      for _ = 1 to n do
        ignore (Testbed.Faults.inject faults ~now:(Simkit.Engine.now eng) (pick_kind rng))
      done;
      true);

  (* Daily OAR property refresh from the Reference API. *)
  Simkit.Engine.every engine ~label:"oar-refresh" ~period:Simkit.Calendar.day (fun _ ->
      Oar.Manager.refresh_properties env.Env.oar;
      true);

  (* User workload. *)
  let workload =
    Option.map (fun profile -> Oar.Workload.start ~profile ~rng:(Simkit.Prng.split rng) env.Env.oar) cfg.workload
  in

  (* Testing framework. *)
  let scheduler =
    if cfg.enable_testing then begin
      (match triage with
       | None ->
         Jobs.define_all env ~on_evidence:(fun evidence ->
             ignore (Bugtracker.file tracker ~now:(Env.now env) evidence))
       | Some tr ->
         (* Evidence flows through the triage pipeline instead: bundles,
            canonical signatures, drills. *)
         Jobs.define_all env
           ~on_outcome:(fun ~build outcome ->
             Triage.observe tr ~build ~result:outcome.Scripts.result
               outcome.Scripts.evidences)
           ~on_evidence:(fun _ -> ()));
      let scheduler = Scheduler.create ~policy:cfg.policy env in
      List.iter
        (fun (month, families) ->
          let time = float_of_int month *. Simkit.Calendar.month in
          if time <= 0.0 then List.iter (Scheduler.enable_family scheduler) families
          else
            ignore
              (Simkit.Engine.schedule_at engine ~time (fun _ ->
                   List.iter (Scheduler.enable_family scheduler) families)))
        cfg.staged_families;
      Scheduler.start scheduler;
      if cfg.enable_regression then
        Regression.define_jobs ~daily:true env
          ~on_evidence:
            (match triage with
            | Some tr -> Triage.ingest tr
            | None ->
              fun evidence ->
                ignore (Bugtracker.file tracker ~now:(Env.now env) evidence));
      Some scheduler
    end
    else None
  in
  (* Self-healing loop: opt-in so default campaigns replay bit-for-bit
     (the extra Prng split and sweep events only happen when enabled). *)
  let health =
    Option.map
      (fun hconfig -> Health.attach ~config:hconfig ?scheduler ~alerts env)
      cfg.health
  in

  (* Runtime invariant auditor: opt-in, and it draws no engine
     randomness, so an audited campaign replays the unaudited one's
     decisions event for event. *)
  let auditor =
    if cfg.audit then begin
      let a = Auditor.attach ?scheduler env in
      Simkit.Audit.start a;
      Some a
    end
    else None
  in
  (* Evidence bundles cite the invariants failing around each build. *)
  (match (triage, auditor) with
   | Some tr, Some a -> Triage.set_auditor tr a
   | _ -> ());

  let operator =
    if cfg.enable_testing then Some (Operator.start ~config:cfg.operator env tracker)
    else
      (* Even without the framework, complaints and maintenance happen. *)
      Some
        (Operator.start
           ~config:{ cfg.operator with fix_capacity_per_day = 0.0 }
           env tracker)
  in
  ignore operator;

  (* Monthly snapshots of fault pressure and coverage. *)
  let snapshots = Hashtbl.create 16 in
  for m = 1 to cfg.months do
    let time = float_of_int m *. Simkit.Calendar.month in
    ignore
      (Simkit.Engine.schedule_at engine ~time (fun _ ->
           let active = List.length (Testbed.Faults.active faults) in
           let enabled =
             match scheduler with
             | Some s ->
               List.fold_left
                 (fun acc f -> acc + List.length (Testdef.expand f))
                 0 (Scheduler.enabled_families s)
             | None -> 0
           in
           let filed, fixed = Bugtracker.counts tracker in
           Hashtbl.replace snapshots (m - 1) (active, enabled, filed, fixed)))
  done;

  {
    sim_cfg = cfg;
    env;
    tracker;
    page;
    triage;
    serve;
    infra;
    workload;
    scheduler;
    health;
    auditor;
    snapshots;
    faults;
  }

let finalize sim =
  let {
    sim_cfg = cfg;
    env;
    tracker;
    page;
    triage;
    serve;
    infra;
    workload;
    scheduler;
    health;
    auditor;
    snapshots;
    faults;
  } =
    sim
  in
  (* Assemble the report. *)
  let month_stats = Statuspage.monthly_success page in
  let monthly =
    List.init cfg.months (fun m ->
        let builds, successful, ratio =
          match List.find_opt (fun (month, _, _, _) -> month = m) month_stats with
          | Some (_, builds, successful, ratio) -> (builds, successful, ratio)
          | None -> (0, 0, nan)
        in
        let active, enabled, filed, fixed =
          Option.value ~default:(0, 0, 0, 0) (Hashtbl.find_opt snapshots m)
        in
        {
          month = m;
          builds;
          successful;
          success_ratio = ratio;
          bugs_filed_cum = filed;
          bugs_fixed_cum = fixed;
          active_faults = active;
          enabled_configs = enabled;
        })
  in
  let history = Testbed.Faults.history faults in
  let detection_latency_days =
    let table = Hashtbl.create 8 in
    List.iter
      (fun fault ->
        match fault.Testbed.Faults.detected_at with
        | Some detected ->
          let category = Testbed.Faults.category fault.Testbed.Faults.kind in
          let latency =
            (detected -. fault.Testbed.Faults.injected_at) /. Simkit.Calendar.day
          in
          let total, n =
            Option.value ~default:(0.0, 0) (Hashtbl.find_opt table category)
          in
          Hashtbl.replace table category (total +. latency, n + 1)
        | None -> ())
      history;
    Hashtbl.fold
      (fun category (total, n) acc -> (category, total /. float_of_int n, n) :: acc)
      table []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let filed, fixed = Bugtracker.counts tracker in
  let resilience_summary =
    Option.map
      (fun i ->
        let sched =
          Option.map
            (fun s ->
              let st = Scheduler.stats s in
              ( st.Scheduler.breaker_trips,
                st.Scheduler.skipped_breaker_open,
                st.Scheduler.retries_spent,
                st.Scheduler.retries_exhausted,
                cfg.policy.Scheduler.retry_budget ))
            scheduler
        in
        Resilience.Infra.summary i ~scheduler:sched)
      infra
  in
  let mean_active_faults =
    match monthly with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc m -> acc +. float_of_int m.active_faults) 0.0 monthly
      /. float_of_int (List.length monthly)
  in
  let report =
    {
      cfg;
      monthly;
      bugs_filed = filed;
      bugs_fixed = fixed;
      bugs_by_category = Bugtracker.by_category tracker;
      faults_injected = List.length history;
      faults_detected =
        List.length (List.filter (fun f -> f.Testbed.Faults.detected_at <> None) history);
      faults_repaired =
        List.length (List.filter (fun f -> f.Testbed.Faults.repaired_at <> None) history);
      detection_latency_days;
      builds_total = Ci.Server.builds_executed env.Env.ci;
      workload_jobs = (match workload with Some w -> Oar.Workload.submitted w | None -> 0);
      scheduler_stats = Option.map Scheduler.stats scheduler;
      resilience = resilience_summary;
      health = Option.map Health.summary health;
      audit = Option.map Simkit.Audit.summary auditor;
      triage = Option.map Triage.summary triage;
      serve = Option.map Serve.summary serve;
      mean_active_faults;
      statuspage = "";
      statuspage_html = Webstatus.render page;
    }
  in
  let section_text (s : section) =
    Option.map (fun (title, body) -> "\n== " ^ title ^ " ==\n" ^ body) s.page
  in
  {
    report with
    statuspage =
      String.concat ""
        (Statuspage.render_overview page
        :: "\n== Cluster confidence ==\n"
        :: Confidence.render page
        :: List.filter_map section_text (sections report));
  }

let run cfg =
  let sim = prepare cfg in
  Simkit.Engine.run_until (sim_engine sim) (sim_horizon sim);
  finalize sim

let pp_report ppf report =
  Format.fprintf ppf "campaign: %d months, %d builds, %d bugs filed (%d fixed)@."
    report.cfg.months report.builds_total report.bugs_filed report.bugs_fixed;
  Format.fprintf ppf "faults: %d injected, %d detected, %d repaired@."
    report.faults_injected report.faults_detected report.faults_repaired;
  List.iter
    (fun (s : section) -> Option.iter (Format.fprintf ppf "%s@.") s.line)
    (sections report);
  List.iter
    (fun m ->
      Format.fprintf ppf
        "  month %d: %4d builds, success %s, bugs %d/%d, active faults %d@."
        m.month m.builds
        (Statuspage.fmt_ratio m.success_ratio)
        m.bugs_filed_cum m.bugs_fixed_cum m.active_faults)
    report.monthly
