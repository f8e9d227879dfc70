let monthly_to_json (m : Campaign.monthly) =
  let open Simkit.Json in
  Obj
    [ ("month", Int m.Campaign.month);
      ("builds", Int m.Campaign.builds);
      ("successful", Int m.Campaign.successful);
      ("success_ratio", Float m.Campaign.success_ratio);
      ("bugs_filed_cum", Int m.Campaign.bugs_filed_cum);
      ("bugs_fixed_cum", Int m.Campaign.bugs_fixed_cum);
      ("active_faults", Int m.Campaign.active_faults);
      ("enabled_configs", Int m.Campaign.enabled_configs) ]

let scheduler_to_json ?(health = false) (s : Scheduler.stats) =
  let open Simkit.Json in
  Obj
    ([ ("polls", Int s.Scheduler.polls);
       ("triggered", Int s.Scheduler.triggered);
       ("completed_success", Int s.Scheduler.completed_success);
       ("completed_failure", Int s.Scheduler.completed_failure);
       ("completed_unstable", Int s.Scheduler.completed_unstable);
       ("skipped_peak", Int s.Scheduler.skipped_peak);
       ("skipped_site_busy", Int s.Scheduler.skipped_site_busy);
       ("skipped_no_resources", Int s.Scheduler.skipped_no_resources) ]
    (* The quarantine split only exists with a health supervisor, so
       reports from historical configurations stay byte-identical. *)
    @ if health then [ ("skipped_quarantined", Int s.Scheduler.skipped_quarantined) ]
      else [])

let to_json (report : Campaign.report) =
  let open Simkit.Json in
  Obj
    ([ ("schema", String "g5ktest/campaign-report/1");
      ("months", Int report.Campaign.cfg.Campaign.months);
      ("seed", String (Int64.to_string report.Campaign.cfg.Campaign.seed));
      ("builds_total", Int report.Campaign.builds_total);
      ("workload_jobs", Int report.Campaign.workload_jobs);
      ("bugs_filed", Int report.Campaign.bugs_filed);
      ("bugs_fixed", Int report.Campaign.bugs_fixed);
      ( "bugs_by_category",
        List
          (List.map
             (fun (category, filed, fixed) ->
               Obj
                 [ ("category", String category); ("filed", Int filed);
                   ("fixed", Int fixed) ])
             report.Campaign.bugs_by_category) );
      ("faults_injected", Int report.Campaign.faults_injected);
      ("faults_detected", Int report.Campaign.faults_detected);
      ("faults_repaired", Int report.Campaign.faults_repaired);
      ( "detection_latency_days",
        List
          (List.map
             (fun (category, days, n) ->
               Obj
                 [ ("category", String category); ("mean_days", Float days);
                   ("detections", Int n) ])
             report.Campaign.detection_latency_days) );
      ("monthly", List (List.map monthly_to_json report.Campaign.monthly));
      ( "scheduler",
        match report.Campaign.scheduler_stats with
        | Some s ->
          scheduler_to_json ~health:(report.Campaign.health <> None) s
        | None -> Null ) ]
    (* Opt-in subsystems add a member only when attached, so reports from
       historical configurations stay byte-identical. *)
    @ List.map
        (fun (s : Campaign.section) -> (s.key, s.json))
        (Campaign.sections report))

let to_string ?(indent = 2) report = Simkit.Json.to_string ~indent (to_json report)

let summary_of_json json =
  let open Simkit.Json in
  match string_member "schema" json with
  | Some "g5ktest/campaign-report/1" -> (
    match
      ( int_member "months" json,
        int_member "builds_total" json,
        int_member "bugs_filed" json,
        int_member "bugs_fixed" json,
        list_member "monthly" json )
    with
    | Some months, Some builds, Some filed, Some fixed, Some monthly ->
      if List.length monthly <> months then Error "monthly series length mismatch"
      else
        Ok
          (Printf.sprintf "%d months, %d builds, %d bugs (%d fixed)" months builds
             filed fixed)
    | _ -> Error "missing required members")
  | Some other -> Error ("unknown schema: " ^ other)
  | None -> Error "missing schema member"
