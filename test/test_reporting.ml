(* Tests for the reporting/operability layer: JSON campaign reports,
   operator bug reports, confidence scores — plus the OAR advance
   reservations and user-image registration they build on. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ---- JSON campaign report ---------------------------------------------------- *)

let small_campaign =
  lazy
    (Framework.Campaign.run
       { Framework.Campaign.default_config with
         Framework.Campaign.months = 1;
         seed = 5003L;
         workload = None;
       })

let test_report_json_roundtrip () =
  let report = Lazy.force small_campaign in
  let text = Framework.Report.to_string report in
  match Simkit.Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok json -> (
    Alcotest.(check (option string))
      "schema tag" (Some "g5ktest/campaign-report/1")
      (Simkit.Json.string_member "schema" json);
    Alcotest.(check (option int))
      "bugs filed" (Some report.Framework.Campaign.bugs_filed)
      (Simkit.Json.int_member "bugs_filed" json);
    match Framework.Report.summary_of_json json with
    | Ok summary -> checkb "summary mentions builds" true (String.length summary > 10)
    | Error e -> Alcotest.fail e)

let test_report_monthly_serialisation () =
  let report = Lazy.force small_campaign in
  let json = Framework.Report.to_json report in
  match Simkit.Json.list_member "monthly" json with
  | Some months ->
    checki "one month" 1 (List.length months);
    (match months with
     | [ m ] ->
       Alcotest.(check (option int)) "month index" (Some 0) (Simkit.Json.int_member "month" m)
     | _ -> Alcotest.fail "one month expected")
  | None -> Alcotest.fail "monthly missing"

let test_report_schema_validation () =
  (match Framework.Report.summary_of_json (Simkit.Json.Obj []) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty object must fail");
  match
    Framework.Report.summary_of_json
      (Simkit.Json.Obj [ ("schema", Simkit.Json.String "other/2") ])
  with
  | Error msg -> checkb "names the schema" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "wrong schema must fail"

(* ---- Bug reports --------------------------------------------------------------- *)

let mk_bug env tracker =
  let fault =
    Option.get
      (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:100.0
         Testbed.Faults.Disk_write_cache (Testbed.Faults.Host "parasilo-3.rennes"))
  in
  match
    Framework.Bugtracker.file tracker ~now:200.0
      {
        Framework.Bugtracker.signature = "disk:parasilo-3.rennes";
        summary = "parasilo-3.rennes disk at 55% of expected bandwidth";
        category = "disk";
        source_test = "disk:parasilo";
        fault_ids = [ fault.Testbed.Faults.id ];
      }
  with
  | `New bug -> (bug, fault)
  | `Duplicate _ -> Alcotest.fail "expected new bug"

let test_bugreport_render () =
  let env = Framework.Env.create ~seed:5004L () in
  let tracker = Framework.Bugtracker.create () in
  let bug, fault = mk_bug env tracker in
  let report = Framework.Bugreport.render env bug in
  let contains needle =
    let n = String.length needle and m = String.length report in
    let rec scan i = i + n <= m && (String.sub report i n = needle || scan (i + 1)) in
    scan 0
  in
  checkb "names the host" true (contains "parasilo-3.rennes");
  checkb "names the cluster" true (contains "cluster parasilo");
  checkb "links ground truth" true
    (contains (Printf.sprintf "fault #%d" fault.Testbed.Faults.id));
  checkb "suggests an action" true (contains "firmware");
  checkb "open status" true (contains "OPEN")

let test_bugreport_scope_without_host () =
  let env = Framework.Env.create ~seed:5005L () in
  let bug =
    match
      Framework.Bugtracker.file (Framework.Bugtracker.create ()) ~now:0.0
        {
          Framework.Bugtracker.signature = "oarstate:lyon:service";
          summary = "OAR unreachable on lyon";
          category = "services";
          source_test = "oarstate:lyon";
          fault_ids = [];
        }
    with
    | `New bug -> bug
    | `Duplicate _ -> Alcotest.fail "new expected"
  in
  checks "falls back to the source test" "reported by oarstate:lyon"
    (Framework.Bugreport.affected_scope env bug)

let test_bugreport_index_orders_open_first () =
  let env = Framework.Env.create ~seed:5006L () in
  let tracker = Framework.Bugtracker.create () in
  let bug1, _ = mk_bug env tracker in
  (match
     Framework.Bugtracker.file tracker ~now:300.0
       {
         Framework.Bugtracker.signature = "console:lyon";
         summary = "console broken";
         category = "services";
         source_test = "console:orion";
         fault_ids = [];
       }
   with
   | `New _ -> ()
   | `Duplicate _ -> Alcotest.fail "new expected");
  Framework.Bugtracker.mark_fixed tracker ~now:400.0 bug1;
  let index = Framework.Bugreport.render_index env tracker in
  let open_pos =
    let rec find i =
      if i + 4 > String.length index then -1
      else if String.sub index i 4 = "OPEN" then i
      else find (i + 1)
    in
    find 0
  in
  let fixed_pos =
    let rec find i =
      if i + 5 > String.length index then -1
      else if String.sub index i 5 = "fixed" then i
      else find (i + 1)
    in
    find 0
  in
  checkb "has both" true (open_pos >= 0 && fixed_pos >= 0);
  checkb "open before fixed" true (open_pos < fixed_pos)

let test_suggested_actions_cover_categories () =
  List.iter
    (fun category ->
      checkb (category ^ " has advice") true
        (String.length (Framework.Bugreport.suggested_action category) > 10))
    [ "cpu-settings"; "disk"; "cabling"; "infrastructure"; "description";
      "services"; "software" ]

(* ---- Confidence ------------------------------------------------------------------ *)

let run_family_build env family axes =
  ignore
    (Ci.Server.trigger_subset env.Framework.Env.ci
       (Framework.Jobs.job_name family) ~axes:[ axes ]);
  Framework.Env.run_until env (Framework.Env.now env +. (4.0 *. Simkit.Calendar.hour))

let test_confidence_scores () =
  let env = Framework.Env.create ~seed:5007L () in
  let page = Framework.Statuspage.create env in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  checkb "no score before any run" true
    (Framework.Confidence.cluster_score page ~cluster:"graphite" = None);
  run_family_build env Framework.Testdef.Refapi [ ("cluster", "graphite") ];
  (match Framework.Confidence.cluster_score page ~cluster:"graphite" with
   | Some s -> Alcotest.(check (float 1e-9)) "all green = 1.0" 1.0 s
   | None -> Alcotest.fail "score expected");
  (* Break the disks; the weighted score drops below a refapi-only KO. *)
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:(Framework.Env.now env)
       Testbed.Faults.Disk_write_cache (Testbed.Faults.Host "graphite-1.nancy"));
  run_family_build env Framework.Testdef.Disk [ ("cluster", "graphite") ];
  match Framework.Confidence.cluster_score page ~cluster:"graphite" with
  | Some s ->
    checkb "score dropped" true (s < 1.0);
    checks "grade reflects it" "C" (Framework.Confidence.grade s)
  | None -> Alcotest.fail "score expected"

let test_confidence_grades () =
  checks "A" "A" (Framework.Confidence.grade 0.95);
  checks "B" "B" (Framework.Confidence.grade 0.8);
  checks "C" "C" (Framework.Confidence.grade 0.6);
  checks "D" "D" (Framework.Confidence.grade 0.2)

let test_confidence_ranking_render () =
  let env = Framework.Env.create ~seed:5008L () in
  let page = Framework.Statuspage.create env in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  run_family_build env Framework.Testdef.Refapi [ ("cluster", "nyx") ];
  run_family_build env Framework.Testdef.Refapi [ ("cluster", "graphite") ];
  let ranking = Framework.Confidence.ranking page in
  checki "two clusters ranked" 2 (List.length ranking);
  checkb "render mentions grades" true
    (String.length (Framework.Confidence.render page) > 0)

(* ---- OAR advance reservations ------------------------------------------------------ *)

let mk_oar () =
  let instance = Testbed.Instance.build ~seed:5009L () in
  (instance, Oar.Manager.create instance)

let test_submit_at_future_start () =
  let instance, oar = mk_oar () in
  let start = 7200.0 in
  let job =
    match
      Oar.Manager.submit_at oar ~start
        (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 2) ~walltime:3600.0)
    with
    | Ok job -> job
    | Error _ -> Alcotest.fail "advance reservation failed"
  in
  checkb "scheduled" true (job.Oar.Job.state = Oar.Job.Scheduled);
  Alcotest.(check (float 1e-6)) "start honoured" start job.Oar.Job.scheduled_start;
  Simkit.Engine.run_until instance.Testbed.Instance.engine 12000.0;
  checkb "ran at its slot" true (job.Oar.Job.state = Oar.Job.Terminated);
  match job.Oar.Job.started_at with
  | Some at -> checkb "started on time" true (Float.abs (at -. start) < 1.0)
  | None -> Alcotest.fail "never started"

let test_submit_at_conflict_rejected () =
  let _, oar = mk_oar () in
  (* Occupy all of nyx around the requested slot. *)
  (match
     Oar.Manager.submit oar
       (Oar.Request.nodes ~filter:"cluster='nyx'" `All ~walltime:14400.0)
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "setup failed");
  match
    Oar.Manager.submit_at oar ~start:7200.0
      (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:3600.0)
  with
  | Error (Oar.Manager.Not_immediately_schedulable at) ->
    checkb "proposes the next slot" true (at >= 14400.0)
  | _ -> Alcotest.fail "conflicting advance reservation must be rejected"

let test_submit_at_past_rejected () =
  let instance, oar = mk_oar () in
  Simkit.Engine.run_until instance.Testbed.Instance.engine 1000.0;
  checkb "past start raises" true
    (try
       ignore
         (Oar.Manager.submit_at oar ~start:10.0
            (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:600.0));
       false
     with Invalid_argument _ -> true)

(* ---- User image registration --------------------------------------------------------- *)

let test_image_register_and_deploy () =
  let instance = Testbed.Instance.build ~seed:5010L () in
  let registry =
    Kadeploy.Image.registry (Testbed.Faults.context instance.Testbed.Instance.faults)
  in
  let image =
    match
      Kadeploy.Image.register registry ~name:"mylab-stack" ~base:"debian/jessie"
        ~size_mb:1800 [ "install mylab"; "configure cluster-ssh" ]
    with
    | Ok img -> img
    | Error e -> Alcotest.fail e
  in
  checkb "fresh index beyond the standard 14" true
    (image.Kadeploy.Image.index >= Kadeploy.Image.count);
  checki "catalogue grew" 15 (List.length (Kadeploy.Image.all registry));
  checkb "lookup works" true (Kadeploy.Image.get registry "mylab-stack" <> None);
  (* Deployable like any standard image. *)
  let node = Testbed.Instance.node instance "grisou-1.nancy" in
  let result = ref None in
  Kadeploy.Deploy.run instance ~registry ~image:"mylab-stack" ~nodes:[ node ]
    ~on_done:(fun r -> result := Some r);
  Simkit.Engine.run_until instance.Testbed.Instance.engine 7200.0;
  (match !result with
   | Some r -> checkb "deployed" true (Kadeploy.Deploy.all_deployed r)
   | None -> Alcotest.fail "deployment never finished");
  checks "environment set" "mylab-stack" node.Testbed.Node.deployed_env

let test_image_register_rejects_duplicates () =
  let instance = Testbed.Instance.build ~seed:5011L () in
  let registry =
    Kadeploy.Image.registry (Testbed.Faults.context instance.Testbed.Instance.faults)
  in
  (match Kadeploy.Image.register registry ~name:"debian8-x64-std" ~base:"x" ~size_mb:1 [] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "standard name must be rejected");
  (match Kadeploy.Image.register registry ~name:"mine" ~base:"x" ~size_mb:100 [] with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  (match Kadeploy.Image.register registry ~name:"mine" ~base:"x" ~size_mb:100 [] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "duplicate user name must be rejected");
  match Kadeploy.Image.register registry ~name:"bad" ~base:"x" ~size_mb:0 [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-positive size must be rejected"

let test_image_register_corruption_targetable () =
  let instance = Testbed.Instance.build ~seed:5012L () in
  let registry =
    Kadeploy.Image.registry (Testbed.Faults.context instance.Testbed.Instance.faults)
  in
  let image =
    match Kadeploy.Image.register registry ~name:"victim" ~base:"x" ~size_mb:500 [] with
    | Ok img -> img
    | Error e -> Alcotest.fail e
  in
  let ctx = Testbed.Faults.context instance.Testbed.Instance.faults in
  Hashtbl.replace ctx.Testbed.Faults.flags
    (Printf.sprintf "env_corrupt:%d" image.Kadeploy.Image.index)
    "x";
  checkb "user image corruptible too" true (Kadeploy.Image.is_corrupt registry image)

let () =
  Alcotest.run "reporting"
    [
      ( "json-report",
        [ Alcotest.test_case "roundtrip" `Slow test_report_json_roundtrip;
          Alcotest.test_case "monthly series" `Slow test_report_monthly_serialisation;
          Alcotest.test_case "schema validation" `Quick test_report_schema_validation ] );
      ( "bugreport",
        [ Alcotest.test_case "render" `Quick test_bugreport_render;
          Alcotest.test_case "scope without host" `Quick test_bugreport_scope_without_host;
          Alcotest.test_case "index order" `Quick test_bugreport_index_orders_open_first;
          Alcotest.test_case "actions cover categories" `Quick
            test_suggested_actions_cover_categories ] );
      ( "confidence",
        [ Alcotest.test_case "scores" `Quick test_confidence_scores;
          Alcotest.test_case "grades" `Quick test_confidence_grades;
          Alcotest.test_case "ranking + render" `Quick test_confidence_ranking_render ] );
      ( "advance-reservations",
        [ Alcotest.test_case "future start" `Quick test_submit_at_future_start;
          Alcotest.test_case "conflict rejected" `Quick test_submit_at_conflict_rejected;
          Alcotest.test_case "past rejected" `Quick test_submit_at_past_rejected ] );
      ( "user-images",
        [ Alcotest.test_case "register + deploy" `Quick test_image_register_and_deploy;
          Alcotest.test_case "duplicates rejected" `Quick
            test_image_register_rejects_duplicates;
          Alcotest.test_case "corruption targetable" `Quick
            test_image_register_corruption_targetable ] );
    ]
