(* Tests for the testing framework itself: catalog, scripts, external
   scheduler, bug tracker, status page, operator. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let mk () = Framework.Env.create ~seed:404L ()

(* Run one script configuration synchronously, returning the outcome. *)
let run_script env config =
  let build =
    {
      Ci.Build.job_name = Framework.Jobs.job_name config.Framework.Testdef.family;
      number = 1;
      axes = Framework.Testdef.axes_of_config config;
      cause = "test";
      retry_of = None;
      queued_at = Framework.Env.now env;
      started_at = Some (Framework.Env.now env);
      finished_at = None;
      result = None;
      log = [];
      artifacts = [];
      touched_hosts = [];
    }
  in
  let outcome = ref None in
  Framework.Scripts.run env config ~build ~finish:(fun o -> outcome := Some o);
  Simkit.Engine.run_until (Framework.Env.engine env)
    (Framework.Env.now env +. (4.0 *. Simkit.Calendar.hour));
  match !outcome with Some o -> o | None -> Alcotest.fail "script never finished"

let config_exn family ~id =
  match
    List.find_opt
      (fun c -> String.equal c.Framework.Testdef.config_id id)
      (Framework.Testdef.expand family)
  with
  | Some c -> c
  | None -> Alcotest.failf "no config %s" id

(* ---- Catalog: the 751 configurations ------------------------------------------ *)

let test_catalog_is_751 () =
  checki "total configurations (paper: 751)" 751
    (List.length (Framework.Testdef.catalog ()));
  checki "via jobs module" 751 (Framework.Jobs.total_configurations ())

let test_catalog_family_sizes () =
  let size family = List.length (Framework.Testdef.expand family) in
  checki "environments 448" 448 (size Framework.Testdef.Environments);
  checki "stdenv 32" 32 (size Framework.Testdef.Stdenv);
  checki "refapi 32" 32 (size Framework.Testdef.Refapi);
  checki "oarproperties 32" 32 (size Framework.Testdef.Oarproperties);
  checki "dellbios 18" 18 (size Framework.Testdef.Dellbios);
  checki "oarstate 8" 8 (size Framework.Testdef.Oarstate);
  checki "cmdline 8" 8 (size Framework.Testdef.Cmdline);
  checki "sidapi 8" 8 (size Framework.Testdef.Sidapi);
  checki "paralleldeploy 8" 8 (size Framework.Testdef.Paralleldeploy);
  checki "multireboot 32" 32 (size Framework.Testdef.Multireboot);
  checki "multideploy 32" 32 (size Framework.Testdef.Multideploy);
  checki "console 32" 32 (size Framework.Testdef.Console);
  checki "kavlan 13" 13 (size Framework.Testdef.Kavlan);
  checki "kwapi 6" 6 (size Framework.Testdef.Kwapi);
  checki "mpigraph 10" 10 (size Framework.Testdef.Mpigraph);
  checki "disk 32" 32 (size Framework.Testdef.Disk)

let test_catalog_ids_unique () =
  let ids = List.map (fun c -> c.Framework.Testdef.config_id) (Framework.Testdef.catalog ()) in
  checki "unique ids" 751 (List.length (List.sort_uniq compare ids))

let test_axes_roundtrip () =
  List.iter
    (fun config ->
      let axes = Framework.Testdef.axes_of_config config in
      match Framework.Testdef.config_of_axes config.Framework.Testdef.family axes with
      | Some back ->
        checks "roundtrip" config.Framework.Testdef.config_id
          back.Framework.Testdef.config_id
      | None -> Alcotest.failf "axes lost %s" config.Framework.Testdef.config_id)
    (Framework.Testdef.catalog ())

(* [Testdef.config_of_axes] before its keyed tables: a linear scan of
   the family's expansion comparing option-wrapped fields. *)
let scan_config_of_axes family axes =
  let open Framework.Testdef in
  let find key = List.assoc_opt key axes in
  let candidates = expand family in
  match family with
  | Environments -> (
    match (find "image", find "cluster") with
    | Some image, Some cluster ->
      List.find_opt (fun c -> c.image = Some image && c.cluster = Some cluster) candidates
    | _ -> None)
  | Stdenv | Refapi | Oarproperties | Multireboot | Multideploy | Console | Disk | Dellbios
  | Mpigraph -> (
    match find "cluster" with
    | Some cluster -> List.find_opt (fun c -> c.cluster = Some cluster) candidates
    | None -> None)
  | Oarstate | Cmdline | Sidapi | Paralleldeploy | Kwapi -> (
    match find "site" with
    | Some site -> List.find_opt (fun c -> c.site = Some site) candidates
    | None -> None)
  | Kavlan -> (
    match Option.bind (find "vlan") int_of_string_opt with
    | Some vlan -> List.find_opt (fun c -> c.vlan = Some vlan) candidates
    | None -> None)

(* Edits turning a catalog configuration's axes into a lookup key. *)
type axes_edit =
  | Rotate  (* axis order other than [matrix_axes]' *)
  | Extra of string  (* an axis no family declares *)
  | Drop of int
  | Junk of int * string  (* a value outside the catalog, or a spelling *)
  | Other of int * int  (* the value of another configuration of the family *)
  | Pad of int  (* a leading zero: ["07"] *)
  | Shadow of int * string  (* the same axis again in front, with another value *)

let junk_values = [| ""; "nowhere"; "graphene2"; "07"; "0x7"; "-1"; "1_3"; " 7"; "+7"; "99" |]

let show_axes_edit = function
  | Rotate -> "rotate"
  | Extra v -> Printf.sprintf "extra %S" v
  | Drop i -> Printf.sprintf "drop %d" i
  | Junk (i, v) -> Printf.sprintf "junk %d %S" i v
  | Other (i, j) -> Printf.sprintf "other %d from config %d" i j
  | Pad i -> Printf.sprintf "pad %d" i
  | Shadow (i, v) -> Printf.sprintf "shadow %d %S" i v

let apply_axes_edit configs axes edit =
  let n = List.length axes in
  let at i f = List.mapi (fun k axis -> if k = i mod max 1 n then f axis else axis) axes in
  match edit with
  | Rotate -> ( match axes with a :: rest -> rest @ [ a ] | [] -> [])
  | Extra v -> axes @ [ ("zone", v) ]
  | Drop i -> List.filteri (fun k _ -> k <> i mod max 1 n) axes
  | Junk (i, v) -> at i (fun (k, _) -> (k, v))
  | Other (i, j) ->
    let other = Framework.Testdef.axes_of_config (List.nth configs (j mod List.length configs)) in
    at i (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k other)))
  | Pad i -> at i (fun (k, v) -> (k, "0" ^ v))
  | Shadow (i, v) -> (
    match List.nth_opt axes (i mod max 1 n) with Some (k, _) -> (k, v) :: axes | None -> axes)

let prop_config_lookup_matches_scan =
  let families = Array.of_list Framework.Testdef.all_families in
  let gen_edit =
    QCheck.Gen.(
      let i = int_bound 3 and v = map (Array.get junk_values) (int_bound (Array.length junk_values - 1)) in
      frequency
        [ (2, return Rotate); (1, map (fun v -> Extra v) v); (1, map (fun i -> Drop i) i);
          (2, map2 (fun i v -> Junk (i, v)) i v); (3, map2 (fun i j -> Other (i, j)) i (int_bound 447));
          (2, map (fun i -> Pad i) i); (1, map2 (fun i v -> Shadow (i, v)) i v) ])
  in
  let print (f, c, edits) =
    Printf.sprintf "%s config %d: %s"
      (Framework.Testdef.family_to_string families.(f))
      c
      (String.concat "; " (List.map show_axes_edit edits))
  in
  QCheck.Test.make ~name:"keyed config_of_axes = linear scan" ~count:1000
    (QCheck.make ~print
       QCheck.Gen.(
         triple (int_bound (Array.length families - 1)) (int_bound 447)
           (list_size (int_bound 3) gen_edit)))
    (fun (f, c, edits) ->
      let family = families.(f) in
      let configs = Framework.Testdef.expand family in
      let axes =
        Framework.Testdef.axes_of_config (List.nth configs (c mod List.length configs))
      in
      let axes = List.fold_left (apply_axes_edit configs) axes edits in
      (* Every configuration of the family finds itself, too. *)
      Framework.Testdef.config_of_axes family axes = scan_config_of_axes family axes
      && List.for_all
           (fun config ->
             let axes = Framework.Testdef.axes_of_config config in
             Framework.Testdef.config_of_axes family axes = scan_config_of_axes family axes)
           configs)

let test_hardware_centric_classification () =
  checkb "multireboot hardware-centric" true
    (Framework.Testdef.is_hardware_centric Framework.Testdef.Multireboot);
  checkb "refapi software-centric" false
    (Framework.Testdef.is_hardware_centric Framework.Testdef.Refapi)

(* ---- Scripts: healthy testbed passes everything --------------------------------- *)

let test_scripts_pass_on_healthy_testbed () =
  let env = mk () in
  (* One representative configuration per family. *)
  let representatives =
    List.map
      (fun family -> List.hd (Framework.Testdef.expand family))
      Framework.Testdef.all_families
  in
  List.iter
    (fun config ->
      let outcome = run_script env config in
      checkb
        (Printf.sprintf "%s passes" config.Framework.Testdef.config_id)
        true
        (outcome.Framework.Scripts.result = Ci.Build.Success))
    representatives

(* ---- Scripts: each fault class is caught by the right family --------------------- *)

let test_refapi_catches_cpu_drift () =
  let env = mk () in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Cpu_cstates (Testbed.Faults.Host "graphene-3.nancy"));
  let outcome = run_script env (config_exn Framework.Testdef.Refapi ~id:"refapi:graphene") in
  checkb "failure" true (outcome.Framework.Scripts.result = Ci.Build.Failure);
  checkb "evidence filed" true (outcome.Framework.Scripts.evidences <> []);
  let fault = List.hd (Testbed.Faults.history (Framework.Env.faults env)) in
  checkb "ground truth marked detected" true (fault.Testbed.Faults.detected_at <> None)

let test_refapi_catches_cabling () =
  let env = mk () in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Cabling_swap
       (Testbed.Faults.Host_pair ("graphene-3.nancy", "graphene-4.nancy")));
  let outcome = run_script env (config_exn Framework.Testdef.Refapi ~id:"refapi:graphene") in
  checkb "failure" true (outcome.Framework.Scripts.result = Ci.Build.Failure);
  checkb "cabling category" true
    (List.exists
       (fun (e : Framework.Bugtracker.evidence) -> String.equal e.Framework.Bugtracker.category "cabling")
       outcome.Framework.Scripts.evidences)

let test_dellbios_catches_bios_drift () =
  let env = mk () in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0 Testbed.Faults.Bios_drift
       (Testbed.Faults.Host "grisou-5.nancy"));
  let outcome = run_script env (config_exn Framework.Testdef.Dellbios ~id:"dellbios:grisou") in
  checkb "failure" true (outcome.Framework.Scripts.result = Ci.Build.Failure)

let test_oarproperties_catches_desync () =
  let env = mk () in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Oar_property_desync (Testbed.Faults.Host "orion-1.lyon"));
  Oar.Manager.refresh_properties env.Framework.Env.oar;
  let outcome =
    run_script env (config_exn Framework.Testdef.Oarproperties ~id:"oarproperties:orion")
  in
  checkb "failure" true (outcome.Framework.Scripts.result = Ci.Build.Failure)

let test_disk_catches_write_cache () =
  let env = mk () in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Disk_write_cache (Testbed.Faults.Host "graphite-1.nancy"));
  let outcome = run_script env (config_exn Framework.Testdef.Disk ~id:"disk:graphite") in
  checkb "failure" true (outcome.Framework.Scripts.result = Ci.Build.Failure);
  checkb "disk category" true
    (List.for_all
       (fun (e : Framework.Bugtracker.evidence) -> String.equal e.Framework.Bugtracker.category "disk")
       outcome.Framework.Scripts.evidences)

let test_mpigraph_catches_ofed () =
  let env = mk () in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0 Testbed.Faults.Ofed_flaky
       (Testbed.Faults.Cluster "parapide"));
  let outcome = run_script env (config_exn Framework.Testdef.Mpigraph ~id:"mpigraph:parapide") in
  checkb "failure" true (outcome.Framework.Scripts.result = Ci.Build.Failure)

let test_console_catches_broken_console () =
  let env = mk () in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Service_outage
       (Testbed.Faults.Site_service ("nancy", Testbed.Services.Console)));
  let outcome = run_script env (config_exn Framework.Testdef.Console ~id:"console:grisou") in
  checkb "failure" true (outcome.Framework.Scripts.result = Ci.Build.Failure)

let test_cmdline_catches_frontend_outage () =
  let env = mk () in
  Testbed.Services.set_state env.Framework.Env.instance.Testbed.Instance.services
    ~site:"lyon" Testbed.Services.Frontend Testbed.Services.Down;
  let outcome = run_script env (config_exn Framework.Testdef.Cmdline ~id:"cmdline:lyon") in
  checkb "failure" true (outcome.Framework.Scripts.result = Ci.Build.Failure)

let test_kwapi_catches_misattribution () =
  let env = mk () in
  (* Discover which host the script actually probes, then swap that
     host's wattmeter channel with a node of very different wattage. *)
  let probed = ref None in
  let ended = ref [] in
  Oar.Manager.on_job_end env.Framework.Env.oar (fun j -> ended := j :: !ended);
  Ci.Server.on_build_complete env.Framework.Env.ci (fun _ -> ());
  let first = run_script env (config_exn Framework.Testdef.Kwapi ~id:"kwapi:lyon") in
  checkb "healthy run passes" true (first.Framework.Scripts.result = Ci.Build.Success);
  (* The reservation, released when the script ends, names the host. *)
  ignore probed;
  let chosen =
    match !ended with
    | last :: _ -> List.hd last.Oar.Job.assigned
    | [] -> Alcotest.fail "no reservation recorded"
  in
  let partner =
    if String.equal chosen "sagittaire-1.lyon" then "nova-1.lyon" else "sagittaire-1.lyon"
  in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:(Framework.Env.now env)
       Testbed.Faults.Kwapi_misattribution
       (Testbed.Faults.Host_pair (chosen, partner)));
  let outcomes =
    List.init 4 (fun _ -> run_script env (config_exn Framework.Testdef.Kwapi ~id:"kwapi:lyon"))
  in
  checkb "misattribution eventually caught" true
    (List.exists (fun o -> o.Framework.Scripts.result = Ci.Build.Failure) outcomes)

let test_environments_catches_corrupt_image () =
  let env = mk () in
  let img = Kadeploy.Image.std_env in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Env_image_corrupt
       (Testbed.Faults.Global (Printf.sprintf "env_corrupt:%d" img.Kadeploy.Image.index)));
  let outcome =
    run_script env
      (config_exn Framework.Testdef.Environments
         ~id:(Printf.sprintf "environments:%s:grisou" img.Kadeploy.Image.name))
  in
  checkb "failure" true (outcome.Framework.Scripts.result = Ci.Build.Failure);
  checkb "software category" true
    (List.exists
       (fun (e : Framework.Bugtracker.evidence) -> String.equal e.Framework.Bugtracker.category "software")
       outcome.Framework.Scripts.evidences)

let test_script_unstable_when_resources_taken () =
  let env = mk () in
  (* Occupy all of graphite, then run the whole-cluster disk test. *)
  (match
     Oar.Manager.submit env.Framework.Env.oar
       (Oar.Request.nodes ~filter:"cluster='graphite'" `All ~walltime:86400.0)
   with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "setup reservation failed");
  let outcome = run_script env (config_exn Framework.Testdef.Disk ~id:"disk:graphite") in
  checkb "unstable, as the paper specifies" true
    (outcome.Framework.Scripts.result = Ci.Build.Unstable)

(* ---- Bug tracker ------------------------------------------------------------------ *)

let ev ?(signature = "sig") ?(category = "disk") () =
  {
    Framework.Bugtracker.signature;
    summary = "a bug";
    category;
    source_test = "disk:graphite";
    fault_ids = [ 1 ];
  }

let test_bugtracker_dedup () =
  let tr = Framework.Bugtracker.create () in
  (match Framework.Bugtracker.file tr ~now:0.0 (ev ()) with
   | `New bug -> checki "id 1" 1 bug.Framework.Bugtracker.id
   | `Duplicate _ -> Alcotest.fail "first filing is new");
  (match Framework.Bugtracker.file tr ~now:1.0 (ev ()) with
   | `Duplicate bug -> checki "occurrences" 2 bug.Framework.Bugtracker.occurrences
   | `New _ -> Alcotest.fail "same signature must dedup");
  checki "one bug filed" 1 (fst (Framework.Bugtracker.counts tr))

let test_bugtracker_fix_and_regression () =
  let tr = Framework.Bugtracker.create () in
  let bug =
    match Framework.Bugtracker.file tr ~now:0.0 (ev ()) with
    | `New bug -> bug
    | `Duplicate _ -> Alcotest.fail "new expected"
  in
  Framework.Bugtracker.mark_fixed tr ~now:5.0 bug;
  checki "fixed count" 1 (snd (Framework.Bugtracker.counts tr));
  (* The problem comes back: the bug reopens. *)
  ignore (Framework.Bugtracker.file tr ~now:10.0 (ev ()));
  checkb "reopened" true (bug.Framework.Bugtracker.status = Framework.Bugtracker.Open);
  checki "fixed count back to zero" 0 (snd (Framework.Bugtracker.counts tr))

let test_bugtracker_categories () =
  let tr = Framework.Bugtracker.create () in
  ignore (Framework.Bugtracker.file tr ~now:0.0 (ev ~signature:"a" ~category:"disk" ()));
  ignore (Framework.Bugtracker.file tr ~now:0.0 (ev ~signature:"b" ~category:"disk" ()));
  ignore (Framework.Bugtracker.file tr ~now:0.0 (ev ~signature:"c" ~category:"cabling" ()));
  match Framework.Bugtracker.by_category tr with
  | (top_cat, top_n, _) :: _ ->
    checks "disk leads" "disk" top_cat;
    checki "two disk bugs" 2 top_n
  | [] -> Alcotest.fail "no categories"

let test_bugtracker_merges_fault_ids () =
  let tr = Framework.Bugtracker.create () in
  let bug =
    match Framework.Bugtracker.file tr ~now:0.0 (ev ()) with
    | `New bug -> bug
    | `Duplicate _ -> Alcotest.fail "new"
  in
  ignore
    (Framework.Bugtracker.file tr ~now:1.0
       { (ev ()) with Framework.Bugtracker.fault_ids = [ 7; 1 ] });
  Alcotest.(check (list int)) "merged ids" [ 1; 7 ] bug.Framework.Bugtracker.fault_ids

(* ---- External scheduler -------------------------------------------------------------- *)

let test_scheduler_enable_staggers () =
  let env = mk () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let s = Framework.Scheduler.create env in
  Framework.Scheduler.enable_family s Framework.Testdef.Refapi;
  checki "one family" 1 (List.length (Framework.Scheduler.enabled_families s));
  checki "nothing due immediately (staggered)" 0 (Framework.Scheduler.due_count s 0.0);
  checki "all due after one period" 32
    (Framework.Scheduler.due_count s (Framework.Testdef.base_period Framework.Testdef.Refapi))

let test_scheduler_runs_api_tests () =
  let env = mk () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let s = Framework.Scheduler.create env in
  Framework.Scheduler.enable_family s Framework.Testdef.Refapi;
  Framework.Scheduler.start s;
  Framework.Env.run_until env (2.0 *. Simkit.Calendar.day);
  let stats = Framework.Scheduler.stats s in
  checkb "polled" true (stats.Framework.Scheduler.polls > 100);
  checkb "triggered refapi builds" true (stats.Framework.Scheduler.triggered >= 32);
  checkb "successes recorded" true (stats.Framework.Scheduler.completed_success >= 32)

let test_scheduler_avoids_peak_hours () =
  let env = mk () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let s = Framework.Scheduler.create env in
  (* Disk is node-consuming: during peak hours nothing should trigger. *)
  Framework.Scheduler.enable_family s Framework.Testdef.Disk;
  Framework.Scheduler.start s;
  (* Run through Monday 18:00: triggers before 08:00 are fine, but none
     may land inside the 08:00-19:00 user window. *)
  Framework.Env.run_until env (18.0 *. 3600.0);
  let stats = Framework.Scheduler.stats s in
  checkb "peak skips recorded" true (stats.Framework.Scheduler.skipped_peak > 0);
  List.iter
    (fun b ->
      checkb "no disk build queued during user hours" false
        (Simkit.Calendar.is_peak_hours b.Ci.Build.queued_at))
    (Ci.Server.builds env.Framework.Env.ci "test_disk")

let test_scheduler_naive_triggers_anyway () =
  let env = mk () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let s = Framework.Scheduler.create ~policy:Framework.Scheduler.naive_policy env in
  Framework.Scheduler.enable_family s Framework.Testdef.Disk;
  Framework.Scheduler.start s;
  Framework.Env.run_until env (18.0 *. 3600.0);
  let stats = Framework.Scheduler.stats s in
  checkb "naive policy ignores peak hours" true (stats.Framework.Scheduler.triggered > 0)

(* ---- Status page ----------------------------------------------------------------------- *)

let test_statuspage_views () =
  let env = mk () in
  let page = Framework.Statuspage.create env in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  (* Run one refapi build through the CI so the page sees it. *)
  (match
     Ci.Server.trigger_subset env.Framework.Env.ci "test_refapi"
       ~axes:[ [ ("cluster", "graphene") ] ]
   with
   | Ci.Server.Queued _ -> ()
   | _ -> Alcotest.fail "trigger failed");
  Framework.Env.run_until env 7200.0;
  checkb "latest cell green" true
    (Framework.Statuspage.latest page ~family:Framework.Testdef.Refapi ~scope:"graphene"
     = Framework.Statuspage.Ok_);
  checkb "site rollup green" true
    (Framework.Statuspage.site_status page ~family:Framework.Testdef.Refapi ~site:"nancy"
     = Framework.Statuspage.Ok_);
  checkb "unknown scope missing" true
    (Framework.Statuspage.latest page ~family:Framework.Testdef.Disk ~scope:"graphene"
     = Framework.Statuspage.Missing);
  let overview = Framework.Statuspage.render_overview page in
  let contains haystack needle =
    let n = String.length needle and m = String.length haystack in
    let rec scan i = i + n <= m && (String.sub haystack i n = needle || scan (i + 1)) in
    scan 0
  in
  checkb "overview mentions refapi" true (contains overview "refapi")

let test_statuspage_monthly_series () =
  let env = mk () in
  let page = Framework.Statuspage.create env in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  ignore
    (Ci.Server.trigger_subset env.Framework.Env.ci "test_oarstate"
       ~axes:[ [ ("site", "lyon") ] ]);
  Framework.Env.run_until env 7200.0;
  match Framework.Statuspage.monthly_success page with
  | [ (0, completed, successful, ratio) ] ->
    checki "one build" 1 completed;
    checki "successful" 1 successful;
    Alcotest.(check (float 1e-9)) "ratio" 1.0 ratio
  | _ -> Alcotest.fail "expected month-0 entry"

(* ---- Operator ---------------------------------------------------------------------------- *)

let test_operator_fixes_bugs_and_faults () =
  let env = mk () in
  let tracker = Framework.Bugtracker.create () in
  let faults = Framework.Env.faults env in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Cpu_turbo
         (Testbed.Faults.Host "taurus-2.lyon"))
  in
  (match
     Framework.Bugtracker.file tracker ~now:0.0
       {
         Framework.Bugtracker.signature = "refapi:taurus-2.lyon:x";
         summary = "turbo drift";
         category = "cpu-settings";
         source_test = "refapi:taurus";
         fault_ids = [ fault.Testbed.Faults.id ];
       }
   with
   | `New _ -> ()
   | `Duplicate _ -> Alcotest.fail "new bug expected");
  let op = Framework.Operator.start env tracker in
  Framework.Env.run_until env (10.0 *. Simkit.Calendar.day);
  checkb "bug fixed" true (snd (Framework.Bugtracker.counts tracker) = 1);
  checkb "fault repaired" true (fault.Testbed.Faults.repaired_at <> None);
  checkb "fix counted" true (Framework.Operator.bugs_fixed op >= 1);
  Framework.Operator.stop op

let test_operator_maintenance_injects_drift () =
  let env = mk () in
  let tracker = Framework.Bugtracker.create () in
  let op =
    Framework.Operator.start
      ~config:
        { Framework.Operator.default_config with
          Framework.Operator.maintenance_period = Simkit.Calendar.day;
          maintenance_fault_rate = 3.0;
        }
      env tracker
  in
  Framework.Env.run_until env (15.0 *. Simkit.Calendar.day);
  checkb "maintenance windows happened" true (Framework.Operator.maintenance_windows op > 5);
  checkb "maintenance introduced faults" true
    (List.length (Testbed.Faults.history (Framework.Env.faults env)) > 0);
  Framework.Operator.stop op

let () =
  Alcotest.run "framework"
    [
      ( "catalog",
        [ Alcotest.test_case "751 configurations" `Quick test_catalog_is_751;
          Alcotest.test_case "family sizes" `Quick test_catalog_family_sizes;
          Alcotest.test_case "unique ids" `Quick test_catalog_ids_unique;
          Alcotest.test_case "axes roundtrip" `Quick test_axes_roundtrip;
          Qc.to_alcotest prop_config_lookup_matches_scan;
          Alcotest.test_case "hardware-centric" `Quick
            test_hardware_centric_classification ] );
      ( "scripts-pass",
        [ Alcotest.test_case "healthy testbed all green" `Slow
            test_scripts_pass_on_healthy_testbed ] );
      ( "scripts-detect",
        [ Alcotest.test_case "refapi: cpu drift" `Quick test_refapi_catches_cpu_drift;
          Alcotest.test_case "refapi: cabling" `Quick test_refapi_catches_cabling;
          Alcotest.test_case "dellbios: bios drift" `Quick test_dellbios_catches_bios_drift;
          Alcotest.test_case "oarproperties: desync" `Quick
            test_oarproperties_catches_desync;
          Alcotest.test_case "disk: write cache" `Quick test_disk_catches_write_cache;
          Alcotest.test_case "mpigraph: ofed" `Quick test_mpigraph_catches_ofed;
          Alcotest.test_case "console: outage" `Quick test_console_catches_broken_console;
          Alcotest.test_case "cmdline: frontend" `Quick
            test_cmdline_catches_frontend_outage;
          Alcotest.test_case "kwapi: misattribution" `Slow
            test_kwapi_catches_misattribution;
          Alcotest.test_case "environments: corrupt image" `Quick
            test_environments_catches_corrupt_image;
          Alcotest.test_case "unstable when busy" `Quick
            test_script_unstable_when_resources_taken ] );
      ( "bugtracker",
        [ Alcotest.test_case "dedup" `Quick test_bugtracker_dedup;
          Alcotest.test_case "fix and regression" `Quick test_bugtracker_fix_and_regression;
          Alcotest.test_case "categories" `Quick test_bugtracker_categories;
          Alcotest.test_case "merges fault ids" `Quick test_bugtracker_merges_fault_ids ] );
      ( "scheduler",
        [ Alcotest.test_case "staggered enable" `Quick test_scheduler_enable_staggers;
          Alcotest.test_case "runs api tests" `Quick test_scheduler_runs_api_tests;
          Alcotest.test_case "avoids peak hours" `Quick test_scheduler_avoids_peak_hours;
          Alcotest.test_case "naive triggers anyway" `Quick
            test_scheduler_naive_triggers_anyway ] );
      ( "statuspage",
        [ Alcotest.test_case "views" `Quick test_statuspage_views;
          Alcotest.test_case "monthly series" `Quick test_statuspage_monthly_series ] );
      ( "operator",
        [ Alcotest.test_case "fixes bugs" `Quick test_operator_fixes_bugs_and_faults;
          Alcotest.test_case "maintenance drift" `Quick
            test_operator_maintenance_injects_drift ] );
    ]
