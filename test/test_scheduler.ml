(* Scheduler hot-path tests: corrected skipped_peak accounting, the
   anti-affinity fix for site-less configurations, the due-heap vs
   linear-scan equivalence property, and OAR filter-cache invalidation. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let mk () = Framework.Env.create ~seed:404L ()

let config_exn family ~id =
  match
    List.find_opt
      (fun c -> String.equal c.Framework.Testdef.config_id id)
      (Framework.Testdef.expand family)
  with
  | Some c -> c
  | None -> Alcotest.failf "no config %s" id

(* ---- skipped_peak: once per due-window, run as soon as peak ends ---------- *)

let test_peak_skip_counted_once () =
  let env = mk () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let s = Framework.Scheduler.create env in
  Framework.Scheduler.enable_family s Framework.Testdef.Disk;
  Framework.Scheduler.start s;
  (* Through Monday 18:00: every disk configuration that came due inside
     the 08:00-19:00 user window is asleep until 19:00, so it can have
     been counted at most once.  The old scheduler re-counted each of
     them on every 600 s poll (~60x per blocked configuration). *)
  Framework.Env.run_until env (18.0 *. 3600.0);
  let stats = Framework.Scheduler.stats s in
  checkb "some configurations were peak-blocked" true
    (stats.Framework.Scheduler.skipped_peak > 0);
  checkb "each blocked configuration counted at most once" true
    (stats.Framework.Scheduler.skipped_peak
    <= List.length (Framework.Testdef.expand Framework.Testdef.Disk))

let test_peak_skip_runs_when_peak_ends () =
  let env = mk () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let s = Framework.Scheduler.create env in
  Framework.Scheduler.enable_family s Framework.Testdef.Disk;
  Framework.Scheduler.start s;
  Framework.Env.run_until env (24.0 *. 3600.0);
  let stats = Framework.Scheduler.stats s in
  checkb "some configurations were peak-blocked" true
    (stats.Framework.Scheduler.skipped_peak > 0);
  let builds = Ci.Server.builds env.Framework.Env.ci "test_disk" in
  List.iter
    (fun b ->
      checkb "no disk build queued during user hours" false
        (Simkit.Calendar.is_peak_hours b.Ci.Build.queued_at))
    builds;
  (* Sleeping through the user window must not delay the evening run:
     blocked configurations fire on the first polls after 19:00. *)
  let peak_end = 19.0 *. 3600.0 in
  checkb "blocked configurations trigger right after peak ends" true
    (List.exists
       (fun b ->
         b.Ci.Build.queued_at >= peak_end
         && b.Ci.Build.queued_at < peak_end +. 1800.0)
       builds)

(* ---- anti-affinity: site-less configs resolve to a concrete site ---------- *)

let test_effective_site_resolution () =
  let vlan300 = config_exn Framework.Testdef.Kavlan ~id:"kavlan:300" in
  checkb "global vlan has no declared site" true
    (vlan300.Framework.Testdef.site = None);
  checks "global vlan resolves to the first inventory site"
    (List.hd Testbed.Inventory.sites)
    (match Framework.Testdef.effective_site vlan300 with
     | Some site -> site
     | None -> Alcotest.fail "global vlan has no effective site");
  (* Every node-consuming configuration must resolve somewhere, else it
     escapes the one-job-per-site rule. *)
  List.iter
    (fun c ->
      if Framework.Testdef.need c.Framework.Testdef.family <> Framework.Testdef.No_nodes
      then
        checkb
          ("effective site resolved for " ^ c.Framework.Testdef.config_id)
          true
          (Framework.Testdef.effective_site c <> None))
    (Framework.Testdef.catalog ());
  (* A declared site is always taken as-is. *)
  List.iter
    (fun c ->
      match c.Framework.Testdef.site with
      | Some _ as declared ->
        checkb
          ("declared site preserved for " ^ c.Framework.Testdef.config_id)
          true
          (Framework.Testdef.effective_site c = declared)
      | None -> ())
    (Framework.Testdef.catalog ())

let test_kavlan_anti_affinity_accounting () =
  let env = mk () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let s = Framework.Scheduler.create env in
  Framework.Scheduler.enable_family s Framework.Testdef.Kavlan;
  Framework.Scheduler.start s;
  let samples = ref 0 in
  (* Sample the invariant off the poll grid: at most one in-flight
     node-consuming build per effective site, and the scheduler's busy
     table mirrors the in-flight builds exactly — including the global
     vlan 300, which the old scheduler never registered. *)
  Simkit.Engine.every (Framework.Env.engine env) ~period:701.0 (fun _ ->
      let in_flight =
        List.filter
          (fun b -> not (Ci.Build.is_finished b))
          (Ci.Server.builds env.Framework.Env.ci "test_kavlan")
      in
      let sites =
        List.filter_map
          (fun b ->
            Option.bind
              (Framework.Jobs.config_of_build b)
              Framework.Testdef.effective_site)
          in_flight
        |> List.sort String.compare
      in
      checki "one in-flight kavlan build per site"
        (List.length (List.sort_uniq String.compare sites))
        (List.length sites);
      checkb "busy table mirrors in-flight builds" true
        (Framework.Scheduler.busy_sites s = sites);
      incr samples;
      true);
  Framework.Env.run_until env (6.0 *. Simkit.Calendar.day);
  checkb "invariant sampled throughout the run" true (!samples > 500);
  checkb "kavlan rotation covered the catalog" true
    ((Framework.Scheduler.stats s).Framework.Scheduler.triggered
    >= List.length (Framework.Testdef.expand Framework.Testdef.Kavlan))

(* ---- due-heap scheduler == linear-scan reference -------------------------- *)

let family_pool =
  Framework.Testdef.
    [ Refapi; Oarstate; Stdenv; Kwapi; Kavlan; Paralleldeploy; Disk ]

let run_campaign ~indexed ~seed ~families ~days ~naive =
  let env = Framework.Env.create ~seed:(Int64.of_int seed) () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let policy =
    if naive then Framework.Scheduler.naive_policy
    else Framework.Scheduler.smart_policy
  in
  let s = Framework.Scheduler.create ~policy ~indexed env in
  List.iter (Framework.Scheduler.enable_family s) families;
  (* Every completed build, in completion order: what was triggered,
     when, for which configuration, as which retry, and how it ended.
     The build number pins the trigger order within one poll, which
     completion order alone does not show. *)
  let builds = ref [] in
  Ci.Server.on_build_complete env.Framework.Env.ci (fun b ->
      builds :=
        Ci.Build.(b.queued_at, b.job_name, b.number, b.axes, b.retry_of, b.result)
        :: !builds);
  Framework.Scheduler.start s;
  Framework.Env.run_until env (float_of_int days *. Simkit.Calendar.day);
  (List.rev !builds, Framework.Scheduler.stats s)

let equivalence_prop =
  QCheck.Test.make ~count:6
    ~name:"due-heap scheduler triggers the same sequence as the linear scan"
    QCheck.(
      quad small_nat
        (list_of_size
           (QCheck.Gen.int_range 1 2)
           (int_bound (List.length family_pool - 1)))
        (int_range 2 3) bool)
    (fun (seed, fam_idx, days, naive) ->
      let families =
        List.sort_uniq compare (List.map (List.nth family_pool) fam_idx)
      in
      let indexed = run_campaign ~indexed:true ~seed ~families ~days ~naive in
      let linear = run_campaign ~indexed:false ~seed ~families ~days ~naive in
      indexed = linear)

(* ---- OAR filter cache: reset on refresh_properties ------------------------ *)

let test_filter_cache_invalidation () =
  let env = mk () in
  let oar = env.Framework.Env.oar in
  let gpu = Oar.Expr.parse_exn "gpu='YES'" in
  let before = Oar.Manager.matching_hosts oar gpu in
  checkb "inventory has gpu hosts" true (before <> []);
  checkb "repeated query served from cache is identical" true
    (Oar.Manager.matching_hosts oar gpu = before);
  let host = List.hd before in
  (match
     Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Oar_property_desync (Testbed.Faults.Host host)
   with
   | Some _ -> ()
   | None -> Alcotest.fail "property desync injection refused");
  (* The desync corrupts the *next* property refresh; until then cached
     answers must keep matching the current property table. *)
  checkb "cache still valid before refresh" true
    (List.mem host (Oar.Manager.matching_hosts oar gpu));
  Oar.Manager.refresh_properties oar;
  let after = Oar.Manager.matching_hosts oar gpu in
  checkb "refresh invalidates the compiled filter cache" false
    (List.mem host after);
  checki "only the desynced host dropped out" (List.length before - 1)
    (List.length after);
  (* free_at_least rides the same cache: it must see the refreshed set. *)
  checkb "free_at_least sees remaining gpu hosts" true
    (Oar.Manager.free_at_least oar gpu (List.length after));
  checkb "free_at_least cannot exceed the refreshed set" false
    (Oar.Manager.free_at_least oar gpu (List.length after + 1))

let test_free_at_least_matches_free_matching_now () =
  let env = mk () in
  let oar = env.Framework.Env.oar in
  List.iter
    (fun filter_str ->
      let filter = Oar.Expr.parse_exn filter_str in
      let free = List.length (Oar.Manager.free_matching_now oar filter) in
      checkb (filter_str ^ ": free_at_least agrees at the boundary") true
        (Oar.Manager.free_at_least oar filter free);
      checkb (filter_str ^ ": free_at_least rejects free+1") false
        (Oar.Manager.free_at_least oar filter (free + 1)))
    [ "cluster='graphene'"; "site='nancy'"; "gpu='YES' and ib='YES'";
      "wattmeter='YES'" ]

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "scheduler"
    [
      ( "peak-hours accounting",
        [ Alcotest.test_case "skip counted once per due-window" `Quick
            test_peak_skip_counted_once;
          Alcotest.test_case "blocked configs run when peak ends" `Quick
            test_peak_skip_runs_when_peak_ends ] );
      ( "anti-affinity",
        [ Alcotest.test_case "effective site resolution" `Quick
            test_effective_site_resolution;
          Alcotest.test_case "kavlan busy accounting" `Slow
            test_kavlan_anti_affinity_accounting ] );
      ("equivalence", [ qc equivalence_prop ]);
      ( "filter cache",
        [ Alcotest.test_case "reset on refresh_properties" `Quick
            test_filter_cache_invalidation;
          Alcotest.test_case "free_at_least boundary" `Quick
            test_free_at_least_matches_free_matching_now ] );
    ]
