(* Tests for the self-healing loop: correlated fault kinds, suspicion
   accumulation and decay, every health-state transition, the scheduler's
   quarantine accounting, and the Site_outage chaos drill. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let hour = Simkit.Calendar.hour
let day = Simkit.Calendar.day

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i = i + n <= m && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* ---- correlated fault kinds ------------------------------------------------ *)

let test_site_outage_downs_and_revives () =
  let t = Testbed.Instance.build ~seed:21L () in
  let faults = t.Testbed.Instance.faults in
  let nancy = Testbed.Instance.nodes_of_site t "nancy" in
  checkb "site has nodes" true (nancy <> []);
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Site_outage
         (Testbed.Faults.Site "nancy"))
  in
  checkb "all site nodes down" true
    (List.for_all (fun n -> n.Testbed.Node.state = Testbed.Node.Down) nancy);
  checkb "site services down" true
    (List.for_all
       (fun k ->
         Testbed.Services.state t.Testbed.Instance.services ~site:"nancy" k
         = Testbed.Services.Down)
       Testbed.Services.all_kinds);
  checkb "other sites untouched" true
    (List.for_all
       (fun n -> n.Testbed.Node.state <> Testbed.Node.Down)
       (Testbed.Instance.nodes_of_site t "lyon"));
  checkb "no stacking on a dark site" true
    (Testbed.Faults.inject_on faults ~now:1.0 Testbed.Faults.Site_outage
       (Testbed.Faults.Site "nancy")
    = None);
  checkb "fault touches a site node" true
    (Testbed.Faults.active_on_host faults "graphene-1.nancy" <> []);
  Testbed.Faults.repair faults ~now:2.0 fault;
  checkb "nodes revived" true
    (List.for_all (fun n -> n.Testbed.Node.state = Testbed.Node.Alive) nancy);
  checkb "services repaired" true
    (List.for_all
       (fun k ->
         Testbed.Services.state t.Testbed.Instance.services ~site:"nancy" k
         = Testbed.Services.Up)
       Testbed.Services.all_kinds)

let test_network_partition_flag_roundtrip () =
  let t = Testbed.Instance.build ~seed:22L () in
  let faults = t.Testbed.Instance.faults in
  let ctx = Testbed.Faults.context faults in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Network_partition
         (Testbed.Faults.Site "rennes"))
  in
  checkb "partition flag raised" true
    (Testbed.Faults.flag ctx (Testbed.Faults.partition_flag "rennes") <> None);
  checkb "site unreachable = nodes down" true
    (List.for_all
       (fun n -> n.Testbed.Node.state = Testbed.Node.Down)
       (Testbed.Instance.nodes_of_site t "rennes"));
  Testbed.Faults.repair faults ~now:1.0 fault;
  checkb "flag cleared" true
    (Testbed.Faults.flag ctx (Testbed.Faults.partition_flag "rennes") = None)

let test_pdu_failure_downs_one_rack () =
  let t = Testbed.Instance.build ~seed:23L () in
  let faults = t.Testbed.Instance.faults in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Pdu_failure
         (Testbed.Faults.Rack ("graphene", 0)))
  in
  let nodes = Testbed.Instance.nodes_of_cluster t "graphene" in
  let rack0, rest =
    List.partition
      (fun n -> Testbed.Faults.rack_of_index n.Testbed.Node.index = 0)
      nodes
  in
  checki "one PDU covers rack_size nodes" Testbed.Faults.rack_size
    (List.length rack0);
  checkb "rack lost power" true
    (List.for_all (fun n -> n.Testbed.Node.state = Testbed.Node.Down) rack0);
  checkb "other racks unaffected" true
    (List.for_all (fun n -> n.Testbed.Node.state <> Testbed.Node.Down) rest);
  checkb "bad rack index rejected" true
    (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Pdu_failure
       (Testbed.Faults.Rack ("graphene", 999))
    = None);
  Testbed.Faults.repair faults ~now:1.0 fault;
  checkb "rack revived" true
    (List.for_all (fun n -> n.Testbed.Node.state = Testbed.Node.Alive) rack0)

(* ---- decay properties ------------------------------------------------------ *)

let test_decay_halves_at_half_life () =
  checkf "one half-life" 1.0
    (Framework.Health.decay ~half_life:3600.0 ~score:2.0 ~dt:3600.0);
  checkf "zero dt is identity" 2.0
    (Framework.Health.decay ~half_life:3600.0 ~score:2.0 ~dt:0.0)

let prop_decay_monotone_in_dt =
  QCheck.Test.make ~name:"suspicion decay is monotone in elapsed time" ~count:200
    QCheck.(triple (float_bound_exclusive 100.0) (float_bound_exclusive 1e6) (float_bound_exclusive 1e6))
    (fun (score, dt1, dt2) ->
      let lo = Float.min dt1 dt2 and hi = Float.max dt1 dt2 in
      let half_life = 3600.0 in
      Framework.Health.decay ~half_life ~score ~dt:hi
      <= Framework.Health.decay ~half_life ~score ~dt:lo +. 1e-12)

let prop_decay_bounded =
  QCheck.Test.make ~name:"decay never amplifies or goes negative" ~count:200
    QCheck.(pair (float_bound_exclusive 100.0) (float_bound_exclusive 1e6))
    (fun (score, dt) ->
      let v = Framework.Health.decay ~half_life:3600.0 ~score ~dt in
      v >= 0.0 && v <= score +. 1e-12)

(* ---- blame channel and state machine --------------------------------------- *)

let failing_job ?(result = Ci.Build.Failure) name host =
  Ci.Jobdef.freestyle ~name (fun ~engine ~build ~finish ->
      Ci.Build.touch_hosts build [ host ];
      ignore (Simkit.Engine.schedule engine ~delay:1.0 (fun _ -> finish result)))

let fast_config =
  {
    Framework.Health.default_config with
    Framework.Health.sweep_period = 60.0;
    (* Exact-integer blame amounts decay slightly between builds, so give
       the thresholds a little headroom below the 2.0/3.0 defaults. *)
    suspect_threshold = 1.9;
    quarantine_threshold = 2.8;
    triage_delay = 30.0;
    decay_half_life = 1.0 *. hour;
    mttr_of_kind = (fun _ -> Simkit.Dist.Constant 120.0);
    default_mttr = Simkit.Dist.Constant 120.0;
  }

let attach ~config env =
  Framework.Health.attach ~config
    ~alerts:(Monitoring.Alerts.create env.Framework.Env.collector)
    env

let trigger_and_run env name =
  ignore (Ci.Server.trigger env.Framework.Env.ci name);
  Framework.Env.run_until env (Framework.Env.now env +. 10.0)

let test_blame_walks_the_state_machine () =
  let env = Framework.Env.create ~seed:31L () in
  let host = "grisou-3.nancy" in
  let node = Option.get (Testbed.Instance.find_node env.Framework.Env.instance host) in
  let health = attach ~config:fast_config env in
  Ci.Server.define env.Framework.Env.ci (failing_job "bad" host);
  checkb "starts in service" true (Testbed.Node.in_service node);
  trigger_and_run env "bad";
  checkb "one failure: still healthy" true
    (node.Testbed.Node.health = Testbed.Node.Healthy);
  checkb "suspicion accumulated" true (Framework.Health.suspicion health host > 0.9);
  trigger_and_run env "bad";
  checkb "two failures: suspected" true
    (node.Testbed.Node.health = Testbed.Node.Suspected);
  checkb "suspect is out of service" false (Testbed.Node.in_service node);
  trigger_and_run env "bad";
  checkb "three failures: quarantined" true
    (node.Testbed.Node.health = Testbed.Node.Quarantined);
  (* Triage -> repair -> reverify -> release, all deterministic. *)
  Framework.Env.run_until env (Framework.Env.now env +. 2.0 *. hour);
  checkb "released after repair and verification" true
    (node.Testbed.Node.health = Testbed.Node.Healthy);
  checkf "score reset on release" 0.0 (Framework.Health.suspicion health host);
  let s = Framework.Health.summary health in
  checki "one suspected" 1 s.Framework.Health.suspected;
  checki "one quarantined" 1 s.Framework.Health.quarantined;
  checki "one released" 1 s.Framework.Health.released;
  checki "nothing retired" 0 s.Framework.Health.retired;
  checkb "site tally" true (s.Framework.Health.by_site = [ ("nancy", 1) ]);
  let transitions =
    List.filter
      (fun e -> e.Framework.Health.host = host)
      (Framework.Health.events health)
    |> List.map (fun e -> e.Framework.Health.to_health)
  in
  checkb "full loop recorded" true
    (transitions
    = [ Testbed.Node.Suspected; Testbed.Node.Quarantined; Testbed.Node.Repairing;
        Testbed.Node.Reverifying; Testbed.Node.Healthy ])

let test_success_credit_releases_suspect () =
  let env = Framework.Env.create ~seed:32L () in
  let host = "grisou-3.nancy" in
  let node = Option.get (Testbed.Instance.find_node env.Framework.Env.instance host) in
  let health = attach ~config:fast_config env in
  Ci.Server.define env.Framework.Env.ci (failing_job "bad" host);
  Ci.Server.define env.Framework.Env.ci
    (failing_job ~result:Ci.Build.Success "good" host);
  trigger_and_run env "bad";
  trigger_and_run env "bad";
  checkb "suspected" true (node.Testbed.Node.health = Testbed.Node.Suspected);
  (* Successful builds subtract credit until the score falls back under
     the release threshold. *)
  trigger_and_run env "good";
  trigger_and_run env "good";
  trigger_and_run env "good";
  checkb "credited back into service" true
    (node.Testbed.Node.health = Testbed.Node.Healthy);
  ignore health

let test_decay_alone_releases_suspect () =
  let env = Framework.Env.create ~seed:33L () in
  let host = "grisou-3.nancy" in
  let node = Option.get (Testbed.Instance.find_node env.Framework.Env.instance host) in
  let health = attach ~config:fast_config env in
  Ci.Server.define env.Framework.Env.ci (failing_job "bad" host);
  trigger_and_run env "bad";
  trigger_and_run env "bad";
  checkb "suspected" true (node.Testbed.Node.health = Testbed.Node.Suspected);
  (* Score 2.0, half-life 1 h, release threshold 0.5: clean after two
     half-lives, picked up by the next sweep. *)
  Framework.Env.run_until env (Framework.Env.now env +. 3.0 *. hour);
  checkb "suspicion decayed away" true
    (node.Testbed.Node.health = Testbed.Node.Healthy);
  checkb "score under release threshold" true
    (Framework.Health.suspicion health host <= 0.5)

let test_unstable_blame_is_lighter () =
  let env = Framework.Env.create ~seed:34L () in
  let host = "grisou-3.nancy" in
  let node = Option.get (Testbed.Instance.find_node env.Framework.Env.instance host) in
  let health = attach ~config:fast_config env in
  Ci.Server.define env.Framework.Env.ci
    (failing_job ~result:Ci.Build.Unstable "meh" host);
  trigger_and_run env "meh";
  trigger_and_run env "meh";
  trigger_and_run env "meh";
  checkb "three unstables stay under the suspect threshold" true
    (node.Testbed.Node.health = Testbed.Node.Healthy);
  checkb "but suspicion is non-zero" true
    (Framework.Health.suspicion health host > 0.0)

let test_persistent_failure_retires () =
  let env = Framework.Env.create ~seed:35L () in
  let engine = Framework.Env.engine env in
  let host = "grisou-3.nancy" in
  let node = Option.get (Testbed.Instance.find_node env.Framework.Env.instance host) in
  let health =
    attach
      ~config:{ fast_config with Framework.Health.max_repair_attempts = 2 }
      env
  in
  Ci.Server.define env.Framework.Env.ci (failing_job "bad" host);
  (* An undiagnosable defect: whatever the operator resets, the node's
     observed hardware drifts again before verification can pass. *)
  Simkit.Engine.every engine ~period:10.0 (fun _ ->
      (if node.Testbed.Node.health <> Testbed.Node.Healthy then
         let actual = node.Testbed.Node.actual in
         node.Testbed.Node.actual <-
           {
             actual with
             Testbed.Hardware.settings =
               { actual.Testbed.Hardware.settings with
                 Testbed.Hardware.c_states = true };
           });
      node.Testbed.Node.health <> Testbed.Node.Retired);
  trigger_and_run env "bad";
  trigger_and_run env "bad";
  trigger_and_run env "bad";
  checkb "quarantined" true (node.Testbed.Node.health = Testbed.Node.Quarantined);
  Framework.Env.run_until env (Framework.Env.now env +. 6.0 *. hour);
  checkb "given up after repeated failed verifications" true
    (node.Testbed.Node.health = Testbed.Node.Retired);
  let s = Framework.Health.summary health in
  checki "two repair attempts" 2 s.Framework.Health.repair_attempts;
  checki "two reverify failures" 2 s.Framework.Health.reverify_failures;
  checki "one retired" 1 s.Framework.Health.retired;
  checki "nothing released" 0 s.Framework.Health.released

(* ---- OAR exclusion and scheduler accounting --------------------------------- *)

let test_oar_excludes_sidelined_nodes () =
  let env = Framework.Env.create ~seed:36L () in
  let host = "grisou-3.nancy" in
  let node = Option.get (Testbed.Instance.find_node env.Framework.Env.instance host) in
  let filter = Oar.Expr.parse_exn (Printf.sprintf "host='%s'" host) in
  checkb "free while healthy" true
    (Oar.Manager.free_at_least env.Framework.Env.oar filter 1);
  node.Testbed.Node.health <- Testbed.Node.Quarantined;
  checkb "invisible while quarantined" false
    (Oar.Manager.free_at_least env.Framework.Env.oar filter 1);
  checkb "not in free_matching_now" false
    (List.mem host (Oar.Manager.free_matching_now env.Framework.Env.oar filter));
  node.Testbed.Node.health <- Testbed.Node.Healthy;
  checkb "back after release" true
    (Oar.Manager.free_at_least env.Framework.Env.oar filter 1)

let test_scheduler_attributes_quarantine_skips () =
  let env = Framework.Env.create ~seed:37L () in
  let health =
    attach
      ~config:{ fast_config with Framework.Health.triage_delay = 1.0 *. day }
      env
  in
  (* Kill one grisou rack; sweeps blame the downed nodes past the
     quarantine threshold, and the long triage delay holds them there. *)
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Pdu_failure
       (Testbed.Faults.Rack ("grisou", 0)));
  Framework.Env.run_until env (20.0 *. 60.0);
  checkb "rack nodes quarantined" true
    (Framework.Health.unhealthy_in_cluster health "grisou" > 0);
  let disk_config cluster =
    List.find_opt
      (fun c -> c.Framework.Testdef.cluster = Some cluster)
      (Framework.Testdef.expand Framework.Testdef.Disk)
  in
  (match disk_config "graphene" with
   | None -> Alcotest.fail "no graphene disk configuration"
   | Some config ->
     checkb "probe is off for an untouched cluster" false
       (Framework.Health.probe health config));
  match disk_config "grisou" with
  | None -> Alcotest.fail "no grisou disk configuration"
  | Some config ->
    checkb "probe flags the sidelined cluster" true
      (Framework.Health.probe health config)

(* ---- Site_outage drill ------------------------------------------------------ *)

let drill_config =
  {
    Framework.Health.default_config with
    Framework.Health.sweep_period = 600.0;
    triage_delay = 600.0;
    mttr_of_kind = (fun _ -> Simkit.Dist.Constant 1800.0);
    default_mttr = Simkit.Dist.Constant 1800.0;
  }

let run_drill seed =
  let env = Framework.Env.create ~seed () in
  let alerts = Monitoring.Alerts.create env.Framework.Env.collector in
  let health = Framework.Health.attach ~config:drill_config ~alerts env in
  let faults = Framework.Env.faults env in
  ignore
    (Simkit.Engine.schedule_at (Framework.Env.engine env) ~time:(2.0 *. hour)
       (fun eng ->
         ignore
           (Testbed.Faults.inject_on faults ~now:(Simkit.Engine.now eng)
              Testbed.Faults.Site_outage (Testbed.Faults.Site "nancy"))));
  Framework.Env.run_until env (3.0 *. day);
  (env, health, alerts)

let test_site_outage_drill_quarantines_and_restores () =
  let env, health, alerts = run_drill 41L in
  let nancy = Testbed.Instance.nodes_of_site env.Framework.Env.instance "nancy" in
  let hosts = List.map (fun n -> n.Testbed.Node.host) nancy in
  let events = Framework.Health.events health in
  List.iter
    (fun host ->
      checkb (host ^ " quarantined") true
        (List.exists
           (fun e ->
             e.Framework.Health.host = host
             && e.Framework.Health.to_health = Testbed.Node.Quarantined)
           events);
      checkb (host ^ " repaired") true
        (List.exists
           (fun e ->
             e.Framework.Health.host = host
             && e.Framework.Health.to_health = Testbed.Node.Repairing)
           events);
      checkb (host ^ " reverified") true
        (List.exists
           (fun e ->
             e.Framework.Health.host = host
             && e.Framework.Health.from_health = Testbed.Node.Reverifying
             && e.Framework.Health.to_health = Testbed.Node.Healthy)
           events))
    hosts;
  checkb "whole site back in service" true
    (List.for_all
       (fun n ->
         n.Testbed.Node.state = Testbed.Node.Alive && Testbed.Node.in_service n)
       nancy);
  let s = Framework.Health.summary health in
  checkb "every site node counted" true
    (s.Framework.Health.quarantined >= List.length nancy);
  checki "pipeline drained" 0 s.Framework.Health.in_quarantine_now;
  checkb "quarantine alerts fired" true
    (s.Framework.Health.alerts_fired >= List.length nancy);
  (* The healthy-fraction floor paged while the site was dark, and the
     alert resolved once the loop restored it. *)
  let floor_alerts =
    List.filter
      (fun a ->
        match a.Monitoring.Alerts.source with
        | Monitoring.Alerts.Healthy_floor "nancy" -> true
        | _ -> false)
      (Monitoring.Alerts.history alerts)
  in
  checkb "floor alert fired" true (floor_alerts <> []);
  checkb "floor alert resolved" true
    (List.for_all
       (fun a -> a.Monitoring.Alerts.resolved_at <> None)
       floor_alerts);
  checkb "no quarantine alert still firing" true
    (List.for_all
       (fun a ->
         match a.Monitoring.Alerts.source with
         | Monitoring.Alerts.Quarantine _ -> false
         | _ -> true)
       (Monitoring.Alerts.firing alerts))

let test_drill_is_deterministic () =
  let _, h1, _ = run_drill 43L in
  let _, h2, _ = run_drill 43L in
  let strip e =
    ( e.Framework.Health.at, e.Framework.Health.host,
      e.Framework.Health.from_health, e.Framework.Health.to_health )
  in
  checkb "same seed, same transition log" true
    (List.map strip (Framework.Health.events h1)
    = List.map strip (Framework.Health.events h2));
  checkb "same summary" true
    (Framework.Health.summary h1 = Framework.Health.summary h2)

(* ---- campaign integration ---------------------------------------------------- *)

let health_campaign_config =
  {
    Framework.Campaign.default_config with
    Framework.Campaign.months = 1;
    seed = 404L;
    initial_faults = 30;
    health = Some Framework.Health.default_config;
    health_faults =
      [ (5.0 *. day, Testbed.Faults.Site_outage, Testbed.Faults.Site "nancy") ];
  }

let test_campaign_with_health_loop () =
  let report = Framework.Campaign.run health_campaign_config in
  match report.Framework.Campaign.health with
  | None -> Alcotest.fail "health summary missing from report"
  | Some s ->
    checkb "site outage caused quarantines" true
      (s.Framework.Health.quarantined > 0);
    checkb "nodes were released back" true (s.Framework.Health.released > 0);
    checkb "nancy counted in the site tally" true
      (List.mem_assoc "nancy" s.Framework.Health.by_site);
    checkb "builds kept completing" true
      (report.Framework.Campaign.builds_total > 0);
    let json = Framework.Report.to_string report in
    checkb "report JSON carries the health block" true
      (contains json "\"health\"");
    checkb "scheduler stats split out quarantine skips" true
      (contains json "\"skipped_quarantined\"");
    checkb "status page shows the health section" true
      (contains report.Framework.Campaign.statuspage
         "== Node health (self-healing loop) ==")

let test_default_campaign_has_no_health_block () =
  (* Health off (the default): the report must not change shape. *)
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with Framework.Campaign.months = 1;
        seed = 13L }
  in
  checkb "no summary" true (report.Framework.Campaign.health = None);
  let json = Framework.Report.to_string report in
  checkb "no health JSON member" false (contains json "\"health\"");
  checkb "no quarantine counter" false (contains json "\"skipped_quarantined\"");
  checkb "no status page section" false
    (contains report.Framework.Campaign.statuspage "== Node health")

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "health"
    [
      ( "correlated-faults",
        [ Alcotest.test_case "site outage downs and revives" `Quick
            test_site_outage_downs_and_revives;
          Alcotest.test_case "network partition flag roundtrip" `Quick
            test_network_partition_flag_roundtrip;
          Alcotest.test_case "pdu failure downs one rack" `Quick
            test_pdu_failure_downs_one_rack ] );
      ( "decay",
        [ Alcotest.test_case "halves at half-life" `Quick
            test_decay_halves_at_half_life;
          qc prop_decay_monotone_in_dt;
          qc prop_decay_bounded ] );
      ( "state-machine",
        [ Alcotest.test_case "blame walks the state machine" `Quick
            test_blame_walks_the_state_machine;
          Alcotest.test_case "success credit releases suspect" `Quick
            test_success_credit_releases_suspect;
          Alcotest.test_case "decay alone releases suspect" `Quick
            test_decay_alone_releases_suspect;
          Alcotest.test_case "unstable blame is lighter" `Quick
            test_unstable_blame_is_lighter;
          Alcotest.test_case "persistent failure retires" `Quick
            test_persistent_failure_retires ] );
      ( "exclusion",
        [ Alcotest.test_case "oar excludes sidelined nodes" `Quick
            test_oar_excludes_sidelined_nodes;
          Alcotest.test_case "scheduler quarantine probe" `Quick
            test_scheduler_attributes_quarantine_skips ] );
      ( "drill",
        [ Alcotest.test_case "site outage quarantines and restores" `Quick
            test_site_outage_drill_quarantines_and_restores;
          Alcotest.test_case "deterministic for a given seed" `Quick
            test_drill_is_deterministic ] );
      ( "campaign",
        [ Alcotest.test_case "health loop in a live campaign" `Quick
            test_campaign_with_health_loop;
          Alcotest.test_case "no health block by default" `Quick
            test_default_campaign_has_no_health_block ] );
    ]
