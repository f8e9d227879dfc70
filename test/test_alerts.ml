(* Tests for the Prometheus-style alerting rules. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mk () =
  let instance = Testbed.Instance.build ~seed:606L () in
  let collector = Monitoring.Collector.create instance in
  (instance, collector, Monitoring.Alerts.create collector)

let power_rule ?(name = "high-power") ?(condition = Monitoring.Alerts.Above 0.0) host =
  {
    Monitoring.Alerts.rule_name = name;
    host;
    metric = Monitoring.Collector.Power_w;
    window = 60.0;
    aggregation = Monitoring.Alerts.Mean;
    condition;
  }

let test_threshold_fires_and_resolves () =
  let instance, collector, alerts = mk () in
  Simkit.Engine.run_until instance.Testbed.Instance.engine 120.0;
  (* Load model drives cpu_load; force it high, alert on it, then idle. *)
  Monitoring.Collector.set_load_model collector (fun ~host:_ ~time:_ -> 0.8);
  Monitoring.Alerts.add_rule alerts
    {
      Monitoring.Alerts.rule_name = "cpu-hot";
      host = "grisou-1.nancy";
      metric = Monitoring.Collector.Cpu_load;
      window = 60.0;
      aggregation = Monitoring.Alerts.Mean;
      condition = Monitoring.Alerts.Above 0.5;
    };
  let fired = Monitoring.Alerts.evaluate alerts ~now:120.0 in
  checki "one alert fired" 1 (List.length fired);
  checki "firing" 1 (List.length (Monitoring.Alerts.firing alerts));
  (* Second evaluation while still hot: no duplicate. *)
  checki "no duplicate" 0 (List.length (Monitoring.Alerts.evaluate alerts ~now:180.0));
  (* Load drops: the alert resolves. *)
  Monitoring.Collector.set_load_model collector (fun ~host:_ ~time:_ -> 0.0);
  checki "nothing new fires" 0 (List.length (Monitoring.Alerts.evaluate alerts ~now:240.0));
  checki "resolved" 0 (List.length (Monitoring.Alerts.firing alerts));
  checki "history keeps it" 1 (List.length (Monitoring.Alerts.history alerts))

let test_absence_rule_detects_dead_node () =
  let instance, _collector, alerts = mk () in
  Simkit.Engine.run_until instance.Testbed.Instance.engine 120.0;
  Monitoring.Alerts.add_rule alerts
    {
      Monitoring.Alerts.rule_name = "node-silent";
      host = "grisou-2.nancy";
      metric = Monitoring.Collector.Cpu_load;
      window = 60.0;
      aggregation = Monitoring.Alerts.Mean;
      condition = Monitoring.Alerts.Absent;
    };
  checki "healthy node reports" 0 (List.length (Monitoring.Alerts.evaluate alerts ~now:120.0));
  (Testbed.Instance.node instance "grisou-2.nancy").Testbed.Node.state <-
    Testbed.Node.Down;
  let fired = Monitoring.Alerts.evaluate alerts ~now:200.0 in
  checki "silence fires" 1 (List.length fired);
  (match fired with
   | [ a ] -> checkb "no value for absence" true (a.Monitoring.Alerts.value = None)
   | _ -> ())

let test_below_rule_catches_cstates_drift () =
  (* The power signature of re-enabled C-states: idle draw drops below the
     mandated envelope.  This is the alerting analogue of the kwapi test. *)
  let instance, collector, alerts = mk () in
  Simkit.Engine.run_until instance.Testbed.Instance.engine 120.0;
  Monitoring.Collector.set_load_model collector (fun ~host:_ ~time:_ -> 0.0);
  let node = Testbed.Instance.node instance "grisou-3.nancy" in
  let idle_ref =
    Monitoring.Power.idle_of_hardware node.Testbed.Node.reference
  in
  Monitoring.Alerts.add_rule alerts
    (power_rule ~name:"idle-too-low"
       ~condition:(Monitoring.Alerts.Below (0.95 *. idle_ref))
       "grisou-3.nancy");
  checki "healthy: quiet" 0 (List.length (Monitoring.Alerts.evaluate alerts ~now:120.0));
  ignore
    (Testbed.Faults.inject_on instance.Testbed.Instance.faults ~now:120.0
       Testbed.Faults.Cpu_cstates (Testbed.Faults.Host "grisou-3.nancy"));
  checki "drift fires" 1 (List.length (Monitoring.Alerts.evaluate alerts ~now:200.0))

let test_rules_accumulate_and_render () =
  let _, _, alerts = mk () in
  Monitoring.Alerts.add_rule alerts (power_rule "grisou-1.nancy");
  Monitoring.Alerts.add_rule alerts (power_rule ~name:"second" "grisou-2.nancy");
  checki "two rules" 2 (List.length (Monitoring.Alerts.rules alerts));
  checkb "render works with no alerts" true
    (String.length (Monitoring.Alerts.render alerts) > 0)

let test_refire_after_resolution () =
  let instance, collector, alerts = mk () in
  Simkit.Engine.run_until instance.Testbed.Instance.engine 120.0;
  Monitoring.Alerts.add_rule alerts
    {
      Monitoring.Alerts.rule_name = "flap";
      host = "grisou-4.nancy";
      metric = Monitoring.Collector.Cpu_load;
      window = 30.0;
      aggregation = Monitoring.Alerts.Max;
      condition = Monitoring.Alerts.Above 0.5;
    };
  Monitoring.Collector.set_load_model collector (fun ~host:_ ~time:_ -> 0.9);
  checki "fires" 1 (List.length (Monitoring.Alerts.evaluate alerts ~now:120.0));
  Monitoring.Collector.set_load_model collector (fun ~host:_ ~time:_ -> 0.1);
  ignore (Monitoring.Alerts.evaluate alerts ~now:180.0);
  Monitoring.Collector.set_load_model collector (fun ~host:_ ~time:_ -> 0.9);
  checki "fires again after resolving" 1
    (List.length (Monitoring.Alerts.evaluate alerts ~now:240.0));
  checki "two alerts in history" 2 (List.length (Monitoring.Alerts.history alerts))

let test_healthy_floor_fires_below_and_resolves () =
  let _, _, alerts = mk () in
  (* No floor armed for the site: observations are ignored. *)
  checkb "no floor, no alert" true
    (Monitoring.Alerts.observe_site_health alerts ~now:10.0 ~site:"nancy"
       ~healthy_fraction:0.0
    = None);
  Monitoring.Alerts.set_healthy_floor alerts ~site:"nancy" ~floor:0.5;
  checkb "above the floor: quiet" true
    (Monitoring.Alerts.observe_site_health alerts ~now:20.0 ~site:"nancy"
       ~healthy_fraction:0.9
    = None);
  (match
     Monitoring.Alerts.observe_site_health alerts ~now:30.0 ~site:"nancy"
       ~healthy_fraction:0.25
   with
   | None -> Alcotest.fail "dipping below the floor must fire"
   | Some a ->
     checkb "carries the fraction" true (a.Monitoring.Alerts.value = Some 0.25);
     checkb "floor source" true
       (a.Monitoring.Alerts.source = Monitoring.Alerts.Healthy_floor "nancy"));
  (* Still below: same incident, no duplicate. *)
  checkb "no duplicate while still low" true
    (Monitoring.Alerts.observe_site_health alerts ~now:40.0 ~site:"nancy"
       ~healthy_fraction:0.3
    = None);
  checki "one firing" 1 (List.length (Monitoring.Alerts.firing alerts));
  (* Other sites have their own floors. *)
  checkb "other site unaffected" true
    (Monitoring.Alerts.observe_site_health alerts ~now:40.0 ~site:"lyon"
       ~healthy_fraction:0.0
    = None);
  (* Recovery resolves the incident. *)
  checkb "recovery is silent" true
    (Monitoring.Alerts.observe_site_health alerts ~now:50.0 ~site:"nancy"
       ~healthy_fraction:0.8
    = None);
  checki "resolved" 0 (List.length (Monitoring.Alerts.firing alerts));
  (match Monitoring.Alerts.history alerts with
   | [ a ] -> checkb "resolution stamped" true (a.Monitoring.Alerts.resolved_at = Some 50.0)
   | l -> checki "one alert in history" 1 (List.length l));
  (* A second dip opens a fresh incident. *)
  checkb "refires after recovery" true
    (Monitoring.Alerts.observe_site_health alerts ~now:60.0 ~site:"nancy"
       ~healthy_fraction:0.1
    <> None);
  checki "two in history" 2 (List.length (Monitoring.Alerts.history alerts))

(* Event-style sources share one fire/resolve path: re-firing returns
   the open incident, resolving stamps it, a second resolve is a no-op. *)
let test_event_fire_and_resolve source () =
  let _, _, alerts = mk () in
  let a =
    Monitoring.Alerts.fire alerts ~now:100.0 source ~reason:"3 build failures"
  in
  checkb "source recorded" true (a.Monitoring.Alerts.source = source);
  checkb "reason recorded" true (a.Monitoring.Alerts.reason = "3 build failures");
  checki "firing" 1 (List.length (Monitoring.Alerts.firing alerts));
  (* Re-firing the same source returns the open incident. *)
  let b = Monitoring.Alerts.fire alerts ~now:150.0 source ~reason:"still failing" in
  checkb "same incident" true (a == b);
  checki "still one in history" 1 (List.length (Monitoring.Alerts.history alerts));
  checkb "render shows the incident" true
    (String.length (Monitoring.Alerts.render alerts) > 0);
  Monitoring.Alerts.resolve alerts ~now:200.0 source;
  checki "resolved" 0 (List.length (Monitoring.Alerts.firing alerts));
  checkb "resolution stamped" true (a.Monitoring.Alerts.resolved_at = Some 200.0);
  (* Resolving a source with no open incident is a no-op. *)
  Monitoring.Alerts.resolve alerts ~now:210.0 source;
  checkb "resolution kept" true (a.Monitoring.Alerts.resolved_at = Some 200.0);
  checki "history unchanged" 1 (List.length (Monitoring.Alerts.history alerts))

(* Two rules sharing a name are still two sources: one that does not
   hold must not resolve the other's alert. *)
let test_same_name_rules_are_distinct () =
  let instance, collector, alerts = mk () in
  Simkit.Engine.run_until instance.Testbed.Instance.engine 120.0;
  Monitoring.Collector.set_load_model collector (fun ~host:_ ~time:_ -> 0.8);
  let rule threshold =
    {
      Monitoring.Alerts.rule_name = "cpu-hot";
      host = "grisou-1.nancy";
      metric = Monitoring.Collector.Cpu_load;
      window = 60.0;
      aggregation = Monitoring.Alerts.Mean;
      condition = Monitoring.Alerts.Above threshold;
    }
  in
  Monitoring.Alerts.add_rule alerts (rule 0.5);
  Monitoring.Alerts.add_rule alerts (rule 0.9);
  List.iter
    (fun now -> ignore (Monitoring.Alerts.evaluate alerts ~now))
    [ 120.0; 180.0; 240.0; 300.0 ];
  checki "the holding rule stays firing" 1
    (List.length (Monitoring.Alerts.firing alerts));
  checki "fired once" 1 (List.length (Monitoring.Alerts.history alerts))

let () =
  Alcotest.run "alerts"
    [
      ( "alerts",
        [ Alcotest.test_case "threshold fire/resolve" `Quick
            test_threshold_fires_and_resolves;
          Alcotest.test_case "absence detects dead node" `Quick
            test_absence_rule_detects_dead_node;
          Alcotest.test_case "below catches c-states" `Quick
            test_below_rule_catches_cstates_drift;
          Alcotest.test_case "rules + render" `Quick test_rules_accumulate_and_render;
          Alcotest.test_case "refire after resolution" `Quick
            test_refire_after_resolution;
          Alcotest.test_case "healthy floor fires and resolves" `Quick
            test_healthy_floor_fires_below_and_resolves;
          Alcotest.test_case "quarantine notify and resolve" `Quick
            (test_event_fire_and_resolve
               (Monitoring.Alerts.Quarantine "grisou-9.nancy"));
          Alcotest.test_case "flapping notify and resolve" `Quick
            (test_event_fire_and_resolve (Monitoring.Alerts.Flapping 7));
          Alcotest.test_case "serving-degraded notify and resolve" `Quick
            (test_event_fire_and_resolve
               (Monitoring.Alerts.Serving_degraded "statuspage"));
          Alcotest.test_case "same-name rules are distinct sources" `Quick
            test_same_name_rules_are_distinct ] );
    ]
