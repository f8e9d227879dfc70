(* Edge cases across the stack that the per-module suites do not cover. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- engine bookkeeping ------------------------------------------------------ *)

let test_engine_pending_counts_cancellations () =
  let e = Simkit.Engine.create () in
  let h1 = Simkit.Engine.schedule e ~delay:1.0 (fun _ -> ()) in
  let _h2 = Simkit.Engine.schedule e ~delay:2.0 (fun _ -> ()) in
  checki "two pending" 2 (Simkit.Engine.pending e);
  Simkit.Engine.cancel e h1;
  checki "one effective" 1 (Simkit.Engine.pending e);
  checkb "marked cancelled" true (Simkit.Engine.cancelled e h1);
  Simkit.Engine.run e;
  checki "one executed" 1 (Simkit.Engine.events_executed e)

let test_engine_negative_delay_clamped () =
  let e = Simkit.Engine.create () in
  Simkit.Engine.run_until e 10.0;
  let fired_at = ref nan in
  ignore
    (Simkit.Engine.schedule e ~delay:(-5.0) (fun e -> fired_at := Simkit.Engine.now e));
  Simkit.Engine.run e;
  Alcotest.(check (float 1e-9)) "fires now, not in the past" 10.0 !fired_at

(* ---- json numbers -------------------------------------------------------------- *)

let test_json_number_forms () =
  List.iter
    (fun (text, expected) ->
      match Simkit.Json.of_string text with
      | Ok v -> checkb text true (Simkit.Json.equal v expected)
      | Error e -> Alcotest.failf "%s: %s" text e)
    [ ("-42", Simkit.Json.Int (-42));
      ("0", Simkit.Json.Int 0);
      ("3.5", Simkit.Json.Float 3.5);
      ("-1.25e2", Simkit.Json.Float (-125.0));
      ("1E3", Simkit.Json.Float 1000.0) ]

let test_json_deep_nesting () =
  let rec deep n = if n = 0 then Simkit.Json.Int 1 else Simkit.Json.List [ deep (n - 1) ] in
  let doc = deep 100 in
  match Simkit.Json.of_string (Simkit.Json.to_string doc) with
  | Ok parsed -> checkb "100-deep roundtrip" true (Simkit.Json.equal parsed doc)
  | Error e -> Alcotest.fail e

(* ---- report NaN handling --------------------------------------------------------- *)

let test_report_handles_empty_month () =
  let monthly =
    {
      Framework.Campaign.month = 0;
      builds = 0;
      successful = 0;
      success_ratio = nan;
      bugs_filed_cum = 0;
      bugs_fixed_cum = 0;
      active_faults = 0;
      enabled_configs = 0;
    }
  in
  let json = Framework.Report.monthly_to_json monthly in
  (* NaN must serialise as null, and the whole doc must stay parseable. *)
  match Simkit.Json.of_string (Simkit.Json.to_string json) with
  | Ok parsed ->
    checkb "nan -> null" true
      (Simkit.Json.member "success_ratio" parsed = Some Simkit.Json.Null)
  | Error e -> Alcotest.fail e

(* ---- cron edge: dom/month fields --------------------------------------------------- *)

let test_cron_day_of_month () =
  (* Day 15 of the 30-day month: day index 14. *)
  let cron = Ci.Cron.parse_exn "0 0 15 * *" in
  let fire = Ci.Cron.next_fire cron ~after:0.0 in
  checki "fires on day index 14" 14 (Simkit.Calendar.day_index fire)

let test_cron_month_field () =
  (* Month 2 starts at day 30. *)
  let cron = Ci.Cron.parse_exn "0 0 1 2 *" in
  let fire = Ci.Cron.next_fire cron ~after:0.0 in
  checki "fires on day 30" 30 (Simkit.Calendar.day_index fire)

(* ---- dist sampling edge ------------------------------------------------------------- *)

let test_dist_sample_positive_clamps () =
  let rng = Simkit.Prng.create 99L in
  for _ = 1 to 1000 do
    checkb "never negative" true
      (Simkit.Dist.sample_positive rng (Simkit.Dist.Normal (-5.0, 1.0)) >= 0.0)
  done

(* ---- statuspage scope for kavlan global vlan --------------------------------------- *)

let test_kavlan_global_scope_key () =
  let configs = Framework.Testdef.expand Framework.Testdef.Kavlan in
  let global = List.find (fun c -> c.Framework.Testdef.vlan = Some 300) configs in
  checkb "global vlan has no site" true (global.Framework.Testdef.site = None);
  Alcotest.(check (list (pair string string)))
    "axes use the vlan id"
    [ ("vlan", "300") ]
    (Framework.Testdef.axes_of_config global)

(* ---- whole-cluster need with a down node -------------------------------------------- *)

let test_whole_cluster_runs_with_down_node () =
  let env = Framework.Env.create ~seed:9901L () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  (Testbed.Instance.node env.Framework.Env.instance "graphite-4.nancy").Testbed.Node.state <-
    Testbed.Node.Down;
  ignore
    (Ci.Server.trigger_subset env.Framework.Env.ci "test_disk"
       ~axes:[ [ ("cluster", "graphite") ] ]);
  Framework.Env.run_until env (4.0 *. Simkit.Calendar.hour);
  match Ci.Server.last_completed env.Framework.Env.ci "test_disk" with
  | Some b ->
    (* The test runs on the usable subset rather than waiting forever. *)
    checkb "completed despite the dead node" true
      (b.Ci.Build.result = Some Ci.Build.Success)
  | None -> Alcotest.fail "disk test never completed"

let () =
  Alcotest.run "edge"
    [
      ( "engine",
        [ Alcotest.test_case "pending/cancel bookkeeping" `Quick
            test_engine_pending_counts_cancellations;
          Alcotest.test_case "negative delay clamped" `Quick
            test_engine_negative_delay_clamped ] );
      ( "json",
        [ Alcotest.test_case "number forms" `Quick test_json_number_forms;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting ] );
      ("report", [ Alcotest.test_case "empty month" `Quick test_report_handles_empty_month ]);
      ( "cron",
        [ Alcotest.test_case "day of month" `Quick test_cron_day_of_month;
          Alcotest.test_case "month field" `Quick test_cron_month_field ] );
      ("dist", [ Alcotest.test_case "positive clamp" `Quick test_dist_sample_positive_clamps ]);
      ( "framework",
        [ Alcotest.test_case "kavlan global scope" `Quick test_kavlan_global_scope_key;
          Alcotest.test_case "whole cluster with down node" `Quick
            test_whole_cluster_runs_with_down_node ] );
    ]
