(* Differential test harness for Framework.Federation.

   The federation's correctness claim is byte-level: a K-shard run must
   produce exactly the report a 1-shard run produces, for any K, any
   driver (sequential, domain-parallel, shuffled interleaving, and the
   unsharded zero-lookahead reference loop) and any configuration.  The
   harness checks the claim three ways:

   - a qcheck property over random federation sizes, seeds and fault
     mixes, comparing every shard count in {1,2,4,8} (capped at the
     federation size) and the reference driver against the 1-shard run;
   - a shard-interleaving oracle: a qcheck property permuting the shard
     service order every window ([Interleaved]) and requiring identity
     with the sequential order;
   - 12-month regression runs at the acceptance scale (10 testbeds):
     run-twice determinism, K in {1,2,4,8}, and sequential vs parallel
     (domain-per-shard) drivers, all byte-identical.

   Members use a lightened campaign template (no user workload, two test
   families, slow polling) so the 12-month matrix stays test-suite
   sized; the federation layer under test is exactly the production
   one. *)

module F = Framework.Federation

let checki what = Alcotest.(check int) what
let checkb what = Alcotest.(check bool) what

(* ---- member template ----------------------------------------------------- *)

let light_base months =
  {
    Framework.Campaign.default_config with
    Framework.Campaign.months;
    workload = None;
    enable_regression = false;
    initial_faults = 4;
    fault_rate_per_day = 0.1;
    staged_families =
      [ (0, [ Framework.Testdef.Oarstate; Framework.Testdef.Cmdline ]) ];
    policy =
      {
        Framework.Scheduler.smart_policy with
        Framework.Scheduler.poll_period = 6.0 *. 3600.0;
      };
  }

let light_cfg ?(testbeds = 4) ?(shards = 1) ?(months = 1) ?(seed = 42L)
    ?(driver = F.Sequential) () =
  {
    F.default_config with
    F.testbeds;
    shards;
    seed;
    driver;
    base = light_base months;
  }

(* The comparison key: the full serialization (every member's complete
   campaign report embedded), with the two fields that legitimately vary
   between compared runs (shard count, driver) normalized away. *)
let fingerprint report =
  let normalized =
    { report with
      F.fed_cfg =
        { report.F.fed_cfg with F.shards = 1; driver = F.Sequential };
    }
  in
  Simkit.Json.to_string (F.report_to_json ~full:true normalized)

let run_fp cfg = fingerprint (F.run cfg)

(* ---- fleet synthesis ------------------------------------------------------ *)

let test_fleet_shapes () =
  let specs =
    Testbed.Fleet.synthesize ~seed:7L ~count:10 Testbed.Fleet.default_ranges
  in
  checki "ten members" 10 (List.length specs);
  List.iteri
    (fun i (s : Testbed.Fleet.spec) ->
      checki "indices are positional" i s.Testbed.Fleet.index;
      Alcotest.(check string)
        "auto ids are tbNN"
        (Printf.sprintf "tb%02d" i)
        s.Testbed.Fleet.id;
      let blo, bhi = Testbed.Fleet.default_ranges.Testbed.Fleet.fault_bias in
      checkb "fault bias inside range" true
        (s.Testbed.Fleet.fault_bias >= blo && s.Testbed.Fleet.fault_bias <= bhi);
      let elo, ehi = Testbed.Fleet.default_ranges.Testbed.Fleet.executors in
      checkb "executors inside range" true
        (s.Testbed.Fleet.executors >= elo && s.Testbed.Fleet.executors <= ehi);
      let wlo, whi = Testbed.Fleet.default_ranges.Testbed.Fleet.workload_scale in
      checkb "workload scale inside range" true
        (s.Testbed.Fleet.workload_scale >= wlo
        && s.Testbed.Fleet.workload_scale <= whi))
    specs;
  let seeds = List.map (fun s -> s.Testbed.Fleet.seed) specs in
  checki "member seeds are distinct" 10
    (List.length (List.sort_uniq Int64.compare seeds))

let test_fleet_stateless_streams () =
  (* Member i's spec is a pure function of (seed, i): shrinking or
     growing the federation must not disturb earlier members. *)
  let five = Testbed.Fleet.synthesize ~seed:7L ~count:5 Testbed.Fleet.default_ranges in
  let ten = Testbed.Fleet.synthesize ~seed:7L ~count:10 Testbed.Fleet.default_ranges in
  List.iteri
    (fun i s -> checkb "prefix-stable synthesis" true (s = List.nth ten i))
    five;
  let again = Testbed.Fleet.synthesize ~seed:7L ~count:5 Testbed.Fleet.default_ranges in
  checkb "synthesis is deterministic" true (five = again);
  let other = Testbed.Fleet.synthesize ~seed:8L ~count:5 Testbed.Fleet.default_ranges in
  checkb "seed matters" false (five = other)

let test_fleet_names_and_reference () =
  let specs =
    Testbed.Fleet.synthesize ~seed:1L ~count:3
      ~names:[ "nancy-fed"; "lyon-fed" ] Testbed.Fleet.default_ranges
  in
  Alcotest.(check (list string))
    "explicit names first, auto ids after"
    [ "nancy-fed"; "lyon-fed"; "tb02" ]
    (List.map (fun s -> s.Testbed.Fleet.id) specs);
  List.iter
    (fun (s : Testbed.Fleet.spec) ->
      checkb "reference ranges are degenerate" true
        (s.Testbed.Fleet.fault_bias = 1.0 && s.Testbed.Fleet.executors = 10
        && s.Testbed.Fleet.workload_scale = 1.0))
    (Testbed.Fleet.synthesize ~seed:1L ~count:4 Testbed.Fleet.reference_ranges)

let test_fleet_rejects () =
  let raises what f =
    checkb what true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  raises "non-positive count" (fun () ->
      Testbed.Fleet.synthesize ~seed:1L ~count:0 Testbed.Fleet.default_ranges);
  raises "inverted float range" (fun () ->
      Testbed.Fleet.synthesize ~seed:1L ~count:2
        { Testbed.Fleet.default_ranges with Testbed.Fleet.fault_bias = (2.0, 1.0) });
  raises "zero executors" (fun () ->
      Testbed.Fleet.synthesize ~seed:1L ~count:2
        { Testbed.Fleet.default_ranges with Testbed.Fleet.executors = (0, 4) })

(* ---- configuration validation --------------------------------------------- *)

let test_run_rejects () =
  let raises what cfg =
    checkb what true
      (try
         ignore (F.run cfg);
         false
       with Invalid_argument _ -> true)
  in
  raises "more shards than testbeds" (light_cfg ~testbeds:2 ~shards:3 ());
  raises "non-positive shards" (light_cfg ~shards:0 ());
  raises "non-positive testbeds" (light_cfg ~testbeds:0 ());
  raises "non-positive lookahead" { (light_cfg ()) with F.lookahead = 0.0 };
  raises "duplicate member ids"
    { (light_cfg ~testbeds:3 ()) with F.names = [ "a"; "a" ] }

(* ---- coordination accounting ----------------------------------------------- *)

let test_coordination_accounting () =
  let cfg =
    { (light_cfg ~testbeds:3 ~shards:3 ()) with
      F.backbone_faults_per_year = 40.0;
    }
  in
  let r = F.run cfg in
  let c = r.F.coordination in
  checkb "barriers ran" true (c.F.barriers > 0);
  checkb "backbone faults occurred at this rate" true (c.F.backbone_faults > 0);
  checki "every request is granted or denied" c.F.vlan_requests
    (c.F.vlan_grants + c.F.vlan_denials);
  checki "every grant runs exactly one link test" c.F.vlan_grants c.F.link_tests;
  checkb "link failures bounded by tests" true (c.F.link_failures <= c.F.link_tests);
  checkb "audits ran" true (c.F.audits > 0);
  checkb "audited node floor is sane" true
    (c.F.min_in_service >= 0 && c.F.min_in_service <= r.F.aggregate_nodes);
  checki "events_total sums member engines"
    (List.fold_left (fun a m -> a + m.F.events) 0 r.F.members)
    r.F.events_total;
  checki "aggregate bugs sum members"
    (List.fold_left
       (fun a m -> a + m.F.report.Framework.Campaign.bugs_filed)
       0 r.F.members)
    r.F.aggregate_bugs_filed

let test_global_vlan_bound () =
  (* With a single global VLAN and short request periods, arbitration
     must deny the overflow rather than over-grant. *)
  let cfg =
    { (light_cfg ~testbeds:4 ~shards:2 ()) with
      F.global_vlans = 1;
      vlan_request_period = 12.0 *. 3600.0;
    }
  in
  let c = (F.run cfg).F.coordination in
  checkb "requests happened" true (c.F.vlan_requests > 0);
  checkb "contention produced denials" true (c.F.vlan_denials > 0);
  checki "conservation" c.F.vlan_requests (c.F.vlan_grants + c.F.vlan_denials)

(* ---- differential properties ----------------------------------------------- *)

let shard_counts n = List.filter (fun k -> k <= n) [ 1; 2; 4; 8 ]

let prop_shard_count_invariance =
  QCheck.Test.make ~count:4
    ~name:"K-shard and reference runs are byte-identical to the 1-shard run"
    QCheck.(
      triple (int_range 2 5) (int_range 0 1000)
        (pair (int_range 0 30) (int_range 0 3)))
    (fun (testbeds, seed, (backbone_rate, vlans)) ->
      let cfg k driver =
        { (light_cfg ~testbeds ~shards:k ~seed:(Int64.of_int seed) ~driver ()) with
          F.backbone_faults_per_year = float_of_int backbone_rate;
          global_vlans = vlans;
        }
      in
      let expected = run_fp (cfg 1 F.Sequential) in
      List.for_all
        (fun k -> String.equal expected (run_fp (cfg k F.Sequential)))
        (shard_counts testbeds)
      && String.equal expected (run_fp (cfg 1 F.Reference)))

let prop_interleaving_oracle =
  QCheck.Test.make ~count:4
    ~name:"shuffled shard service order cannot change the outcome"
    QCheck.(triple (int_range 2 5) (int_range 0 1000) (int_range 0 1000))
    (fun (testbeds, seed, interleave_seed) ->
      let shards = min testbeds 4 in
      let seq = light_cfg ~testbeds ~shards ~seed:(Int64.of_int seed) () in
      let shuffled =
        { seq with F.driver = F.Interleaved (Int64.of_int interleave_seed) }
      in
      String.equal (run_fp seq) (run_fp shuffled))

(* ---- 12-month acceptance regressions ---------------------------------------- *)

(* One fingerprint per (shard count, driver) cell of the acceptance
   matrix, all compared against K=4 sequential — which itself runs
   twice. *)
let test_12mo_matrix () =
  let cfg ?(driver = F.Sequential) shards =
    light_cfg ~testbeds:10 ~shards ~months:12 ~seed:1717L ~driver ()
  in
  let expected = run_fp (cfg 4) in
  checkb "12-month federated campaign replays byte-identically" true
    (String.equal expected (run_fp (cfg 4)));
  List.iter
    (fun k ->
      checkb
        (Printf.sprintf "shard count %d matches the reference shard count" k)
        true
        (String.equal expected (run_fp (cfg k))))
    [ 1; 2; 8 ];
  checkb "parallel (domain-per-shard) driver matches sequential" true
    (String.equal expected (run_fp (cfg ~driver:F.Parallel 4)))

(* ---- failing members ---------------------------------------------------------- *)

exception Member_failed

(* Every member quarantines nancy's nodes after a day-1 site outage, and
   the first repair asks [mttr_of_kind], which raises.  With one window
   spanning the whole horizon, both shards of a Parallel K=2 run raise
   in the same window; the driver must join both domains before the
   exception reaches the caller.  The shard that gets there second
   lingers ~0.1 s of CPU time first, so a driver that re-raises as soon
   as one join fails would surface the exception before it has raised. *)
let test_parallel_failure_joins_every_shard () =
  let entered = Atomic.make 0 and raised = Atomic.make 0 in
  let health =
    {
      Framework.Health.default_config with
      Framework.Health.mttr_of_kind =
        (fun _ ->
          if Atomic.fetch_and_add entered 1 > 0 then begin
            let t0 = Sys.time () in
            while Sys.time () -. t0 < 0.1 do Domain.cpu_relax () done
          end;
          Atomic.incr raised;
          raise Member_failed);
    }
  in
  let base = light_base 1 in
  let cfg =
    {
      (light_cfg ~testbeds:2 ~shards:2 ~driver:F.Parallel ()) with
      F.lookahead = Simkit.Calendar.month;
      base =
        {
          base with
          Framework.Campaign.health = Some health;
          health_faults =
            [ (Simkit.Calendar.day, Testbed.Faults.Site_outage,
               Testbed.Faults.Site "nancy") ];
        };
    }
  in
  match F.run cfg with
  | _ -> Alcotest.fail "a raising member must fail the federation run"
  | exception Member_failed ->
    checki "every shard had raised when the exception surfaced" 2
      (Atomic.get raised)

(* ---- unfederated byte-identity ---------------------------------------------- *)

(* The prepare/drive/finalize split that federation needed must leave
   plain campaigns untouched: prepare+finalize equals the one-shot run
   byte for byte. *)
let test_campaign_split_identity () =
  let cfg = light_base 1 in
  let via_run = Framework.Campaign.run cfg in
  let sim = Framework.Campaign.prepare cfg in
  Simkit.Engine.run_until
    (Framework.Campaign.sim_engine sim)
    (Framework.Campaign.sim_horizon sim);
  let via_split = Framework.Campaign.finalize sim in
  checkb "prepare/drive/finalize replays Campaign.run byte for byte" true
    (String.equal
       (Framework.Report.to_string via_run)
       (Framework.Report.to_string via_split))

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "federation"
    [
      ( "fleet",
        [ Alcotest.test_case "spec shapes and ranges" `Quick test_fleet_shapes;
          Alcotest.test_case "stateless per-member streams" `Quick
            test_fleet_stateless_streams;
          Alcotest.test_case "names and reference ranges" `Quick
            test_fleet_names_and_reference;
          Alcotest.test_case "invalid ranges rejected" `Quick test_fleet_rejects
        ] );
      ( "validation",
        [ Alcotest.test_case "invalid configurations rejected" `Quick
            test_run_rejects ] );
      ( "coordination",
        [ Alcotest.test_case "accounting conservation" `Slow
            test_coordination_accounting;
          Alcotest.test_case "global VLAN bound" `Slow test_global_vlan_bound ] );
      ( "differential",
        [ qc prop_shard_count_invariance; qc prop_interleaving_oracle ] );
      ( "acceptance",
        [ Alcotest.test_case "12-month 10-testbed matrix" `Slow test_12mo_matrix
        ] );
      ( "failure",
        [ Alcotest.test_case "parallel failure joins every shard" `Quick
            test_parallel_failure_joins_every_shard ] );
      ( "campaign split",
        [ Alcotest.test_case "unfederated byte-identity" `Quick
            test_campaign_split_identity ] );
    ]
