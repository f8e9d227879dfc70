(* Benchmark and reproduction harness.

   One section per table/figure of the paper (E1..E10, see DESIGN.md),
   each regenerating the corresponding rows/series on the simulated
   testbed, followed by Bechamel micro-benchmarks of the underlying
   machinery.  EXPERIMENTS.md records paper-vs-measured for each. *)

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "================================================================\n%!"

(* Print a scenario's results and write them to BENCH_<name>.json. *)
let write_bench name json =
  let file = "BENCH_" ^ name ^ ".json" in
  let text = Simkit.Json.to_string ~indent:2 json in
  let oc = open_out file in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  print_endline text;
  print_endline ("written to " ^ file)

(* A scenario whose own invariant check fails says so and makes the run
   exit 1 once every requested scenario has finished. *)
let failed = ref false

let warn message =
  print_endline ("WARNING: " ^ message);
  failed := true

(* ---- E1: testbed inventory (slide 6) ------------------------------------- *)

let e1 () =
  section "E1" "testbed summary: 8 sites, 32 clusters, 894 nodes, 8490 cores";
  let rows =
    List.map
      (fun site ->
        let clusters = Testbed.Inventory.clusters_of_site site in
        let nodes = List.fold_left (fun acc c -> acc + c.Testbed.Inventory.nodes) 0 clusters in
        let cores =
          List.fold_left
            (fun acc c ->
              acc + (c.Testbed.Inventory.nodes * c.Testbed.Inventory.cpus
                     * c.Testbed.Inventory.cores_per_cpu))
            0 clusters
        in
        [ site; string_of_int (List.length clusters); string_of_int nodes;
          string_of_int cores ])
      Testbed.Inventory.sites
  in
  let total =
    [ "TOTAL"; string_of_int (List.length Testbed.Inventory.clusters);
      string_of_int Testbed.Inventory.total_nodes;
      string_of_int Testbed.Inventory.total_cores ]
  in
  print_string
    (Simkit.Table.render ~header:[ "site"; "clusters"; "nodes"; "cores" ] (rows @ [ total ]));
  Printf.printf "paper: 8 sites, 32 clusters, 894 nodes, 8490 cores\n"

(* ---- E2: g5k-checks detection (slide 7) ------------------------------------ *)

let e2 () =
  section "E2" "g5k-checks: verification of the testbed description";
  let t = Testbed.Instance.build ~seed:202L () in
  let faults = t.Testbed.Instance.faults in
  let drift_kinds =
    [ Testbed.Faults.Cpu_cstates; Testbed.Faults.Cpu_hyperthreading;
      Testbed.Faults.Cpu_turbo; Testbed.Faults.Cpu_governor;
      Testbed.Faults.Bios_drift; Testbed.Faults.Disk_firmware;
      Testbed.Faults.Disk_write_cache; Testbed.Faults.Ram_dimm_loss;
      Testbed.Faults.Refapi_desync; Testbed.Faults.Cabling_swap ]
  in
  (* Five faults of each drift class, randomly targeted. *)
  List.iter
    (fun kind ->
      for _ = 1 to 5 do
        ignore (Testbed.Faults.inject faults ~now:0.0 kind)
      done)
    drift_kinds;
  (* One boot-time sweep: g5k-checks on every node + cabling check. *)
  Array.iter
    (fun node ->
      let report = G5kchecks.Check.run t node in
      if not (G5kchecks.Check.conforms report) then
        List.iter
          (fun f -> Testbed.Faults.mark_detected faults ~now:1.0 f)
          (Testbed.Faults.active_on_host faults node.Testbed.Node.host);
      if
        not
          (Testbed.Network.cabling_consistent t.Testbed.Instance.network
             node.Testbed.Node.host)
      then
        List.iter
          (fun f ->
            if f.Testbed.Faults.kind = Testbed.Faults.Cabling_swap then
              Testbed.Faults.mark_detected faults ~now:1.0 f)
          (Testbed.Faults.active_on_host faults node.Testbed.Node.host))
    t.Testbed.Instance.nodes;
  let history = Testbed.Faults.history faults in
  let rows =
    List.map
      (fun kind ->
        let of_kind = List.filter (fun f -> f.Testbed.Faults.kind = kind) history in
        let detected =
          List.filter (fun f -> f.Testbed.Faults.detected_at <> None) of_kind
        in
        [ Testbed.Faults.kind_to_string kind;
          string_of_int (List.length of_kind);
          string_of_int (List.length detected);
          Simkit.Table.fmt_pct
            (float_of_int (List.length detected)
            /. float_of_int (Stdlib.max 1 (List.length of_kind))) ])
      drift_kinds
  in
  print_string
    (Simkit.Table.render ~header:[ "drift class"; "injected"; "detected"; "rate" ] rows);
  Printf.printf
    "paper: description errors \"could happen frequently\"; g5k-checks compares\n\
     OHAI/ethtool acquisition against the Reference API at every boot.\n"

(* ---- E3: Kadeploy scaling (slide 8) ------------------------------------------ *)

let e3 () =
  section "E3" "Kadeploy: 200 nodes deployed in ~5 minutes";
  let instance = Testbed.Instance.build ~seed:303L () in
  let registry =
    Kadeploy.Image.registry (Testbed.Faults.context instance.Testbed.Instance.faults)
  in
  let pool =
    Testbed.Instance.nodes_of_cluster instance "graphene"
    @ Testbed.Instance.nodes_of_cluster instance "griffon"
    @ Testbed.Instance.nodes_of_cluster instance "grisou"
    @ Testbed.Instance.nodes_of_cluster instance "paravance"
    @ Testbed.Instance.nodes_of_cluster instance "sagittaire"
  in
  let deploy nodes =
    let result = ref None in
    Kadeploy.Deploy.run instance ~registry ~image:"debian8-x64-std" ~nodes
      ~on_done:(fun r -> result := Some r);
    Simkit.Engine.run_until instance.Testbed.Instance.engine
      (Simkit.Engine.now instance.Testbed.Instance.engine +. 7200.0);
    Option.get !result
  in
  let rows =
    List.map
      (fun n ->
        let nodes = List.filteri (fun i _ -> i < n) pool in
        (* Mean of three repetitions. *)
        let times =
          List.init 3 (fun _ ->
              let r = deploy nodes in
              r.Kadeploy.Deploy.finished_at -. r.Kadeploy.Deploy.started_at)
        in
        let mean = List.fold_left ( +. ) 0.0 times /. 3.0 in
        let model =
          Kadeploy.Deploy.expected_duration ~nodes:n
            ~image_mb:Kadeploy.Image.std_env.Kadeploy.Image.size_mb
        in
        [ string_of_int n; Printf.sprintf "%.0f s" mean; Printf.sprintf "%.0f s" model ])
      [ 1; 2; 4; 8; 16; 32; 64; 128; 200; 256 ]
  in
  print_string (Simkit.Table.render ~header:[ "nodes"; "measured (mean of 3)"; "model" ] rows);
  Printf.printf "paper: \"200 nodes deployed in ~5 minutes\" (chain broadcast => flat).\n"

(* ---- E4: monitoring at 1 Hz (slide 9) ------------------------------------------ *)

let e4 () =
  section "E4" "experiment monitoring: infrastructure probes at ~1 Hz";
  let instance = Testbed.Instance.build ~seed:404L () in
  let collector = Monitoring.Collector.create instance in
  Simkit.Engine.run_until instance.Testbed.Instance.engine 120.0;
  let host = "taurus-1.lyon" in
  let rows =
    List.map
      (fun metric ->
        let series =
          Monitoring.Collector.sample_window collector ~host metric ~lo:60.0 ~hi:119.0
        in
        let hz = Monitoring.Collector.achieved_frequency_hz series ~lo:60.0 ~hi:119.0 in
        let mean = Simkit.Timeseries.mean_between series ~lo:60.0 ~hi:119.0 in
        [ Monitoring.Collector.metric_to_string metric;
          Printf.sprintf "%.2f Hz" hz;
          Simkit.Table.fmt_float mean;
          Simkit.Timeseries.sparkline series ~lo:60.0 ~hi:119.0 ~width:30 ])
      [ Monitoring.Collector.Cpu_load; Monitoring.Collector.Mem_used_gb;
        Monitoring.Collector.Net_rx_mbps; Monitoring.Collector.Power_w ]
  in
  print_string
    (Simkit.Table.render ~header:[ "metric"; "frequency"; "mean"; "live view (60 s)" ] rows);
  Printf.printf "paper: probes \"captured at high frequency (~1 Hz)\" with live\n\
                 visualisation, REST API and long-term storage.\n"

(* ---- E5: matrix jobs (slide 15) -------------------------------------------------- *)

let e5 () =
  section "E5" "Jenkins matrix: 14 images x 32 clusters = 448 configurations";
  let rows =
    List.map
      (fun family ->
        let axes = Framework.Testdef.matrix_axes family in
        [ "test_" ^ Framework.Testdef.family_to_string family;
          String.concat " x "
            (List.map (fun (a, vs) -> Printf.sprintf "%s(%d)" a (List.length vs)) axes);
          string_of_int (List.length (Framework.Testdef.expand family)) ])
      Framework.Testdef.all_families
  in
  print_string (Simkit.Table.render ~header:[ "job"; "axes"; "combinations" ] rows);
  (* Matrix Reloaded scenario: corrupt one image, run the matrix, retry
     only the failed subset. *)
  let env = Framework.Env.create ~seed:505L ~executors:16 () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let img = Kadeploy.Image.std_env in
  let fault =
    Option.get
      (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
         Testbed.Faults.Env_image_corrupt
         (Testbed.Faults.Global (Printf.sprintf "env_corrupt:%d" img.Kadeploy.Image.index)))
  in
  ignore (Ci.Server.trigger env.Framework.Env.ci "test_environments");
  Framework.Env.run_until env (6.0 *. Simkit.Calendar.day);
  let count result =
    List.length
      (List.filter
         (fun b -> b.Ci.Build.result = Some result)
         (Ci.Server.builds env.Framework.Env.ci "test_environments"))
  in
  Printf.printf "full matrix run : %d SUCCESS, %d FAILURE (image %s corrupt)\n"
    (count Ci.Build.Success) (count Ci.Build.Failure) img.Kadeploy.Image.name;
  Testbed.Faults.repair (Framework.Env.faults env) ~now:(Framework.Env.now env) fault;
  (match Ci.Server.retry_failed env.Framework.Env.ci "test_environments" with
   | Ci.Server.Queued builds ->
     Printf.printf "matrix reloaded : re-ran %d failed combination(s) after the fix\n"
       (List.length builds)
   | _ -> ());
  Framework.Env.run_until env (Framework.Env.now env +. (2.0 *. Simkit.Calendar.day));
  let still_failing =
    Ci.Jobdef.combinations (Framework.Testdef.matrix_axes Framework.Testdef.Environments)
    |> List.filter (fun axes ->
           match Ci.Server.last_of_axes env.Framework.Env.ci "test_environments" ~axes with
           | Some b -> b.Ci.Build.result <> Some Ci.Build.Success
           | None -> true)
  in
  Printf.printf "after retry     : %d combination(s) still failing\n"
    (List.length still_failing)

(* ---- E6: job scheduling policies (slides 16-17) ------------------------------------ *)

let e6 () =
  section "E6" "external scheduler vs naive time-based triggering";
  let run policy =
    Framework.Campaign.run
      { Framework.Campaign.default_config with
        Framework.Campaign.months = 1;
        seed = 606L;
        policy;
      }
  in
  let report_row name report =
    match report.Framework.Campaign.scheduler_stats with
    | None -> [ name; "-"; "-"; "-"; "-"; "-"; "-" ]
    | Some s ->
      let completed =
        s.Framework.Scheduler.completed_success + s.Framework.Scheduler.completed_failure
        + s.Framework.Scheduler.completed_unstable
      in
      [ name;
        string_of_int s.Framework.Scheduler.triggered;
        Simkit.Table.fmt_pct
          (float_of_int s.Framework.Scheduler.completed_success
          /. float_of_int (Stdlib.max 1 completed));
        string_of_int s.Framework.Scheduler.completed_unstable;
        Simkit.Table.fmt_pct
          (float_of_int s.Framework.Scheduler.completed_unstable
          /. float_of_int (Stdlib.max 1 completed));
        string_of_int s.Framework.Scheduler.skipped_no_resources;
        string_of_int s.Framework.Scheduler.skipped_peak ]
  in
  let smart = run Framework.Scheduler.smart_policy in
  let naive = run Framework.Scheduler.naive_policy in
  print_string
    (Simkit.Table.render
       ~header:
         [ "policy"; "triggered"; "success"; "unstable"; "unstable%";
           "skips(no-res)"; "skips(peak)" ]
       [ report_row "smart (paper)" smart; report_row "naive (baseline)" naive ]);
  Printf.printf
    "paper: the external tool submits only when resources are available, with\n\
     exponential backoff, peak-hours avoidance and same-site anti-affinity;\n\
     jobs not schedulable immediately are cancelled => build marked UNSTABLE.\n"

(* ---- E7: status page (slides 18-19) -------------------------------------------------- *)

let e7 () =
  section "E7" "status page: per-test / per-cluster / historical views";
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with Framework.Campaign.months = 1; seed = 707L }
  in
  print_string report.Framework.Campaign.statuspage

(* ---- E8: coverage (slide 21) ---------------------------------------------------------- *)

let e8 () =
  section "E8" "test coverage: 751 configurations";
  let rows =
    List.map
      (fun family ->
        [ Framework.Testdef.family_to_string family;
          Framework.Testdef.category family;
          (if Framework.Testdef.is_hardware_centric family then "hardware-centric"
           else "software-centric");
          string_of_int (List.length (Framework.Testdef.expand family)) ])
      Framework.Testdef.all_families
  in
  print_string
    (Simkit.Table.render ~header:[ "test"; "category"; "kind"; "configurations" ]
       (rows
       @ [ [ "TOTAL"; ""; ""; string_of_int (Framework.Jobs.total_configurations ()) ] ]));
  Printf.printf "paper: \"Coverage (total of 751 test configurations)\".\n"

(* ---- E9: bugs filed/fixed (slide 22) --------------------------------------------------- *)

let e9 () =
  section "E9" "results: bugs filed and fixed over a 6-month campaign";
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with Framework.Campaign.months = 6; seed = 42L }
  in
  print_string
    (Simkit.Table.render ~header:[ "category"; "filed"; "fixed" ]
       (List.map
          (fun (category, filed, fixed) ->
            [ category; string_of_int filed; string_of_int fixed ])
          report.Framework.Campaign.bugs_by_category
       @ [ [ "TOTAL"; string_of_int report.Framework.Campaign.bugs_filed;
             string_of_int report.Framework.Campaign.bugs_fixed ] ]));
  Printf.printf "paper: 118 bugs filed, 84 already fixed at submission time.\n";
  Printf.printf
    "ground truth: %d faults injected, %d detected by tests, %d repaired.\n"
    report.Framework.Campaign.faults_injected report.Framework.Campaign.faults_detected
    report.Framework.Campaign.faults_repaired

(* ---- E10: reliability trend (slide 23) --------------------------------------------------- *)

let e10 () =
  section "E10" "reliability: success rate improves while tests are added";
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with Framework.Campaign.months = 12; seed = 42L }
  in
  print_string
    (Simkit.Table.render
       ~header:[ "month"; "builds"; "success"; "configs enabled"; "active faults" ]
       (List.map
          (fun m ->
            [ string_of_int m.Framework.Campaign.month;
              string_of_int m.Framework.Campaign.builds;
              Simkit.Table.fmt_pct m.Framework.Campaign.success_ratio;
              string_of_int m.Framework.Campaign.enabled_configs;
              string_of_int m.Framework.Campaign.active_faults ])
          report.Framework.Campaign.monthly));
  Printf.printf
    "paper: \"85%% of tests successful in February => 93%% today, despite the\n\
     addition of new tests\" (disk+kavlan added month 2; kwapi+mpigraph month 4).\n"

(* ---- Ablations: the design choices DESIGN.md calls out ---------------------------------- *)

(* A1: the paper's open question — whole-cluster vs per-node scheduling of
   hardware-centric tests. *)
let a1 () =
  section "A1" "ablation: whole-cluster vs per-node scheduling (open question)";
  let run strategy =
    let env = Framework.Env.create ~seed:111L ~executors:6 () in
    let oar = env.Framework.Env.oar in
    let engine = Framework.Env.engine env in
    let rng = Simkit.Prng.split (Simkit.Engine.rng engine) in
    (* A dedicated heavy stream of small jobs on genepi keeps the cluster
       ~full with staggered reservations — the paper's "waiting for all
       nodes of a given cluster to be available can take weeks" regime. *)
    let in_flight = ref 0 in
    Oar.Manager.on_job_end oar (fun _ -> decr in_flight);
    Simkit.Engine.every engine ~period:300.0 (fun _ ->
        if !in_flight < 60 then begin
          let nodes = `N (Simkit.Prng.int_in rng 1 6) in
          let walltime =
            Float.min (12.0 *. 3600.0)
              (Simkit.Dist.sample rng (Simkit.Dist.Lognormal (8.8, 0.8)))
          in
          match
            Oar.Manager.submit oar ~user:"heavy-user"
              ~duration:(walltime *. (0.6 +. (0.4 *. Simkit.Prng.float rng)))
              (Oar.Request.nodes ~filter:"cluster='genepi'" nodes ~walltime)
          with
          | Ok _ -> incr in_flight
          | Error _ -> ()
        end;
        true);
    let tracker =
      Framework.Pernode.create ~walltime:900.0 env ~strategy ~cluster:"genepi"
    in
    Framework.Pernode.start tracker ~period:600.0;
    Simkit.Engine.run_until engine (30.0 *. Simkit.Calendar.day);
    tracker
  in
  let whole = run Framework.Pernode.Whole_cluster in
  let per_node = run Framework.Pernode.Per_node in
  let row name tracker =
    let sweeps = Framework.Pernode.completed_sweeps tracker in
    [ name;
      (match Framework.Pernode.time_to_coverage tracker with
       | Some d -> Printf.sprintf "%.1f days" (d /. Simkit.Calendar.day)
       | None -> "never (30-day horizon)");
      string_of_int (List.length sweeps);
      (match sweeps with
       | [] -> "-"
       | _ ->
         let runs =
           List.fold_left
             (fun acc s -> acc + s.Framework.Pernode.partial_runs)
             0 sweeps
         in
         Printf.sprintf "%.1f" (float_of_int runs /. float_of_int (List.length sweeps))) ]
  in
  print_string
    (Simkit.Table.render
       ~header:
         [ "strategy"; "first full coverage"; "sweeps in 30 days"; "reservations/sweep" ]
       [ row "whole-cluster (paper)" whole; row "per-node (proposed)" per_node ]);
  Printf.printf
    "paper: \"requiring the availability of all nodes of a cluster is not very\n\
     realistic. Move to per-node scheduling?\" — per-node coverage completes even\n\
     when the cluster is never simultaneously free.\n"

(* A2/A3: scheduler policy knobs, one at a time. *)
let a2_a3 () =
  section "A2/A3" "ablation: exponential backoff and peak-hours avoidance";
  let run policy seed =
    Framework.Campaign.run
      { Framework.Campaign.default_config with
        Framework.Campaign.months = 1;
        seed;
        policy;
      }
  in
  let base = Framework.Scheduler.smart_policy in
  let variants =
    [ ("smart (all policies)", base);
      ("no backoff", { base with Framework.Scheduler.use_backoff = false });
      ("no peak avoidance", { base with Framework.Scheduler.avoid_peak_hours = false });
      ("no site anti-affinity", { base with Framework.Scheduler.one_job_per_site = false }) ]
  in
  let rows =
    List.map
      (fun (name, policy) ->
        let report = run policy 222L in
        match report.Framework.Campaign.scheduler_stats with
        | None -> [ name; "-"; "-"; "-"; "-" ]
        | Some s ->
          let completed =
            s.Framework.Scheduler.completed_success
            + s.Framework.Scheduler.completed_failure
            + s.Framework.Scheduler.completed_unstable
          in
          [ name;
            string_of_int s.Framework.Scheduler.triggered;
            Simkit.Table.fmt_pct
              (float_of_int s.Framework.Scheduler.completed_success
              /. float_of_int (Stdlib.max 1 completed));
            string_of_int s.Framework.Scheduler.completed_unstable;
            string_of_int s.Framework.Scheduler.skipped_no_resources ])
      variants
  in
  print_string
    (Simkit.Table.render
       ~header:[ "policy variant"; "triggered"; "success"; "unstable"; "skips(no-res)" ]
       rows)

(* A4: operator capacity sensitivity — how fast do bugs need fixing for the
   93% regime? *)
let a4 () =
  section "A4" "ablation: operator fix capacity vs reliability";
  let rows =
    List.map
      (fun capacity ->
        let report =
          Framework.Campaign.run
            { Framework.Campaign.default_config with
              Framework.Campaign.months = 2;
              seed = 333L;
              operator =
                { Framework.Operator.default_config with
                  Framework.Operator.fix_capacity_per_day = capacity;
                };
            }
        in
        let last_month =
          List.nth report.Framework.Campaign.monthly
            (List.length report.Framework.Campaign.monthly - 1)
        in
        [ Printf.sprintf "%.2f bugs/day" capacity;
          string_of_int report.Framework.Campaign.bugs_filed;
          string_of_int report.Framework.Campaign.bugs_fixed;
          Simkit.Table.fmt_pct last_month.Framework.Campaign.success_ratio;
          string_of_int last_month.Framework.Campaign.active_faults ])
      [ 0.15; 0.35; 0.72; 1.5; 3.0 ]
  in
  print_string
    (Simkit.Table.render
       ~header:[ "fix capacity"; "filed"; "fixed"; "success (month 2)"; "active faults" ]
       rows);
  Printf.printf "the \"test-driven operations\" regime needs fixing to keep up with arrivals.\n"

(* A5: detection latency per fault category. *)
let a5 () =
  section "A5" "detection latency by fault category (ground truth)";
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with Framework.Campaign.months = 2; seed = 42L }
  in
  print_string
    (Simkit.Table.render ~header:[ "fault category"; "mean detection latency"; "detections" ]
       (List.map
          (fun (category, days, n) ->
            [ category; Printf.sprintf "%.1f days" days; string_of_int n ])
          report.Framework.Campaign.detection_latency_days));
  Printf.printf
    "description drift is caught within a day (refapi runs daily); whole-cluster\n\
     hardware tests take longer — they wait for the resources (E6, A1).\n"

(* A6: user-experiment regression tests (future work made real). *)
let a6 () =
  section "A6" "extension: user experiments as regression tests";
  let env = Framework.Env.create ~seed:444L () in
  let tracker = Framework.Bugtracker.create () in
  Framework.Regression.define_jobs env ~on_evidence:(fun evidence ->
      ignore (Framework.Bugtracker.file tracker ~now:(Framework.Env.now env) evidence));
  (* Break things a user would notice — on every candidate target, so the
     experiments' reservations cannot dodge the faults. *)
  List.iter
    (fun spec ->
      if spec.Testbed.Inventory.has_ib then
        ignore
          (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
             Testbed.Faults.Ofed_flaky
             (Testbed.Faults.Cluster spec.Testbed.Inventory.cluster)))
    Testbed.Inventory.clusters;
  List.iter
    (fun cluster ->
      let rec swap_pairs = function
        | a :: b :: rest ->
          ignore
            (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
               Testbed.Faults.Cabling_swap
               (Testbed.Faults.Host_pair (a.Testbed.Node.host, b.Testbed.Node.host)));
          swap_pairs rest
        | _ -> ()
      in
      swap_pairs (Testbed.Instance.nodes_of_cluster env.Framework.Env.instance cluster))
    [ "grisou"; "graphene"; "griffon"; "graphite"; "grimoire"; "graoully"; "grele";
      "grimani" ];
  (* Several rounds: the OFED failure is probabilistic. *)
  for _ = 1 to 4 do
    List.iter
      (fun experiment ->
        ignore
          (Ci.Server.trigger env.Framework.Env.ci
             ("regression_" ^ Framework.Regression.name experiment)))
      Framework.Regression.all;
    Framework.Env.run_until env (Framework.Env.now env +. (6.0 *. Simkit.Calendar.hour))
  done;
  List.iter
    (fun experiment ->
      let job = "regression_" ^ Framework.Regression.name experiment in
      let completed =
        List.filter Ci.Build.is_finished (Ci.Server.builds env.Framework.Env.ci job)
      in
      let failures =
        List.length
          (List.filter (fun b -> b.Ci.Build.result = Some Ci.Build.Failure) completed)
      in
      Printf.printf "  %-28s %d run(s), %d failure(s)\n" job (List.length completed)
        failures)
    Framework.Regression.all;
  let filed, _ = Framework.Bugtracker.counts tracker in
  Printf.printf "bugs filed by regression experiments: %d\n" filed;
  Printf.printf "paper: \"adding real user experiments as regression tests?\" — done.\n"

(* ---- E12: scheduler hot path (due-queue vs linear scan) --------------------------------- *)

(* The external scheduler polls every 10 minutes over 751 configurations.
   The due-queue rewrite makes a poll O(due) instead of re-sorting and
   re-scanning the whole catalog; this scenario measures both paths on
   the full catalog — a week-long campaign end-to-end, then the
   steady-state per-poll cost — and writes BENCH_scheduler.json.
   [--scenario scheduler] runs only this. *)
let e12_scheduler () =
  section "E12" "scheduler hot path: due-queue vs full-catalog linear scan";
  let day = Simkit.Calendar.day in
  let horizon = 7.0 *. day in
  (* A full-catalog week: all 16 families (751 configurations) driven by
     the engine exactly as in a campaign. *)
  let campaign ~indexed =
    let env = Framework.Env.create ~seed:1212L () in
    Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
    let s = Framework.Scheduler.create ~indexed env in
    List.iter (Framework.Scheduler.enable_family s) Framework.Testdef.all_families;
    Framework.Scheduler.start s;
    let t0 = Unix.gettimeofday () in
    Framework.Env.run_until env horizon;
    let wall = Unix.gettimeofday () -. t0 in
    (Framework.Scheduler.stats s, wall)
  in
  let stats_idx, wall_idx = campaign ~indexed:true in
  let stats_lin, wall_lin = campaign ~indexed:false in
  if stats_idx <> stats_lin then
    warn "indexed and linear campaigns disagree on stats!";
  Printf.printf "week-long 751-config campaign (%d polls, %d builds triggered):\n"
    stats_idx.Framework.Scheduler.polls stats_idx.Framework.Scheduler.triggered;
  Printf.printf "  indexed  %.2f s wall (%.0f polls/s)\n" wall_idx
    (float_of_int stats_idx.Framework.Scheduler.polls /. wall_idx);
  Printf.printf "  linear   %.2f s wall (%.0f polls/s)\n" wall_lin
    (float_of_int stats_lin.Framework.Scheduler.polls /. wall_lin);
  (* Steady-state per-poll cost: a scheduler loaded with the staggered
     catalog, polled at an instant where nothing is due — the common
     case the poll loop hits every 10 minutes.  The linear path still
     rebuilds the busy table and sorts all 751 entries; the indexed path
     peeks the heap top. *)
  let quiet_scheduler ~indexed =
    let env = Framework.Env.create ~seed:3434L () in
    Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
    let s = Framework.Scheduler.create ~indexed env in
    List.iter (Framework.Scheduler.enable_family s) Framework.Testdef.all_families;
    s
  in
  let per_poll s =
    let reps = 20_000 in
    for _ = 1 to 100 do Framework.Scheduler.poll s done;
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do Framework.Scheduler.poll s done;
    let dt = Unix.gettimeofday () -. t0 in
    let alloc = (Gc.allocated_bytes () -. a0) /. float_of_int reps in
    (dt /. float_of_int reps *. 1e9, alloc)
  in
  let ns_idx, alloc_idx = per_poll (quiet_scheduler ~indexed:true) in
  let ns_lin, alloc_lin = per_poll (quiet_scheduler ~indexed:false) in
  let speedup = ns_lin /. ns_idx in
  Printf.printf "steady-state poll over 751 configurations (nothing due):\n";
  Printf.printf "  indexed  %10.1f ns/poll  %10.1f B alloc/poll\n" ns_idx alloc_idx;
  Printf.printf "  linear   %10.1f ns/poll  %10.1f B alloc/poll\n" ns_lin alloc_lin;
  Printf.printf "  per-poll speedup: %.1fx %s\n" speedup
    (if speedup >= 5.0 then "(target >= 5x: OK)" else "(target >= 5x: MISSED)");
  let json =
    let open Simkit.Json in
    Obj
      [ ("configurations", Int (Framework.Jobs.total_configurations ()));
        ("horizon_days", Float (horizon /. day));
        ( "campaign",
          Obj
            [ ("polls", Int stats_idx.Framework.Scheduler.polls);
              ("triggered", Int stats_idx.Framework.Scheduler.triggered);
              ("stats_match_linear", Bool (stats_idx = stats_lin));
              ("indexed_wall_s", Float wall_idx);
              ("linear_wall_s", Float wall_lin);
              ( "indexed_polls_per_s",
                Float (float_of_int stats_idx.Framework.Scheduler.polls /. wall_idx) );
              ( "linear_polls_per_s",
                Float (float_of_int stats_lin.Framework.Scheduler.polls /. wall_lin) ) ] );
        ( "steady_state_poll",
          Obj
            [ ("indexed_ns", Float ns_idx);
              ("linear_ns", Float ns_lin);
              ("indexed_alloc_bytes", Float alloc_idx);
              ("linear_alloc_bytes", Float alloc_lin);
              ("speedup", Float speedup) ] ) ]
  in
  write_bench "scheduler" json

(* ---- E13: self-healing loop under correlated faults ------------------------------------- *)

(* A week-long full-catalog run with a PDU failure, a site outage and a
   network partition landing mid-week.  None of them is auto-repaired:
   with the health loop off the affected nodes stay dark for the rest of
   the week; with it on they are quarantined, repaired and re-verified.
   Compares the success ratio and scheduler throughput of both runs,
   then measures the probe's per-poll overhead, and writes
   BENCH_health.json.  [--scenario health] runs only this. *)
let e13_health () =
  section "E13" "self-healing: health loop off vs on under correlated faults";
  let day = Simkit.Calendar.day in
  let horizon = 7.0 *. day in
  let drills =
    [ (1.0 *. day, Testbed.Faults.Pdu_failure, Testbed.Faults.Rack ("grisou", 0));
      (2.0 *. day, Testbed.Faults.Site_outage, Testbed.Faults.Site "nancy");
      (4.0 *. day, Testbed.Faults.Network_partition, Testbed.Faults.Site "rennes") ]
  in
  let run ~loop =
    let env = Framework.Env.create ~seed:1313L () in
    Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
    let s = Framework.Scheduler.create env in
    List.iter (Framework.Scheduler.enable_family s) Framework.Testdef.all_families;
    let health =
      if loop then
        Some
          (Framework.Health.attach ~scheduler:s
             ~alerts:(Monitoring.Alerts.create env.Framework.Env.collector)
             env)
      else None
    in
    let faults = Framework.Env.faults env in
    List.iter
      (fun (at, kind, target) ->
        ignore
          (Simkit.Engine.schedule_at (Framework.Env.engine env) ~time:at
             (fun eng ->
               ignore
                 (Testbed.Faults.inject_on faults ~now:(Simkit.Engine.now eng)
                    kind target))))
      drills;
    Framework.Scheduler.start s;
    let t0 = Unix.gettimeofday () in
    Framework.Env.run_until env horizon;
    let wall = Unix.gettimeofday () -. t0 in
    (Framework.Scheduler.stats s, Option.map Framework.Health.summary health, wall)
  in
  let stats_off, _, wall_off = run ~loop:false in
  let stats_on, health_on, wall_on = run ~loop:true in
  let completed (s : Framework.Scheduler.stats) =
    s.Framework.Scheduler.completed_success + s.Framework.Scheduler.completed_failure
    + s.Framework.Scheduler.completed_unstable
  in
  let ratio (s : Framework.Scheduler.stats) =
    float_of_int s.Framework.Scheduler.completed_success
    /. float_of_int (Stdlib.max 1 (completed s))
  in
  let row name (s : Framework.Scheduler.stats) =
    [ name; string_of_int s.Framework.Scheduler.triggered;
      string_of_int (completed s); Simkit.Table.fmt_pct (ratio s);
      string_of_int s.Framework.Scheduler.completed_unstable;
      string_of_int s.Framework.Scheduler.skipped_no_resources;
      string_of_int s.Framework.Scheduler.skipped_quarantined ]
  in
  print_string
    (Simkit.Table.render
       ~header:
         [ "health loop"; "triggered"; "completed"; "success"; "unstable";
           "skips(no-res)"; "skips(quarantine)" ]
       [ row "off" stats_off; row "on" stats_on ]);
  (match health_on with
   | Some h ->
     Printf.printf
       "loop on: %d quarantined, %d repair attempts, %d released, %d retired, \
        mean %.1f h to release, %d alerts\n"
       h.Framework.Health.quarantined h.Framework.Health.repair_attempts
       h.Framework.Health.released h.Framework.Health.retired
       h.Framework.Health.mean_hours_to_release h.Framework.Health.alerts_fired
   | None -> ());
  Printf.printf "success ratio: %s (off) -> %s (on)\n"
    (Simkit.Table.fmt_pct (ratio stats_off))
    (Simkit.Table.fmt_pct (ratio stats_on));
  (* Per-poll overhead of the quarantine probe on a quiet scheduler: the
     probe only runs when a configuration fails its precheck, so the
     steady-state poll cost should be unchanged to the noise floor. *)
  let quiet ~loop =
    let env = Framework.Env.create ~seed:3535L () in
    Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
    let s = Framework.Scheduler.create env in
    List.iter (Framework.Scheduler.enable_family s) Framework.Testdef.all_families;
    if loop then
      ignore
        (Framework.Health.attach ~scheduler:s
           ~alerts:(Monitoring.Alerts.create env.Framework.Env.collector)
           env);
    s
  in
  let per_poll s =
    let reps = 20_000 in
    for _ = 1 to 100 do Framework.Scheduler.poll s done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do Framework.Scheduler.poll s done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e9
  in
  let ns_off = per_poll (quiet ~loop:false) in
  let ns_on = per_poll (quiet ~loop:true) in
  Printf.printf "steady-state poll: %.1f ns without probe, %.1f ns with probe\n"
    ns_off ns_on;
  let json =
    let open Simkit.Json in
    let scheduler_json (s : Framework.Scheduler.stats) wall =
      Obj
        [ ("polls", Int s.Framework.Scheduler.polls);
          ("triggered", Int s.Framework.Scheduler.triggered);
          ("completed", Int (completed s));
          ("success_ratio", Float (ratio s));
          ("unstable", Int s.Framework.Scheduler.completed_unstable);
          ("skipped_no_resources", Int s.Framework.Scheduler.skipped_no_resources);
          ("skipped_quarantined", Int s.Framework.Scheduler.skipped_quarantined);
          ("wall_s", Float wall) ]
    in
    Obj
      [ ("horizon_days", Float (horizon /. day));
        ("drills", Int (List.length drills));
        ("loop_off", scheduler_json stats_off wall_off);
        ("loop_on", scheduler_json stats_on wall_on);
        ( "health",
          match health_on with
          | Some h -> Framework.Health.summary_to_json h
          | None -> Null );
        ( "steady_state_poll",
          Obj
            [ ("without_probe_ns", Float ns_off);
              ("with_probe_ns", Float ns_on) ] ) ]
  in
  write_bench "health" json

(* ---- E15: triage pipeline at scale ------------------------------------------------------ *)

(* Replays >= 1M synthetic evidence bundles through canonicalization and
   the bounded signature store.  The population is clustered: a Zipf-ish
   skew over ~3x max_live distinct failure modes, each mode pinned to one
   cluster with the reporting host varying inside it — so canonical
   signatures collapse per-cluster noise, hot modes stay live and the
   cold tail is forced through eviction.  Checks the memory bound
   (peak_live <= max_live), occurrence conservation across tombstones,
   and the O(1) counters against the list-scan oracle; writes
   BENCH_triage.json.  [--scenario triage] runs only this. *)

let triage_bundles = ref 1_000_000

let e15_triage () =
  section "E15" "triage: millions of bundles through the bounded signature store";
  let env = Framework.Env.create ~seed:1515L () in
  let limits = Framework.Bugtracker.default_limits in
  let tracker = Framework.Bugtracker.create ~limits () in
  let bundles = !triage_bundles in
  let distinct = 3 * limits.Framework.Bugtracker.max_live in
  let clusters = Array.of_list Testbed.Inventory.clusters in
  let rng = Simkit.Prng.create 9L in
  (* ~30 simulated seconds per bundle: over 1M bundles that is nearly a
     simulated year, so the 6 h idle grace actually distinguishes hot
     modes from the cold tail. *)
  let step = 30.0 in
  let evidence_of m =
    let spec = clusters.(m mod Array.length clusters) in
    let host =
      Printf.sprintf "%s-%d.%s" spec.Testbed.Inventory.cluster
        ((m mod spec.Testbed.Inventory.nodes) + 1)
        spec.Testbed.Inventory.site
    in
    { Framework.Bugtracker.signature = Printf.sprintf "disk:%s:mode%d" host m;
      summary = Printf.sprintf "synthetic failure mode %d" m;
      category = "disk";
      source_test = "bench_triage";
      fault_ids = [ m ] }
  in
  let live_words0 = Gc.((quick_stat ()).heap_words) in
  let t0 = Unix.gettimeofday () in
  let reopened = ref 0 in
  for i = 1 to bundles do
    let u = Simkit.Prng.float rng in
    let m = int_of_float (float_of_int distinct *. (u ** 4.0)) in
    let now = float_of_int i *. step in
    let evidence = evidence_of m in
    let canonical = Framework.Triage.canonicalize env evidence in
    let key = Framework.Triage.canonical_signature canonical in
    (match
       Framework.Bugtracker.file tracker ~now
         { evidence with Framework.Bugtracker.signature = key }
     with
    | `New _ -> ()
    | `Duplicate bug ->
      (* Exercise the regression path: periodically "fix" a recurring
         bug so its next occurrence reopens it. *)
      if i mod 1000 = 0 && bug.Framework.Bugtracker.status = Framework.Bugtracker.Open
      then Framework.Bugtracker.mark_fixed tracker ~now bug
      else if bug.Framework.Bugtracker.status = Framework.Bugtracker.Open
              && bug.Framework.Bugtracker.reopens > 0
      then incr reopened)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Gc.compact ();
  let live_words = Gc.((quick_stat ()).heap_words) - live_words0 in
  let stats = Framework.Bugtracker.stats tracker in
  let filings_per_s = float_of_int bundles /. wall in
  let dedup_ratio =
    float_of_int bundles /. float_of_int (Stdlib.max 1 stats.Framework.Bugtracker.filed_total)
  in
  (* Conservation: every bundle is accounted for either by a live bug or
     by a tombstone — eviction may never lose occurrence counts. *)
  let live_occ =
    List.fold_left
      (fun acc b -> acc + b.Framework.Bugtracker.occurrences)
      0
      (Framework.Bugtracker.all tracker)
  in
  let conserved =
    live_occ + stats.Framework.Bugtracker.tombstoned_occurrences = bundles
  in
  let counters_ok =
    let filed, fixed =
      List.fold_left
        (fun (filed, fixed) (_, f, x) -> (filed + f, fixed + x))
        (0, 0)
        (Framework.Bugtracker.by_category tracker)
    in
    Framework.Bugtracker.counts tracker = (filed, fixed)
  in
  let bound_ok =
    stats.Framework.Bugtracker.peak_live <= limits.Framework.Bugtracker.max_live
  in
  Printf.printf "%d bundles over %d distinct modes in %.2f s (%.0f filings/s)\n"
    bundles distinct wall filings_per_s;
  Printf.printf
    "  store: %d live (peak %d, cap %d %s), %d distinct filed, %d evictions, \
     %d resurrections\n"
    stats.Framework.Bugtracker.live stats.Framework.Bugtracker.peak_live
    limits.Framework.Bugtracker.max_live
    (if bound_ok then "OK" else "EXCEEDED")
    stats.Framework.Bugtracker.filed_total stats.Framework.Bugtracker.evicted
    stats.Framework.Bugtracker.resurrected;
  Printf.printf "  dedup ratio: %.1f filings/signature\n" dedup_ratio;
  Printf.printf "  occurrence conservation (live %d + tombstoned %d = %d): %s\n"
    live_occ stats.Framework.Bugtracker.tombstoned_occurrences bundles
    (if conserved then "OK" else "VIOLATED");
  Printf.printf "  O(1) counters match per-category totals: %b\n" counters_ok;
  Printf.printf "  retained heap: %.1f MB (%.0f words/live bug)\n"
    (float_of_int live_words *. float_of_int (Sys.word_size / 8) /. 1048576.0)
    (float_of_int live_words /. float_of_int (Stdlib.max 1 stats.Framework.Bugtracker.live));
  if not (bound_ok && conserved && counters_ok) then
    warn "triage store invariants violated!";
  let json =
    let open Simkit.Json in
    Obj
      [ ("bundles", Int bundles);
        ("distinct_modes", Int distinct);
        ("wall_s", Float wall);
        ("filings_per_s", Float filings_per_s);
        ("dedup_ratio", Float dedup_ratio);
        ("max_live", Int limits.Framework.Bugtracker.max_live);
        ("peak_live", Int stats.Framework.Bugtracker.peak_live);
        ("live", Int stats.Framework.Bugtracker.live);
        ("filed_total", Int stats.Framework.Bugtracker.filed_total);
        ("evicted", Int stats.Framework.Bugtracker.evicted);
        ("resurrected", Int stats.Framework.Bugtracker.resurrected);
        ("tombstoned_occurrences", Int stats.Framework.Bugtracker.tombstoned_occurrences);
        ("memory_bound_ok", Bool bound_ok);
        ("occurrences_conserved", Bool conserved);
        ("counters_match_oracle", Bool counters_ok);
        ("retained_heap_words", Int live_words) ]
  in
  write_bench "triage" json

(* ---- Bechamel micro-benchmarks --------------------------------------------------------- *)

let microbenchmarks () =
  section "MICRO" "Bechamel micro-benchmarks of the core machinery";
  let open Bechamel in
  (* Staged state shared by the closures. *)
  let rng = Simkit.Prng.create 1L in
  let instance = Testbed.Instance.build ~seed:808L () in
  let oar = Oar.Manager.create instance in
  let node = Testbed.Instance.node instance "grisou-1.nancy" in
  let doc_text =
    Simkit.Json.to_string
      (Option.get (Testbed.Refapi.get instance.Testbed.Instance.refapi "grisou-1.nancy"))
  in
  let doc = Simkit.Json.of_string_exn doc_text in
  let request = Oar.Request.nodes ~filter:"cluster='grisou'" (`N 4) ~walltime:3600.0 in
  let expr_source = "cluster='grisou' and gpu='NO' and cores>=8" in
  let grisou = Oar.Expr.parse_exn "cluster='grisou'" in
  (* The last of the 448 environments configurations: the far end of a
     linear scan. *)
  let env_axes =
    Framework.Testdef.axes_of_config
      (List.hd (List.rev (Framework.Testdef.expand Framework.Testdef.Environments)))
  in
  let tests =
    [ Test.make ~name:"prng.next_int64" (Staged.stage (fun () -> Simkit.Prng.next_int64 rng));
      Test.make ~name:"dist.normal"
        (Staged.stage (fun () -> Simkit.Dist.normal rng ~mu:0.0 ~sigma:1.0));
      Test.make ~name:"engine.1000-events"
        (Staged.stage (fun () ->
             let e = Simkit.Engine.create () in
             for i = 1 to 1000 do
               ignore (Simkit.Engine.schedule e ~delay:(float_of_int i) (fun _ -> ()))
             done;
             Simkit.Engine.run e));
      Test.make ~name:"json.parse-refapi-doc"
        (Staged.stage (fun () -> Simkit.Json.of_string_exn doc_text));
      Test.make ~name:"json.diff-identical" (Staged.stage (fun () -> Simkit.Json.diff doc doc));
      Test.make ~name:"expr.parse" (Staged.stage (fun () -> Oar.Expr.parse_exn expr_source));
      Test.make ~name:"oar.estimate-start"
        (Staged.stage (fun () -> Oar.Manager.estimate_start oar request));
      (* More hosts than the cluster has: the precheck scans all of them. *)
      Test.make ~name:"oar.free-at-least-scan"
        (Staged.stage (fun () -> Oar.Manager.free_at_least oar grisou 1000));
      Test.make ~name:"testdef.config-of-axes"
        (Staged.stage (fun () ->
             Framework.Testdef.config_of_axes Framework.Testdef.Environments env_axes));
      Test.make ~name:"g5kchecks.node-check"
        (Staged.stage (fun () -> G5kchecks.Check.run instance node));
      Test.make ~name:"matrix.expand-448"
        (Staged.stage (fun () ->
             Ci.Jobdef.combinations
               (Framework.Testdef.matrix_axes Framework.Testdef.Environments)));
      Test.make ~name:"kadeploy.expected-duration"
        (Staged.stage (fun () -> Kadeploy.Deploy.expected_duration ~nodes:200 ~image_mb:1200))
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false () in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    results
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ ns ] -> Printf.printf "  %-28s %12.1f ns/run\n%!" name ns
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests

let run_all () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e12_scheduler ();
  e13_health ();
  e15_triage ();
  a1 ();
  a2_a3 ();
  a4 ();
  a5 ();
  a6 ();
  microbenchmarks ()

let scenarios =
  [ ("all", run_all); ("scheduler", e12_scheduler); ("health", e13_health);
    ("triage", e15_triage); ("micro", microbenchmarks) ]

let () =
  let scenario = ref "all" in
  Arg.parse
    [ ( "--scenario",
        Arg.Set_string scenario,
        Printf.sprintf "NAME  run one scenario (%s)"
          (String.concat "|" (List.map fst scenarios)) );
      ( "--bundles",
        Arg.Set_int triage_bundles,
        "N  synthetic evidence bundles for the triage scenario (default 1000000)" ) ]
    (fun anon -> raise (Arg.Bad ("unexpected argument: " ^ anon)))
    "bench [--scenario NAME]";
  match List.assoc_opt !scenario scenarios with
  | None ->
    Printf.eprintf "unknown scenario %s (known: %s)\n" !scenario
      (String.concat ", " (List.map fst scenarios));
    exit 2
  | Some run ->
    let t0 = Unix.gettimeofday () in
    run ();
    Printf.printf "\ntotal bench wall time: %.1f s\n" (Unix.gettimeofday () -. t0);
    if !failed then exit 1
