(* g5ktest: command-line front-end to the testbed testing framework.

   Subcommands:
     inventory  - print the simulated testbed inventory
     coverage   - print the test catalog (751 configurations)
     campaign   - run a closed-loop campaign and print the report
     lint       - statically check catalog + example configurations
     hunt       - inject one fault per class and report detections
     bugs       - triage pipeline demo: clustered bug index from one fault per class
     status     - run a short campaign and print the status page
     serve      - run a campaign with the status-page serving layer enabled
     federation - run a sharded federation of testbeds (deterministic parallel DES) *)

open Cmdliner

let seed_arg =
  let doc = "Master PRNG seed; every run is deterministic for a given seed." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

(* ---- inventory ----------------------------------------------------------- *)

let inventory_cmd =
  let run () =
    print_string
      (Simkit.Table.render
         ~header:[ "cluster"; "site"; "vendor"; "nodes"; "cores/node"; "year"; "ib"; "gpu" ]
         (List.map
            (fun c ->
              [ c.Testbed.Inventory.cluster; c.Testbed.Inventory.site;
                Testbed.Hardware.vendor_to_string c.Testbed.Inventory.vendor;
                string_of_int c.Testbed.Inventory.nodes;
                string_of_int (c.Testbed.Inventory.cpus * c.Testbed.Inventory.cores_per_cpu);
                string_of_int c.Testbed.Inventory.year;
                (if c.Testbed.Inventory.has_ib then "yes" else "-");
                (if c.Testbed.Inventory.has_gpu then "yes" else "-") ])
            Testbed.Inventory.clusters));
    Printf.printf "total: %d sites, %d clusters, %d nodes, %d cores\n"
      (List.length Testbed.Inventory.sites)
      (List.length Testbed.Inventory.clusters)
      Testbed.Inventory.total_nodes Testbed.Inventory.total_cores
  in
  Cmd.v
    (Cmd.info "inventory" ~doc:"Print the simulated Grid'5000-2017 inventory")
    Term.(const run $ const ())

(* ---- coverage ------------------------------------------------------------- *)

let coverage_cmd =
  let run () =
    let rows =
      List.map
        (fun family ->
          let configs = Framework.Testdef.expand family in
          [ Framework.Testdef.family_to_string family;
            Framework.Testdef.category family;
            (match Framework.Testdef.need family with
             | Framework.Testdef.No_nodes -> "api only"
             | Framework.Testdef.One_node -> "1 node"
             | Framework.Testdef.Two_nodes -> "2 nodes"
             | Framework.Testdef.Site_spread -> "1 node/cluster of site"
             | Framework.Testdef.Whole_cluster -> "ALL nodes of cluster");
            string_of_int (List.length configs) ])
        Framework.Testdef.all_families
    in
    print_string
      (Simkit.Table.render ~header:[ "test"; "category"; "resources"; "configurations" ]
         rows);
    Printf.printf "total configurations: %d (paper: 751)\n"
      (Framework.Jobs.total_configurations ())
  in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Print the test catalog and its 751 configurations")
    Term.(const run $ const ())

(* ---- campaign -------------------------------------------------------------- *)

let months_arg =
  Arg.(value & opt int 6 & info [ "months" ] ~docv:"N" ~doc:"Campaign length in 30-day months.")

let no_testing_arg =
  Arg.(value & flag & info [ "no-testing" ] ~doc:"Ablation: run without the testing framework.")

let naive_arg =
  Arg.(value & flag & info [ "naive" ] ~doc:"Use the naive (time-based) scheduling policy.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")

let campaign_cmd =
  let run months seed no_testing naive json =
    let cfg =
      { Framework.Campaign.default_config with
        Framework.Campaign.months;
        seed;
        enable_testing = not no_testing;
        policy =
          (if naive then Framework.Scheduler.naive_policy
           else Framework.Scheduler.smart_policy);
      }
    in
    let report = Framework.Campaign.run cfg in
    if json then print_endline (Framework.Report.to_string report)
    else begin
    Format.printf "%a" Framework.Campaign.pp_report report;
    Format.printf "@.bugs by category:@.";
    List.iter
      (fun (category, filed, fixed) ->
        Format.printf "  %-15s filed %3d, fixed %3d@." category filed fixed)
      report.Framework.Campaign.bugs_by_category;
    match report.Framework.Campaign.scheduler_stats with
    | Some s ->
      Format.printf
        "@.scheduler: %d polls, %d triggered; skipped %d (peak) %d (site busy) %d (no resources)@."
        s.Framework.Scheduler.polls s.Framework.Scheduler.triggered
        s.Framework.Scheduler.skipped_peak s.Framework.Scheduler.skipped_site_busy
        s.Framework.Scheduler.skipped_no_resources
    | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run the closed-loop testing campaign")
    Term.(const run $ months_arg $ seed_arg $ no_testing_arg $ naive_arg $ json_arg)

(* ---- lint ------------------------------------------------------------------ *)

let lint_cmd =
  (* GitHub workflow-command annotations (--github).  The linted objects
     are OCaml values, not files, so the file/line mapping is best
     effort: catalog diagnostics point at the family's definition in
     testdef.ml, preset diagnostics at the preset table in lint.ml. *)
  let github_escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '%' -> Buffer.add_string buf "%25"
        | '\r' -> Buffer.add_string buf "%0D"
        | '\n' -> Buffer.add_string buf "%0A"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  let find_line file needle =
    let contains line =
      let nl = String.length needle and ll = String.length line in
      nl > 0
      && nl <= ll
      && (let found = ref false in
          for i = 0 to ll - nl do
            if (not !found) && String.sub line i nl = needle then found := true
          done;
          !found)
    in
    try
      let ic = open_in file in
      let rec go n =
        match input_line ic with
        | line ->
          if contains line then (
            close_in ic;
            Some n)
          else go (n + 1)
        | exception End_of_file ->
          close_in ic;
          None
      in
      go 1
    with Sys_error _ -> None
  in
  let locate ~source d =
    let quoted s = Printf.sprintf "%S" s in
    match source with
    | `Catalog ->
      let family =
        match String.index_opt d.Framework.Lint.path ':' with
        | Some i -> String.sub d.Framework.Lint.path 0 i
        | None -> d.Framework.Lint.path
      in
      let file = "lib/core/testdef.ml" in
      Option.map (fun line -> (file, line)) (find_line file (quoted family))
    | `Preset name ->
      let file = "lib/core/lint.ml" in
      Option.map (fun line -> (file, line)) (find_line file (quoted name))
  in
  let annotate ~source d =
    let kind =
      match d.Framework.Lint.severity with
      | Framework.Lint.Error -> "error"
      | Framework.Lint.Warning -> "warning"
      | Framework.Lint.Info -> "notice"
    in
    let where =
      match locate ~source d with
      | Some (file, line) -> Printf.sprintf "file=%s,line=%d," file line
      | None -> ""
    in
    Printf.printf "::%s %stitle=%s::%s\n" kind where d.Framework.Lint.code
      (github_escape
         (Printf.sprintf "%s: %s" d.Framework.Lint.path
            d.Framework.Lint.message))
  in
  let run json explain github =
    let catalog = Framework.Lint.sort (Framework.Lint.check_catalog ()) in
    let per_preset =
      List.map
        (fun (name, cfg) -> (name, Framework.Lint.run cfg))
        Framework.Lint.presets
      @ [ ( "federation",
            Framework.Lint.sort
              (Framework.Lint.check_federation ~path:"federation"
                 Framework.Federation.default_config) ) ]
    in
    let all = catalog @ List.concat_map snd per_preset in
    if json then
      print_endline
        (Simkit.Json.to_string ~indent:2
           (Simkit.Json.Obj
              [ ("catalog", Framework.Lint.to_json catalog);
                ( "presets",
                  Simkit.Json.Obj
                    (List.map
                       (fun (name, ds) -> (name, Framework.Lint.to_json ds))
                       per_preset) );
                ( "clean",
                  Simkit.Json.Bool (Framework.Lint.errors all = []) ) ]))
    else begin
      Printf.printf "== catalog (%d configurations) ==\n"
        (List.length (Framework.Testdef.catalog ()));
      print_string (Framework.Lint.render ~explain catalog);
      List.iter
        (fun (name, ds) ->
          Printf.printf "== preset %s ==\n" name;
          print_string (Framework.Lint.render ~explain ds))
        per_preset
    end;
    if github then begin
      List.iter (annotate ~source:`Catalog) catalog;
      List.iter
        (fun (name, ds) -> List.iter (annotate ~source:(`Preset name)) ds)
        per_preset
    end;
    if Framework.Lint.errors all <> [] then exit 1
  in
  let explain_arg =
    let doc =
      "Print the machine-applicable fix suggestion under each diagnostic \
       that carries one."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let github_arg =
    let doc =
      "Also emit GitHub Actions workflow-command annotations \
       (::error/::warning) so diagnostics surface inline on pull \
       requests; file/line attribution is best effort."
    in
    Arg.(value & flag & info [ "github" ] ~doc)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check the test catalog and example campaign \
          configurations; exit non-zero on any error-severity diagnostic")
    Term.(const run $ json_arg $ explain_arg $ github_arg)

(* ---- perfgate ---------------------------------------------------------------- *)

let perfgate_cmd =
  let run baseline_dir current_dir threshold =
    let outcome =
      Result.bind (Framework.Perfgate.load baseline_dir) (fun baseline ->
          Result.bind (Framework.Perfgate.load current_dir) (fun current ->
              Framework.Perfgate.check ~threshold_pct:threshold ~baseline ~current ()))
    in
    match outcome with
    | Error e ->
      Printf.eprintf "perfgate: %s\n" e;
      exit 2
    | Ok verdict ->
      List.iter print_endline verdict.Framework.Perfgate.lines;
      if not verdict.Framework.Perfgate.ok then exit 1
  in
  let dir_arg n docv doc = Arg.(required & pos n (some string) None & info [] ~docv ~doc) in
  let baseline_arg =
    dir_arg 0 "BASELINE_DIR"
      "Directory holding the checked-in baselines BENCH_campaign-default.json and \
       BENCH_campaign-attached.json."
  in
  let current_arg =
    dir_arg 1 "CURRENT_DIR"
      "Directory holding the same two documents from a fresh traced perfbench run."
  in
  let threshold_arg =
    let doc = "Allowed regression of every gating figure, in percent, in [0, 100)." in
    Arg.(value & opt float Framework.Perfgate.default_threshold_pct
         & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  Cmd.v
    (Cmd.info "perfgate"
       ~doc:
         "Compare traced perfbench runs of campaign-default and campaign-attached \
          against the checked-in baselines; exit 1 when a gating figure (a \
          layer's events or minor words per event, or the serve p99 staleness) \
          regresses beyond the threshold (default 5%) or `correct' reads false, \
          and exit 2 when a document or metric is missing")
    Term.(const run $ baseline_arg $ current_arg $ threshold_arg)

(* ---- hunt ------------------------------------------------------------------- *)

let hunt_cmd =
  let run seed days =
    let env = Framework.Env.create ~seed () in
    let faults = Framework.Env.faults env in
    let tracker = Framework.Bugtracker.create () in
    Framework.Jobs.define_all env ~on_evidence:(fun evidence ->
        ignore (Framework.Bugtracker.file tracker ~now:(Framework.Env.now env) evidence));
    let injected =
      List.filter_map
        (fun kind -> Testbed.Faults.inject faults ~now:0.0 kind)
        Testbed.Faults.all_kinds
    in
    Oar.Manager.refresh_properties env.Framework.Env.oar;
    let scheduler = Framework.Scheduler.create env in
    List.iter (Framework.Scheduler.enable_family scheduler) Framework.Testdef.all_families;
    Framework.Scheduler.start scheduler;
    Framework.Env.run_until env (float_of_int days *. Simkit.Calendar.day);
    let detected = List.filter (fun f -> f.Testbed.Faults.detected_at <> None) injected in
    Printf.printf "injected %d faults; %d detected within %d day(s)\n"
      (List.length injected) (List.length detected) days;
    List.iter
      (fun (f : Testbed.Faults.fault) ->
        Printf.printf "  %-8s %-22s %s\n"
          (if f.Testbed.Faults.detected_at <> None then "CAUGHT" else "missed")
          (Testbed.Faults.kind_to_string f.Testbed.Faults.kind)
          f.Testbed.Faults.what)
      injected;
    print_newline ();
    print_string (Framework.Bugreport.render_index env tracker)
  in
  let days_arg =
    Arg.(value & opt int 7 & info [ "days" ] ~docv:"N" ~doc:"Hunting duration in days.")
  in
  Cmd.v
    (Cmd.info "hunt" ~doc:"Inject one fault per class and report what the tests catch")
    Term.(const run $ seed_arg $ days_arg)

(* ---- bugs -------------------------------------------------------------------- *)

let bugs_cmd =
  let run seed days json =
    let env = Framework.Env.create ~seed () in
    let faults = Framework.Env.faults env in
    let config = Framework.Triage.default_config in
    let tracker =
      Framework.Bugtracker.create ~limits:config.Framework.Triage.limits ()
    in
    let alerts = Monitoring.Alerts.create env.Framework.Env.collector in
    let triage = Framework.Triage.create ~config ~alerts env tracker in
    Framework.Jobs.define_all env
      ~on_outcome:(fun ~build outcome ->
        Framework.Triage.observe triage ~build
          ~result:outcome.Framework.Scripts.result
          outcome.Framework.Scripts.evidences)
      ~on_evidence:(fun _ -> ());
    let injected =
      List.filter_map
        (fun kind -> Testbed.Faults.inject faults ~now:0.0 kind)
        Testbed.Faults.all_kinds
    in
    Oar.Manager.refresh_properties env.Framework.Env.oar;
    let scheduler = Framework.Scheduler.create env in
    List.iter (Framework.Scheduler.enable_family scheduler)
      Framework.Testdef.all_families;
    Framework.Scheduler.start scheduler;
    Framework.Env.run_until env (float_of_int days *. Simkit.Calendar.day);
    let summary = Framework.Triage.summary triage in
    if json then
      print_endline
        (Simkit.Json.to_string ~indent:2
           (Framework.Triage.summary_to_json summary))
    else begin
      Printf.printf
        "injected %d faults; triage pipeline over %d day(s) of testing\n\n"
        (List.length injected) days;
      print_string (Framework.Triage.render summary);
      print_newline ();
      print_string (Framework.Bugreport.render_index env tracker)
    end
  in
  let days_arg =
    Arg.(value & opt int 7 & info [ "days" ] ~docv:"N" ~doc:"Triage duration in days.")
  in
  Cmd.v
    (Cmd.info "bugs"
       ~doc:
         "Run the failure-signature triage pipeline against one fault per \
          class and print the clustered bug index")
    Term.(const run $ seed_arg $ days_arg $ json_arg)

(* ---- status ------------------------------------------------------------------ *)

let status_cmd =
  let run seed html =
    let report =
      Framework.Campaign.run
        { Framework.Campaign.default_config with Framework.Campaign.months = 1; seed }
    in
    match html with
    | Some path ->
      let oc = open_out path in
      output_string oc report.Framework.Campaign.statuspage_html;
      close_out oc;
      Printf.printf "status page written to %s\n" path
    | None -> print_string report.Framework.Campaign.statuspage
  in
  let html_arg =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE" ~doc:"Write the page as HTML to $(docv).")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Run a one-month campaign and print the status page")
    Term.(const run $ seed_arg $ html_arg)

(* ---- serve ------------------------------------------------------------------- *)

let serve_cmd =
  let run seed months crash json =
    let cfg =
      { Framework.Campaign.default_config with
        Framework.Campaign.months;
        seed;
        serve = Some Framework.Serve.default_config;
        infra_faults =
          (if crash then
             [ (float_of_int months /. 2.0 *. 30.0 *. Simkit.Calendar.day,
                Testbed.Faults.Serve_crash) ]
           else []);
      }
    in
    let report = Framework.Campaign.run cfg in
    match report.Framework.Campaign.serve with
    | None -> prerr_endline "serve: campaign produced no serving summary"; exit 2
    | Some s ->
      if json then
        print_endline
          (Simkit.Json.to_string ~indent:2 (Framework.Serve.summary_to_json s))
      else begin
        print_string (Framework.Serve.render s);
        Printf.printf
          "\nconservation: %s (every read is fresh, not-modified, stale, \
           fallback or shed)\n"
          (if s.Framework.Serve.reads
              = s.Framework.Serve.fresh + s.Framework.Serve.not_modified
                + s.Framework.Serve.stale + s.Framework.Serve.fallback
                + s.Framework.Serve.shed
           then "OK" else "VIOLATED")
      end
  in
  let crash_arg =
    Arg.(value & flag
         & info [ "crash" ]
             ~doc:"Inject a Serve_crash mid-campaign to exercise the \
                   journal-replay recovery drill.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a campaign with the status-page serving layer enabled and \
          print the serving summary (snapshot cache, load shedding, \
          degraded reads, crash recovery)")
    Term.(const run $ seed_arg $ months_arg $ crash_arg $ json_arg)

(* ---- federation ---------------------------------------------------------------- *)

let federation_cmd =
  let run seed testbeds shards months lookahead_h driver json full =
    let driver =
      match driver with
      | "sequential" -> Framework.Federation.Sequential
      | "parallel" -> Framework.Federation.Parallel
      | "reference" -> Framework.Federation.Reference
      | "interleaved" -> Framework.Federation.Interleaved seed
      | other ->
        Printf.eprintf
          "federation: unknown driver %S (sequential|parallel|reference|interleaved)\n"
          other;
        exit 2
    in
    let cfg =
      { Framework.Federation.default_config with
        Framework.Federation.testbeds;
        shards;
        seed;
        lookahead = lookahead_h *. Simkit.Calendar.hour;
        base =
          { Framework.Federation.default_config.Framework.Federation.base with
            Framework.Campaign.months };
        driver;
      }
    in
    let diags = Framework.Lint.check_federation ~path:"federation" cfg in
    (match Framework.Lint.errors diags with
     | [] -> ()
     | _ ->
       prerr_string (Framework.Lint.render (Framework.Lint.sort diags));
       exit 1);
    let report = Framework.Federation.run cfg in
    if json then
      print_endline
        (Simkit.Json.to_string ~indent:2
           (Framework.Federation.report_to_json ~full report))
    else print_string (Framework.Federation.render report)
  in
  let testbeds_arg =
    Arg.(value & opt int 10
         & info [ "testbeds" ] ~docv:"N" ~doc:"Federation size (member testbeds).")
  in
  let shards_arg =
    Arg.(value & opt int 4
         & info [ "shards" ] ~docv:"K" ~doc:"Shard count; member i belongs to shard i mod K.")
  in
  let fed_months_arg =
    Arg.(value & opt int 2
         & info [ "months" ] ~docv:"N" ~doc:"Member campaign length in 30-day months.")
  in
  let lookahead_arg =
    Arg.(value & opt float 6.0
         & info [ "lookahead" ] ~docv:"HOURS"
             ~doc:"Synchronization window between barriers, in simulated hours.")
  in
  let driver_arg =
    Arg.(value & opt string "sequential"
         & info [ "driver" ] ~docv:"NAME"
             ~doc:"Execution driver: sequential, parallel (one domain per \
                   shard), reference (unsharded global event loop), or \
                   interleaved (shuffled shard service order).")
  in
  let full_arg =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"With --json, embed every member's complete campaign \
                   report (the serialization the differential harness \
                   compares byte for byte).")
  in
  Cmd.v
    (Cmd.info "federation"
       ~doc:
         "Run a sharded federation of simulated testbeds to the campaign \
          horizon and print the aggregate report; results are \
          byte-identical for any shard count and driver")
    Term.(const run $ seed_arg $ testbeds_arg $ shards_arg $ fed_months_arg
          $ lookahead_arg $ driver_arg $ json_arg $ full_arg)

(* ---- pernode ------------------------------------------------------------------ *)

let pernode_cmd =
  let run seed cluster days =
    let env = Framework.Env.create ~seed ~executors:6 () in
    let engine = Framework.Env.engine env in
    let rng = Simkit.Prng.split (Simkit.Engine.rng engine) in
    ignore (Oar.Workload.start ~rng env.Framework.Env.oar);
    let whole =
      Framework.Pernode.create env ~strategy:Framework.Pernode.Whole_cluster ~cluster
    in
    let per_node =
      Framework.Pernode.create env ~strategy:Framework.Pernode.Per_node ~cluster
    in
    Framework.Pernode.start whole ~period:600.0;
    Framework.Pernode.start per_node ~period:600.0;
    Simkit.Engine.run_until engine (float_of_int days *. Simkit.Calendar.day);
    let show name tracker =
      Printf.printf "%-14s first coverage: %s; sweeps completed: %d\n" name
        (match Framework.Pernode.time_to_coverage tracker with
         | Some d -> Printf.sprintf "%.2f days" (d /. Simkit.Calendar.day)
         | None -> "never")
        (List.length (Framework.Pernode.completed_sweeps tracker))
    in
    show "whole-cluster" whole;
    show "per-node" per_node
  in
  let cluster_arg =
    Arg.(value & opt string "genepi" & info [ "cluster" ] ~docv:"NAME" ~doc:"Target cluster.")
  in
  let days_arg =
    Arg.(value & opt int 14 & info [ "days" ] ~docv:"N" ~doc:"Observation window in days.")
  in
  Cmd.v
    (Cmd.info "pernode"
       ~doc:"Compare whole-cluster vs per-node scheduling of hardware tests")
    Term.(const run $ seed_arg $ cluster_arg $ days_arg)

(* ---- regression ----------------------------------------------------------------- *)

let regression_cmd =
  let run seed =
    let env = Framework.Env.create ~seed () in
    let tracker = Framework.Bugtracker.create () in
    Framework.Regression.define_jobs env ~on_evidence:(fun evidence ->
        ignore (Framework.Bugtracker.file tracker ~now:(Framework.Env.now env) evidence));
    List.iter
      (fun experiment ->
        ignore
          (Ci.Server.trigger env.Framework.Env.ci
             ("regression_" ^ Framework.Regression.name experiment)))
      Framework.Regression.all;
    Framework.Env.run_until env (12.0 *. Simkit.Calendar.hour);
    List.iter
      (fun experiment ->
        let job = "regression_" ^ Framework.Regression.name experiment in
        Printf.printf "  %-28s %s\n" job
          (match Ci.Server.last_completed env.Framework.Env.ci job with
           | Some { Ci.Build.result = Some r; _ } -> Ci.Build.result_to_string r
           | _ -> "(did not run)"))
      Framework.Regression.all;
    print_string (Ci.Weather.render env.Framework.Env.ci)
  in
  Cmd.v
    (Cmd.info "regression" ~doc:"Run the user-experiment regression tests once")
    Term.(const run $ seed_arg)

let main =
  Cmd.group
    (Cmd.info "g5ktest" ~version:"1.0.0"
       ~doc:"Testbed testing framework on a simulated Grid'5000")
    [ inventory_cmd; coverage_cmd; campaign_cmd; lint_cmd; perfgate_cmd;
      hunt_cmd; bugs_cmd; status_cmd; serve_cmd; federation_cmd; pernode_cmd;
      regression_cmd ]

let () = exit (Cmd.eval main)
