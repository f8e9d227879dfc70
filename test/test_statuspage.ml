(* Focused tests for the status page views and the campaign's regression
   integration. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i = i + n <= m && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let mk () =
  let env = Framework.Env.create ~seed:6001L () in
  let page = Framework.Statuspage.create env in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  (env, page)

let run_build env family axes =
  ignore
    (Ci.Server.trigger_subset env.Framework.Env.ci (Framework.Jobs.job_name family)
       ~axes:[ axes ]);
  Framework.Env.run_until env (Framework.Env.now env +. (4.0 *. Simkit.Calendar.hour))

(* ---- cell semantics --------------------------------------------------------- *)

let test_cells_default_missing () =
  let _, page = mk () in
  List.iter
    (fun family ->
      checkb "missing before any run" true
        (Framework.Statuspage.latest page ~family ~scope:"graphene"
         = Framework.Statuspage.Missing))
    Framework.Testdef.all_families

let test_latest_overwrites () =
  let env, page = mk () in
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Cpu_turbo (Testbed.Faults.Host "nyx-1.luxembourg"));
  run_build env Framework.Testdef.Refapi [ ("cluster", "nyx") ];
  checkb "red after the failing run" true
    (Framework.Statuspage.latest page ~family:Framework.Testdef.Refapi ~scope:"nyx"
     = Framework.Statuspage.Ko);
  (* Fix and re-run: the cell turns green — the paper's test-driven
     operations loop at the page level. *)
  let fault = List.hd (Testbed.Faults.history (Framework.Env.faults env)) in
  Testbed.Faults.repair (Framework.Env.faults env) ~now:(Framework.Env.now env) fault;
  run_build env Framework.Testdef.Refapi [ ("cluster", "nyx") ];
  checkb "green after repair" true
    (Framework.Statuspage.latest page ~family:Framework.Testdef.Refapi ~scope:"nyx"
     = Framework.Statuspage.Ok_)

let test_site_rollup_worst_of () =
  let env, page = mk () in
  (* Two luxembourg clusters: one green, one red -> site cell red. *)
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Cpu_turbo (Testbed.Faults.Host "granduc-1.luxembourg"));
  run_build env Framework.Testdef.Refapi [ ("cluster", "nyx") ];
  run_build env Framework.Testdef.Refapi [ ("cluster", "granduc") ];
  checkb "nyx green" true
    (Framework.Statuspage.latest page ~family:Framework.Testdef.Refapi ~scope:"nyx"
     = Framework.Statuspage.Ok_);
  checkb "site shows the worst cluster" true
    (Framework.Statuspage.site_status page ~family:Framework.Testdef.Refapi
       ~site:"luxembourg"
     = Framework.Statuspage.Ko)

let test_summary_rows_accumulate () =
  let env, page = mk () in
  run_build env Framework.Testdef.Oarstate [ ("site", "lyon") ];
  run_build env Framework.Testdef.Oarstate [ ("site", "nancy") ];
  match
    List.find_opt (fun (name, _, _, _, _) -> name = "oarstate")
      (Framework.Statuspage.summary_rows page)
  with
  | Some (_, ok, ko, unstable, ratio) ->
    checki "two ok" 2 ok;
    checki "no ko" 0 ko;
    checki "no unstable" 0 unstable;
    Alcotest.(check (float 1e-9)) "ratio" 1.0 ratio
  | None -> Alcotest.fail "oarstate row missing"

let test_per_cluster_matrix_renders () =
  let env, page = mk () in
  run_build env Framework.Testdef.Refapi [ ("cluster", "grisou") ];
  let matrix = Framework.Statuspage.per_cluster_matrix page ~site:"nancy" in
  checkb "mentions grisou" true (contains matrix "grisou");
  checkb "mentions refapi" true (contains matrix "refapi");
  (* Site-scoped families (oarstate, cmdline...) are excluded from the
     per-cluster view. *)
  checkb "no oarstate row" false (contains matrix "oarstate")

let test_overview_includes_weather () =
  let env, page = mk () in
  run_build env Framework.Testdef.Sidapi [ ("site", "rennes") ];
  let overview = Framework.Statuspage.render_overview page in
  checkb "weather section" true (contains overview "weather");
  checkb "history section" true (contains overview "History")

(* ---- empty-page placeholders ------------------------------------------------ *)

let test_empty_page_no_nan () =
  let _, page = mk () in
  Alcotest.(check string) "nan ratio renders as the Missing placeholder" "--"
    (Framework.Statuspage.fmt_ratio nan);
  let overview = Framework.Statuspage.render_overview page in
  (* "nan" alone would match the site name nancy; the float artifact the
     placeholder replaces renders as "nan%". *)
  checkb "empty page never leaks a nan ratio" false (contains overview "nan%");
  checkb "overall ratio shows the placeholder" true (contains overview "--")

(* ---- monthly series order determinism ---------------------------------------- *)

let mk_build ~number ~finished_at result =
  { Ci.Build.job_name = Framework.Jobs.job_name Framework.Testdef.Refapi;
    number;
    axes = [ ("cluster", "graphene") ];
    cause = "test";
    retry_of = None;
    queued_at = finished_at;
    started_at = Some finished_at;
    finished_at = Some finished_at;
    result = Some result;
    log = [];
    artifacts = [];
    touched_hosts = [];
  }

let prop_monthly_success_order_independent =
  QCheck.Test.make ~count:100
    ~name:"monthly_success is sorted and insertion-order independent"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_bound 11))
    (fun months ->
      let feed order =
        let env = Framework.Env.create ~seed:6010L () in
        let page = Framework.Statuspage.create env in
        List.iteri
          (fun i month ->
            Framework.Statuspage.apply page
              (mk_build ~number:(i + 1)
                 ~finished_at:
                   ((float_of_int month +. 0.5) *. Simkit.Calendar.month)
                 (if month mod 3 = 0 then Ci.Build.Failure else Ci.Build.Success)))
          order;
        Framework.Statuspage.monthly_success page
      in
      let shuffled = feed months
      and sorted = feed (List.sort Int.compare months) in
      let ascending rows =
        let ms = List.map (fun (m, _, _, _) -> m) rows in
        List.sort Int.compare ms = ms
      in
      ascending shuffled && shuffled = sorted)

(* ---- (family, site) index vs the flat-table oracle ---------------------------- *)

let all_configs =
  Array.of_list (List.concat_map Framework.Testdef.expand Framework.Testdef.all_families)

let results =
  [| Ci.Build.Success; Ci.Build.Unstable; Ci.Build.Failure; Ci.Build.Aborted;
     Ci.Build.Not_built |]

let config_build ~number config result =
  { (mk_build ~number ~finished_at:(float_of_int number *. 600.0) result) with
    Ci.Build.job_name = Framework.Jobs.job_name config.Framework.Testdef.family;
    axes = Framework.Testdef.axes_of_config config;
  }

(* The pre-index definition of [site_status]: one flat (family, site,
   scope) table of latest cells, scanned whole for every matrix cell. *)
let oracle_site_status builds ~family ~site =
  let rank = function
    | Framework.Statuspage.Missing -> 0
    | Framework.Statuspage.Ok_ -> 1
    | Framework.Statuspage.Unst -> 2
    | Framework.Statuspage.Ko -> 3
  in
  let worse a b = if rank a >= rank b then a else b in
  let cell_of_result = function
    | Ci.Build.Success -> Framework.Statuspage.Ok_
    | Ci.Build.Unstable -> Framework.Statuspage.Unst
    | Ci.Build.Failure | Ci.Build.Aborted | Ci.Build.Not_built ->
      Framework.Statuspage.Ko
  in
  let scope config =
    match config.Framework.Testdef.cluster, config.Framework.Testdef.vlan with
    | Some cluster, _ -> cluster
    | None, Some vlan -> string_of_int vlan
    | None, None -> Option.value ~default:"global" config.Framework.Testdef.site
  in
  let flat = Hashtbl.create 64 in
  List.iter
    (fun build ->
      match
        (Framework.Jobs.config_of_build build, build.Ci.Build.result)
      with
      | Some ({ Framework.Testdef.site = Some s; _ } as config), Some result ->
        Hashtbl.replace flat
          (Framework.Testdef.family_to_string config.Framework.Testdef.family, s,
           scope config)
          (cell_of_result result)
      | _ -> ())
    builds;
  let name = Framework.Testdef.family_to_string family in
  Hashtbl.fold
    (fun (f, s, _) cell acc ->
      if String.equal f name && String.equal s site then worse acc cell else acc)
    flat Framework.Statuspage.Missing

(* Each step completes one random configuration, or (first component 0)
   wipes the page and replays the journal, as the serving layer's crash
   recovery does. *)
let prop_site_status_matches_flat_oracle =
  QCheck.Test.make ~count:200
    ~name:"site_status over the (family, site) index equals the flat-table fold"
    QCheck.(
      list_of_size (Gen.int_range 1 80)
        (triple (int_bound 15)
           (int_bound (Array.length all_configs - 1))
           (int_bound (Array.length results - 1))))
    (fun steps ->
      let env = Framework.Env.create ~seed:6020L () in
      let page = Framework.Statuspage.create env in
      let journal =
        List.fold_left
          (fun (journal, number) (op, config, result) ->
            if op = 0 then begin
              Framework.Statuspage.reset page;
              List.iter (Framework.Statuspage.apply page) (List.rev journal);
              (journal, number)
            end
            else
              let build =
                config_build ~number all_configs.(config) results.(result)
              in
              Framework.Statuspage.apply page build;
              (build :: journal, number + 1))
          ([], 1) steps
        |> fst |> List.rev
      in
      List.for_all
        (fun family ->
          List.for_all
            (fun site ->
              Framework.Statuspage.site_status page ~family ~site
              = oracle_site_status journal ~family ~site)
            Testbed.Inventory.sites)
        Framework.Testdef.all_families)

(* The pre-index definition of [Confidence.cluster_score]: scan every
   cluster-keyed family's expansion for the cluster on each call. *)
let oracle_cluster_score page ~cluster =
  let cluster_families =
    List.filter
      (fun family ->
        List.exists
          (fun c -> c.Framework.Testdef.cluster <> None)
          (Framework.Testdef.expand family))
      Framework.Testdef.all_families
  in
  let total_weight, score =
    List.fold_left
      (fun (weight_acc, score_acc) family ->
        let applicable =
          List.exists
            (fun c -> c.Framework.Testdef.cluster = Some cluster)
            (Framework.Testdef.expand family)
        in
        let value =
          match Framework.Statuspage.latest page ~family ~scope:cluster with
          | Framework.Statuspage.Ok_ -> Some 1.0
          | Framework.Statuspage.Unst -> Some 0.5
          | Framework.Statuspage.Ko -> Some 0.0
          | Framework.Statuspage.Missing -> None
        in
        match value with
        | Some v when applicable ->
          let w = Framework.Confidence.family_weight family in
          (weight_acc +. w, score_acc +. (w *. v))
        | _ -> (weight_acc, score_acc))
      (0.0, 0.0) cluster_families
  in
  if total_weight = 0.0 then None else Some (score /. total_weight)

let test_cluster_score_matches_oracle () =
  let env = Framework.Env.create ~seed:6021L () in
  let page = Framework.Statuspage.create env in
  (* Every configuration but one in seven, cycling through the results,
     so clusters mix OK, unstable, KO and missing families. *)
  Array.iteri
    (fun i config ->
      if i mod 7 <> 3 then
        Framework.Statuspage.apply page
          (config_build ~number:(i + 1) config results.(i mod Array.length results)))
    all_configs;
  List.iter
    (fun spec ->
      let cluster = spec.Testbed.Inventory.cluster in
      Alcotest.(check (option (float 0.0)))
        (cluster ^ " score is bit-identical")
        (oracle_cluster_score page ~cluster)
        (Framework.Confidence.cluster_score page ~cluster))
    Testbed.Inventory.clusters

(* ---- sectioned rendering vs a fresh render ------------------------------------ *)

(* Everything the cell sections of the page (matrix, confidence) read. *)
let cell_views page =
  ( List.map
      (fun family ->
        List.map
          (fun site -> Framework.Statuspage.site_status page ~family ~site)
          Testbed.Inventory.sites)
      Framework.Testdef.all_families,
    Framework.Confidence.ranking page )

(* Each test draws a small pool of configurations, so completions keep
   landing on scopes that already have a cell and flip their value.  A
   step completes one pool configuration (a day apart, so the history
   spans months), or (first component 0) wipes the page and replays the
   journal as the serving layer's crash recovery does, checking the
   wiped page before the replay too. *)
let prop_renderer_matches_fresh_render =
  QCheck.Test.make ~count:100
    ~name:"a long-lived renderer equals a fresh render; cell views move only with cells_generation"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 6) (int_bound (Array.length all_configs - 1)))
        (list_of_size (Gen.int_range 1 60)
           (triple (int_bound 9) small_nat (int_bound (Array.length results - 1)))))
    (fun (pool, steps) ->
      let pool = Array.of_list pool in
      let env = Framework.Env.create ~seed:6030L () in
      let page = Framework.Statuspage.create env in
      let renderer = Framework.Webstatus.create page in
      let seen = ref (Framework.Statuspage.cells_generation page, cell_views page) in
      let check () =
        let gen = Framework.Statuspage.cells_generation page
        and views = cell_views page in
        let before_gen, before_views = !seen in
        seen := (gen, views);
        String.equal (Framework.Webstatus.refresh renderer)
          (Framework.Webstatus.render page)
        && (gen <> before_gen || views = before_views)
      in
      let rec go journal number = function
        | [] -> true
        | (0, _, _) :: rest ->
          Framework.Statuspage.reset page;
          check ()
          && begin
            List.iter (Framework.Statuspage.apply page) (List.rev journal);
            check ()
          end
          && go journal number rest
        | (_, config, result) :: rest ->
          let build =
            { (config_build ~number
                 all_configs.(pool.(config mod Array.length pool))
                 results.(result))
              with
              Ci.Build.finished_at = Some (float_of_int number *. Simkit.Calendar.day) }
          in
          Framework.Statuspage.apply page build;
          check () && go (build :: journal) (number + 1) rest
      in
      check () && go [] 1 steps)

(* ---- pinned page bytes --------------------------------------------------------- *)

(* [Report.to_json] does not carry the page, so pin its bytes here: the
   one-month default campaign is the page `g5ktest status` prints. *)
let test_status_page_pinned () =
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with Framework.Campaign.months = 1 }
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "statuspage_html" "6b4bf482c57ea6e03ab08582e7c29562"
    (md5 report.Framework.Campaign.statuspage_html);
  Alcotest.(check string) "statuspage" "5af4a130b129365b3f1b73f8ea76b073"
    (md5 report.Framework.Campaign.statuspage)

(* Every opt-in subsystem attached (the perfbench [attached_config] at
   seed offset 0), so each one's JSON member, page section and summary
   line is rendered and pinned; the default pin above renders none. *)
let test_attached_sections_pinned () =
  let day = Simkit.Calendar.day and hour = Simkit.Calendar.hour in
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with
        Framework.Campaign.months = 1;
        resilience = true;
        infra_faults =
          [ (5.0 *. day, Testbed.Faults.Ci_outage);
            (12.0 *. day, Testbed.Faults.Serve_crash);
            (15.0 *. day, Testbed.Faults.Build_hang);
            (24.0 *. day, Testbed.Faults.Queue_loss) ];
        infra_fault_duration = 6.0 *. hour;
        health = Some Framework.Health.default_config;
        health_faults =
          [ (10.0 *. day, Testbed.Faults.Site_outage, Testbed.Faults.Site "nancy");
            ( 20.0 *. day,
              Testbed.Faults.Pdu_failure,
              Testbed.Faults.Cluster "graphene" ) ];
        triage = Some Framework.Triage.default_config;
        serve = Some Framework.Serve.default_config;
        audit = true;
      }
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "Report.to_json" "73c96cd98f7ab708a38cb020d8f78379"
    (md5 (Simkit.Json.to_string (Framework.Report.to_json report)));
  Alcotest.(check string) "statuspage" "59c34a8fb1b663e47bff8fcd8f1eaa33"
    (md5 report.Framework.Campaign.statuspage);
  Alcotest.(check string) "statuspage_html" "8eb29ae16083ac4a85884e6115a17472"
    (md5 report.Framework.Campaign.statuspage_html);
  Alcotest.(check string) "pp_report" "0e7c04a0c0815c2b20f1939893276699"
    (md5 (Format.asprintf "%a" Framework.Campaign.pp_report report))

(* ---- campaign regression integration -------------------------------------------- *)

let test_campaign_with_regression_jobs () =
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with
        Framework.Campaign.months = 1;
        seed = 6002L;
        workload = None;
        enable_regression = true;
      }
  in
  (* Nightly regression builds add to the total (4 jobs x ~30 nights),
     beyond what the catalog scheduler triggers. *)
  checkb "campaign ran" true (report.Framework.Campaign.builds_total > 0);
  let without =
    Framework.Campaign.run
      { Framework.Campaign.default_config with
        Framework.Campaign.months = 1;
        seed = 6002L;
        workload = None;
        enable_regression = false;
      }
  in
  checkb "regression adds ~120 nightly builds" true
    (report.Framework.Campaign.builds_total
     - without.Framework.Campaign.builds_total
     >= 100)

let () =
  Alcotest.run "statuspage"
    [
      ( "cells",
        [ Alcotest.test_case "default missing" `Quick test_cells_default_missing;
          Alcotest.test_case "latest overwrites" `Quick test_latest_overwrites;
          Alcotest.test_case "site rollup" `Quick test_site_rollup_worst_of;
          Alcotest.test_case "summary rows" `Quick test_summary_rows_accumulate;
          Alcotest.test_case "per-cluster matrix" `Quick test_per_cluster_matrix_renders;
          Alcotest.test_case "overview sections" `Quick test_overview_includes_weather ] );
      ( "placeholders",
        [ Alcotest.test_case "empty page shows -- not nan" `Quick
            test_empty_page_no_nan;
          Qc.to_alcotest prop_monthly_success_order_independent ] );
      ( "index",
        [ Qc.to_alcotest prop_site_status_matches_flat_oracle;
          Alcotest.test_case "cluster score matches the expand scan" `Quick
            test_cluster_score_matches_oracle;
          Qc.to_alcotest prop_renderer_matches_fresh_render ] );
      ( "campaign",
        [ Alcotest.test_case "regression jobs nightly" `Slow
            test_campaign_with_regression_jobs;
          Alcotest.test_case "status page bytes pinned" `Slow test_status_page_pinned;
          Alcotest.test_case "attached sections pinned" `Slow
            test_attached_sections_pinned ] );
    ]
