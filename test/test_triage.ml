(* Tests for the failure-signature triage pipeline: canonicalization,
   the bounded-memory bug store (rings, eviction, tombstones,
   resurrection), the robustness loop (MTTR, flap escalation), the
   triage-path fault drills, and the campaign/lint/report surface. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

let qc = Qc.to_alcotest
let day = Simkit.Calendar.day
let hour = Simkit.Calendar.hour

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i = i + n <= m && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let evidence ?(category = "disk") ?(fault_ids = []) signature =
  { Framework.Bugtracker.signature;
    summary = "synthetic: " ^ signature;
    category;
    source_test = "test_triage";
    fault_ids }

(* ---- canonicalization -------------------------------------------------------- *)

let canon env signature =
  Framework.Triage.canonical_signature
    (Framework.Triage.canonicalize env (evidence signature))

let test_canonicalization_clusters_hosts () =
  let env = Framework.Env.create ~seed:1L () in
  let a = canon env "disk:grisou-1.nancy:cache" in
  let b = canon env "disk:grisou-42.nancy:cache" in
  checks "same cluster, same key" a b;
  checks "host folded to cluster" "disk|disk:cache|cluster/grisou" a;
  let c = canon env "disk:graphene-1.nancy:cache" in
  checkb "different cluster, different key" false (String.equal a c);
  checks "site token becomes site scope" "disk|oarstate:service|site/nancy"
    (canon env "oarstate:nancy:service");
  checks "cluster token becomes cluster scope" "disk|ofed|cluster/grisou"
    (canon env "ofed:grisou");
  checks "image token becomes image scope"
    "disk|env:postinstall|image/debian8-x64-std"
    (canon env "env:debian8-x64-std:postinstall");
  checks "no location token stays global" "disk|regression:mpi|global"
    (canon env "regression:mpi");
  checks "unknown host stays host scope" "disk|disk|host/ghost-1.atlantis"
    (canon env "disk:ghost-1.atlantis")

(* ---- bounded store: rings, last_seen, events ---------------------------------- *)

(* The per-category table includes tombstoned bugs, so its totals are an
   oracle for the O(1) [counts]. *)
let category_totals t =
  List.fold_left
    (fun (filed, fixed) (_, f, x) -> (filed + f, fixed + x))
    (0, 0)
    (Framework.Bugtracker.by_category t)

let small_limits =
  { Framework.Bugtracker.ring_size = 2; max_live = 2; min_idle = 0.0;
    series_cadence = 1.0; series_points = 4 }

let test_last_seen_refreshed () =
  let t = Framework.Bugtracker.create () in
  let bug =
    match Framework.Bugtracker.file t ~now:0.0 (evidence "a") with
    | `New bug -> bug
    | `Duplicate _ -> Alcotest.fail "expected a new bug"
  in
  checkf "filed_at" 0.0 bug.Framework.Bugtracker.filed_at;
  checkf "last_seen at filing" 0.0 bug.Framework.Bugtracker.last_seen;
  (match Framework.Bugtracker.file t ~now:(2.0 *. day) (evidence "a") with
   | `Duplicate b ->
     checkf "last_seen refreshed" (2.0 *. day) b.Framework.Bugtracker.last_seen;
     checki "occurrences" 2 b.Framework.Bugtracker.occurrences
   | `New _ -> Alcotest.fail "expected a duplicate");
  checkb "unbounded ring stays empty" true (bug.Framework.Bugtracker.recent = [])

let test_evidence_ring_bounded () =
  let t = Framework.Bugtracker.create ~limits:small_limits () in
  for i = 1 to 5 do
    ignore (Framework.Bugtracker.file t ~now:(float_of_int i) (evidence "a"))
  done;
  let bug = Option.get (Framework.Bugtracker.find t ~signature:"a") in
  checki "ring bounded to 2" 2 (List.length bug.Framework.Bugtracker.recent);
  checki "occurrences keep full count" 5 bug.Framework.Bugtracker.occurrences;
  let series = Option.get bug.Framework.Bugtracker.series in
  checkb "series recorded" true (Simkit.Timeseries.length series > 0)

let test_event_order_reopen_before_refile () =
  let t = Framework.Bugtracker.create () in
  let events = ref [] in
  Framework.Bugtracker.on_event t (fun e -> events := e :: !events);
  let bug =
    match Framework.Bugtracker.file t ~now:0.0 (evidence "a") with
    | `New bug -> bug
    | `Duplicate _ -> Alcotest.fail "new expected"
  in
  Framework.Bugtracker.mark_fixed t ~now:1.0 bug;
  ignore (Framework.Bugtracker.file t ~now:2.0 (evidence "a"));
  (match !events with
   | Framework.Bugtracker.Refiled _ :: Framework.Bugtracker.Reopened _ :: _ -> ()
   | _ -> Alcotest.fail "expected Reopened then Refiled (newest first)");
  checki "reopen counted" 1 bug.Framework.Bugtracker.reopens;
  checkb "bug open again" true (bug.Framework.Bugtracker.status = Framework.Bugtracker.Open)

let test_eviction_tombstones_and_resurrection () =
  let t = Framework.Bugtracker.create ~limits:small_limits () in
  ignore (Framework.Bugtracker.file t ~now:0.0 (evidence "a"));
  ignore (Framework.Bugtracker.file t ~now:1.0 (evidence "b"));
  ignore (Framework.Bugtracker.file t ~now:2.0 (evidence "c"));
  let stats = Framework.Bugtracker.stats t in
  checkb "live within cap" true
    (stats.Framework.Bugtracker.live <= small_limits.Framework.Bugtracker.max_live);
  checkb "peak within cap" true
    (stats.Framework.Bugtracker.peak_live
    <= small_limits.Framework.Bugtracker.max_live);
  checkb "something evicted" true (stats.Framework.Bugtracker.evicted > 0);
  checki "distinct filings survive eviction" 3
    stats.Framework.Bugtracker.filed_total;
  checkb "tombstones retrievable" true (Framework.Bugtracker.tombstoned t <> []);
  (* The coldest signature was evicted; re-reporting it resurrects the
     tombstone as a duplicate with its occurrence count intact. *)
  checkb "a evicted from live store" true
    (Framework.Bugtracker.find t ~signature:"a" = None);
  checki "tombstone keeps occurrences" 1
    (Framework.Bugtracker.occurrences_of t ~signature:"a");
  (match Framework.Bugtracker.file t ~now:3.0 (evidence "a") with
   | `Duplicate bug ->
     checki "occurrences carried over" 2 bug.Framework.Bugtracker.occurrences
   | `New _ -> Alcotest.fail "resurrection must report Duplicate");
  checki "resurrection counted" 1
    (Framework.Bugtracker.stats t).Framework.Bugtracker.resurrected;
  let filed, fixed = Framework.Bugtracker.counts t in
  let filed', fixed' = category_totals t in
  checki "counts filed = oracle" filed' filed;
  checki "counts fixed = oracle" fixed' fixed

(* ---- qcheck properties -------------------------------------------------------- *)

let sig_of i = Printf.sprintf "sig-%d" i

let prop_dedup_idempotent =
  QCheck.Test.make ~count:200 ~name:"filing is dedup-idempotent"
    QCheck.(list (int_bound 9))
    (fun sigs ->
      let t = Framework.Bugtracker.create () in
      let news =
        List.fold_left
          (fun acc i ->
            match Framework.Bugtracker.file t ~now:0.0 (evidence (sig_of i)) with
            | `New _ -> acc + 1
            | `Duplicate _ -> acc)
          0 sigs
      in
      let distinct = List.length (List.sort_uniq compare sigs) in
      let filed, _ = Framework.Bugtracker.counts t in
      news = distinct && filed = distinct)

let prop_fault_ids_merge_monotone =
  QCheck.Test.make ~count:200
    ~name:"reopen merges fault ids monotonically (sorted, deduplicated)"
    QCheck.(pair (list (int_bound 50)) (list (int_bound 50)))
    (fun (ids1, ids2) ->
      let t = Framework.Bugtracker.create () in
      let bug =
        match
          Framework.Bugtracker.file t ~now:0.0 (evidence ~fault_ids:ids1 "a")
        with
        | `New bug -> bug
        | `Duplicate _ -> assert false
      in
      Framework.Bugtracker.mark_fixed t ~now:1.0 bug;
      ignore (Framework.Bugtracker.file t ~now:2.0 (evidence ~fault_ids:ids2 "a"));
      bug.Framework.Bugtracker.fault_ids
      = List.sort_uniq compare (ids1 @ ids2)
      && bug.Framework.Bugtracker.status = Framework.Bugtracker.Open
      && bug.Framework.Bugtracker.reopens = 1)

(* Bounded store vs the unbounded reference: eviction may never lose an
   occurrence, and the O(1) counters must match the per-category totals. *)
let prop_eviction_conserves_occurrences =
  QCheck.Test.make ~count:100
    ~name:"eviction conserves occurrence counts (tombstones = reference)"
    QCheck.(list (pair (int_bound 29) bool))
    (fun ops ->
      let limits =
        { Framework.Bugtracker.ring_size = 2; max_live = 8; min_idle = 0.0;
          series_cadence = 1.0; series_points = 2 }
      in
      let bounded = Framework.Bugtracker.create ~limits () in
      let unbounded = Framework.Bugtracker.create () in
      List.iteri
        (fun i (s, fix) ->
          let now = float_of_int i *. 100.0 in
          let e = evidence (sig_of s) in
          let apply t =
            let bug =
              match Framework.Bugtracker.file t ~now e with
              | `New bug | `Duplicate bug -> bug
            in
            if fix then Framework.Bugtracker.mark_fixed t ~now bug
          in
          apply bounded;
          apply unbounded)
        ops;
      let same_occurrences =
        List.for_all
          (fun s ->
            Framework.Bugtracker.occurrences_of bounded ~signature:(sig_of s)
            = Framework.Bugtracker.occurrences_of unbounded ~signature:(sig_of s))
          (List.init 30 Fun.id)
      in
      let stats = Framework.Bugtracker.stats bounded in
      let live_occ =
        List.fold_left
          (fun acc b -> acc + b.Framework.Bugtracker.occurrences)
          0
          (Framework.Bugtracker.all bounded)
      in
      same_occurrences
      && Framework.Bugtracker.counts bounded = category_totals bounded
      && fst (Framework.Bugtracker.counts bounded)
         = fst (Framework.Bugtracker.counts unbounded)
      && stats.Framework.Bugtracker.peak_live <= 8
      && live_occ + stats.Framework.Bugtracker.tombstoned_occurrences
         = List.length ops)

(* ---- timeseries binning ------------------------------------------------------- *)

let test_timeseries_add_binned () =
  let ts = Simkit.Timeseries.create ~cadence:10.0 ~max_points:4 ~name:"t" () in
  Simkit.Timeseries.add_binned ts ~time:1.0 1.0;
  Simkit.Timeseries.add_binned ts ~time:2.0 1.0;
  Simkit.Timeseries.add_binned ts ~time:12.0 5.0;
  checki "two buckets" 2 (Simkit.Timeseries.length ts);
  let t0, v0 = Simkit.Timeseries.nth ts 0 in
  checkf "first bucket floor" 0.0 t0;
  checkf "first bucket accumulated" 2.0 v0;
  let t1, v1 = Simkit.Timeseries.nth ts 1 in
  checkf "second bucket floor" 10.0 t1;
  checkf "second bucket value" 5.0 v1

let test_timeseries_bounded_drops_oldest () =
  let ts = Simkit.Timeseries.create ~cadence:10.0 ~max_points:4 ~name:"t" () in
  for i = 0 to 19 do
    Simkit.Timeseries.add_binned ts ~time:(float_of_int i *. 10.0) 1.0
  done;
  checkb "length bounded" true (Simkit.Timeseries.length ts <= 4);
  checkb "drops counted" true (Simkit.Timeseries.dropped ts > 0);
  let t_last, _ = Option.get (Simkit.Timeseries.last ts) in
  checkf "newest point survives" 190.0 t_last

(* ---- triage pipeline: bundles, collapse, unstable ------------------------------ *)

let make_build ?(job = "test_disk") ~number ?retry_of () =
  { Ci.Build.job_name = job; number; axes = []; cause = "test"; retry_of;
    queued_at = 0.0; started_at = Some 0.0; finished_at = None; result = None;
    log = []; artifacts = []; touched_hosts = [ "grisou-1.nancy" ] }

let make_triage ?(config = Framework.Triage.default_config) ?alerts env =
  let tracker =
    Framework.Bugtracker.create ~limits:config.Framework.Triage.limits ()
  in
  let alerts =
    match alerts with
    | Some alerts -> alerts
    | None -> Monitoring.Alerts.create env.Framework.Env.collector
  in
  (Framework.Triage.create ~config ~alerts env tracker, tracker)

let test_observe_assembles_bundles () =
  let env = Framework.Env.create ~seed:2L () in
  let triage, tracker = make_triage env in
  let build = make_build ~number:1 () in
  Framework.Triage.observe triage ~build ~result:Ci.Build.Failure
    [ evidence "disk:grisou-1.nancy:cache" ];
  let s = Framework.Triage.summary triage in
  checki "one build observed" 1 s.Framework.Triage.builds_observed;
  checki "one bundle" 1 s.Framework.Triage.bundles;
  checki "one bug" 1 s.Framework.Triage.filed;
  checkb "canonical signature filed" true
    (Framework.Bugtracker.find tracker
       ~signature:"disk|disk:cache|cluster/grisou"
    <> None);
  (match Framework.Triage.recent_bundles triage with
   | [ bundle ] ->
     checkb "hosts recorded" true
       (bundle.Framework.Triage.hosts = [ "grisou-1.nancy" ]);
     checkb "node health recorded" true
       (bundle.Framework.Triage.node_health <> []);
     checkb "no retry lineage on first attempt" true
       (bundle.Framework.Triage.retry_lineage = [])
   | bundles -> Alcotest.failf "expected 1 bundle, got %d" (List.length bundles))

let test_retry_storm_collapses () =
  let env = Framework.Env.create ~seed:3L () in
  let triage, tracker = make_triage env in
  let e = evidence "disk:grisou-1.nancy:cache" in
  Framework.Triage.observe triage ~build:(make_build ~number:1 ())
    ~result:Ci.Build.Failure [ e ];
  Framework.Triage.observe triage
    ~build:(make_build ~number:2 ~retry_of:1 ())
    ~result:Ci.Build.Failure [ e ];
  let s = Framework.Triage.summary triage in
  checki "retry re-report collapsed" 1 s.Framework.Triage.collapsed;
  checki "still one bug" 1 s.Framework.Triage.filed;
  let bug =
    Option.get
      (Framework.Bugtracker.find tracker
         ~signature:"disk|disk:cache|cluster/grisou")
  in
  checki "occurrences not inflated by the retry" 1
    bug.Framework.Bugtracker.occurrences;
  (* A different job re-reporting the same signature is NOT collapsed. *)
  Framework.Triage.observe triage
    ~build:(make_build ~job:"test_other" ~number:2 ~retry_of:1 ())
    ~result:Ci.Build.Failure [ e ];
  checki "cross-job duplicate filed" 2 bug.Framework.Bugtracker.occurrences

let test_unstable_filed_when_configured () =
  let env = Framework.Env.create ~seed:4L () in
  let config =
    { Framework.Triage.default_config with Framework.Triage.file_unstable = true }
  in
  let triage, tracker = make_triage ~config env in
  Framework.Triage.observe triage ~build:(make_build ~number:1 ())
    ~result:Ci.Build.Unstable [];
  let s = Framework.Triage.summary triage in
  checki "unstable observed" 1 s.Framework.Triage.unstable_observed;
  checki "synthetic ci bug filed" 1 s.Framework.Triage.filed;
  checkb "unsched signature" true
    (Framework.Bugtracker.find tracker ~signature:"ci|unsched:test_disk|global"
    <> None);
  (* Default config only counts unstable builds. *)
  let triage2, _ = make_triage env in
  Framework.Triage.observe triage2 ~build:(make_build ~number:2 ())
    ~result:Ci.Build.Unstable [];
  checki "not filed by default" 0
    (Framework.Triage.summary triage2).Framework.Triage.filed

(* ---- robustness loop: MTTR, flapping, escalation ------------------------------- *)

let test_flap_detection_escalates () =
  let env = Framework.Env.create ~seed:5L () in
  let alerts = Monitoring.Alerts.create env.Framework.Env.collector in
  let config =
    { Framework.Triage.default_config with Framework.Triage.flap_cycles = 2 }
  in
  let triage, tracker = make_triage ~config ~alerts env in
  let e = evidence "disk:grisou-1.nancy:cache" in
  Framework.Triage.ingest triage e;
  let bug =
    Option.get
      (Framework.Bugtracker.find tracker
         ~signature:"disk|disk:cache|cluster/grisou")
  in
  (* Two fixed->reopened cycles make a flapper at flap_cycles = 2. *)
  Framework.Bugtracker.mark_fixed tracker ~now:0.0 bug;
  Framework.Triage.ingest triage e;
  checki "no flap after one reopen" 0 (Framework.Triage.flapping_count triage);
  Framework.Bugtracker.mark_fixed tracker ~now:0.0 bug;
  Framework.Triage.ingest triage e;
  checki "flapper detected" 1 (Framework.Triage.flapping_count triage);
  let s = Framework.Triage.summary triage in
  checki "two reopens" 2 s.Framework.Triage.reopens;
  checki "escalated once" 1 s.Framework.Triage.escalations;
  let firing = Monitoring.Alerts.firing alerts in
  checkb "flapping alert firing" true
    (List.exists
       (fun a ->
         match a.Monitoring.Alerts.source with
         | Monitoring.Alerts.Flapping id -> id = bug.Framework.Bugtracker.id
         | _ -> false)
       firing);
  (* Fixing the flapper resolves the alert and records MTTR. *)
  Framework.Bugtracker.mark_fixed tracker ~now:0.0 bug;
  checkb "alert resolved on fix" true (Monitoring.Alerts.firing alerts = []);
  checkb "MTTR recorded for the category" true
    (List.exists
       (fun (category, _, n) -> String.equal category "disk" && n > 0)
       (Framework.Triage.summary triage).Framework.Triage.mttr_days_by_category)

(* ---- triage-path fault drills --------------------------------------------------- *)

let drill_config ~loss ~delay =
  { Framework.Triage.default_config with
    Framework.Triage.drill =
      Some { Framework.Triage.evidence_loss = loss; filing_delay = delay };
  }

let test_evidence_loss_total () =
  let env = Framework.Env.create ~seed:6L () in
  let triage, tracker = make_triage ~config:(drill_config ~loss:1.0 ~delay:0.0) env in
  for i = 1 to 10 do
    Framework.Triage.ingest triage (evidence (Printf.sprintf "disk:mode%d" i))
  done;
  let s = Framework.Triage.summary triage in
  checki "everything lost" 10 s.Framework.Triage.lost;
  checki "nothing filed" 0 s.Framework.Triage.filed;
  checki "store empty" 0 (fst (Framework.Bugtracker.counts tracker))

let test_evidence_loss_dedup_converges () =
  (* With 50% loss, re-reporting failures makes the distinct-bug count
     converge to the lossless one: dedup is robust to dropped bundles. *)
  let distinct_bugs ~loss =
    let env = Framework.Env.create ~seed:7L () in
    let triage, tracker = make_triage ~config:(drill_config ~loss ~delay:0.0) env in
    for _ = 1 to 40 do
      for i = 1 to 5 do
        Framework.Triage.ingest triage (evidence (Printf.sprintf "disk:mode%d" i))
      done
    done;
    (fst (Framework.Bugtracker.counts tracker), Framework.Triage.summary triage)
  in
  let lossless, _ = distinct_bugs ~loss:0.0 in
  let lossy, s = distinct_bugs ~loss:0.5 in
  checki "lossless files each mode once" 5 lossless;
  checki "lossy converges to the same distinct bugs" lossless lossy;
  checkb "losses actually happened" true (s.Framework.Triage.lost > 0)

let test_delayed_filing_drill () =
  let env = Framework.Env.create ~seed:8L () in
  let triage, tracker = make_triage ~config:(drill_config ~loss:0.0 ~delay:hour) env in
  Framework.Triage.ingest triage (evidence "disk:grisou-1.nancy:cache");
  checki "not filed yet" 0 (fst (Framework.Bugtracker.counts tracker));
  checki "delay counted" 1 (Framework.Triage.summary triage).Framework.Triage.delayed;
  Framework.Env.run_until env (2.0 *. hour);
  checki "filed after the delay" 1 (fst (Framework.Bugtracker.counts tracker));
  let bug =
    Option.get
      (Framework.Bugtracker.find tracker
         ~signature:"disk|disk:cache|cluster/grisou")
  in
  checkf "filed at the delayed time" hour bug.Framework.Bugtracker.filed_at

(* ---- operator: regressions first ------------------------------------------------ *)

let quiet_operator =
  { Framework.Operator.default_config with
    Framework.Operator.fix_capacity_per_day = 4.0;
    (* credit reaches 1.0 exactly at the first 6 h sweep: one fix *)
    triage_delay = 0.0;
    maintenance_period = 1000.0 *. day;
    maintenance_fault_rate = 0.0;
    complaint_rate_per_day = 0.0;
  }

let fixed_first ~prioritize =
  let env = Framework.Env.create ~seed:9L () in
  let tracker = Framework.Bugtracker.create () in
  ignore (Framework.Bugtracker.file tracker ~now:0.0 (evidence "fresh"));
  let reopened =
    match Framework.Bugtracker.file tracker ~now:0.0 (evidence "regressed") with
    | `New bug -> bug
    | `Duplicate _ -> assert false
  in
  Framework.Bugtracker.mark_fixed tracker ~now:0.0 reopened;
  ignore (Framework.Bugtracker.file tracker ~now:0.0 (evidence "regressed"));
  (* [Engine.every] runs the sweep synchronously at start: with exactly
     1.0 credit accrued, precisely one bug is fixed, exposing the order. *)
  ignore
    (Framework.Operator.start
       ~config:
         { quiet_operator with Framework.Operator.prioritize_reopened = prioritize }
       env tracker);
  List.filter_map
    (fun b ->
      if b.Framework.Bugtracker.status = Framework.Bugtracker.Fixed then
        Some b.Framework.Bugtracker.signature
      else None)
    (Framework.Bugtracker.all tracker)

let test_operator_prioritizes_reopened () =
  checkb "default config keeps filing order" true
    (Framework.Operator.default_config.Framework.Operator.prioritize_reopened
    = false);
  (match fixed_first ~prioritize:false with
   | [ "fresh" ] -> ()
   | other -> Alcotest.failf "filing order: expected fresh, got [%s]"
                (String.concat "; " other));
  match fixed_first ~prioritize:true with
  | [ "regressed" ] -> ()
  | other ->
    Alcotest.failf "prioritized: expected regressed, got [%s]"
      (String.concat "; " other)

(* ---- lint L013 ------------------------------------------------------------------- *)

let codes diags = List.map (fun d -> d.Framework.Lint.code) diags

(* Catches a wrapped message string missing its [\] continuation. *)
let check_single_spaced diags =
  List.iter
    (fun d ->
      let msg = d.Framework.Lint.message in
      checkb ("no double space in: " ^ msg) false (contains msg "  "))
    diags

let test_l013_limit_errors () =
  let base = Framework.Triage.default_config in
  let with_limits limits = { base with Framework.Triage.limits } in
  let bad_ring =
    with_limits
      { base.Framework.Triage.limits with Framework.Bugtracker.ring_size = 0 }
  in
  let diags = Framework.Lint.check_triage ~path:"t" bad_ring in
  checkb "ring_size error" true
    (codes diags = [ "L013" ] && Framework.Lint.errors diags <> []);
  let bad_cap =
    with_limits
      { base.Framework.Triage.limits with Framework.Bugtracker.max_live = -1 }
  in
  checkb "max_live error" true
    (Framework.Lint.errors (Framework.Lint.check_triage ~path:"t" bad_cap) <> []);
  let bad_flap = { base with Framework.Triage.flap_cycles = 1 } in
  let diags = Framework.Lint.check_triage ~path:"t" bad_flap in
  checkb "flap_cycles error" true (Framework.Lint.errors diags <> []);
  check_single_spaced diags

let test_l013_eviction_thrash_warning () =
  let base = Framework.Triage.default_config in
  let cfg =
    { base with
      Framework.Triage.limits =
        { base.Framework.Triage.limits with Framework.Bugtracker.min_idle = 60.0 };
      dedup_window = 3600.0;
    }
  in
  let diags = Framework.Lint.check_triage ~path:"t" cfg in
  checkb "thrash flagged as warning" true
    (codes diags = [ "L013" ] && Framework.Lint.errors diags = []);
  check_single_spaced diags

let test_l013_drill_range () =
  let cfg =
    { Framework.Triage.default_config with
      Framework.Triage.drill =
        Some { Framework.Triage.evidence_loss = 1.5; filing_delay = -1.0 };
    }
  in
  let diags = Framework.Lint.check_triage ~path:"t" cfg in
  checki "both drill knobs flagged" 2 (List.length (Framework.Lint.errors diags));
  check_single_spaced diags

let test_triage_preset_lints_clean () =
  let cfg = List.assoc "triage" Framework.Lint.presets in
  checkb "preset error-free" true (Framework.Lint.errors (Framework.Lint.run cfg) = [])

(* ---- report surface --------------------------------------------------------------- *)

let test_render_index_shows_quiet_age () =
  let env = Framework.Env.create ~seed:10L () in
  let tracker = Framework.Bugtracker.create () in
  ignore (Framework.Bugtracker.file tracker ~now:0.0 (evidence "disk:grisou-1.nancy:x"));
  ignore
    (Framework.Bugtracker.file tracker ~now:(2.0 *. day) (evidence "disk:grisou-1.nancy:x"));
  Framework.Env.run_until env (4.0 *. day);
  let index = Framework.Bugreport.render_index env tracker in
  checkb "quiet column present" true (contains index "quiet (days)");
  checkb "quiet age = now - last_seen" true (contains index "2.0")

let test_bugreport_parses_canonical_scope () =
  let env = Framework.Env.create ~seed:11L () in
  let tracker = Framework.Bugtracker.create () in
  let bug =
    match
      Framework.Bugtracker.file tracker ~now:0.0
        (evidence "disk|disk:heterogeneous|cluster/grisou")
    with
    | `New bug -> bug
    | `Duplicate _ -> assert false
  in
  checkb "cluster scope rendered" true
    (contains (Framework.Bugreport.render env bug) "cluster grisou")

(* ---- campaign integration ---------------------------------------------------------- *)

let test_campaign_with_triage () =
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with
        Framework.Campaign.months = 1;
        seed = 77L;
        triage = Some Framework.Triage.default_config;
      }
  in
  let s =
    match report.Framework.Campaign.triage with
    | Some s -> s
    | None -> Alcotest.fail "triage summary missing"
  in
  checkb "builds observed" true (s.Framework.Triage.builds_observed > 0);
  checkb "bugs filed through the pipeline" true (s.Framework.Triage.filed > 0);
  checkb "filed matches the store" true
    (s.Framework.Triage.filed
    = s.Framework.Triage.store.Framework.Bugtracker.filed_total);
  checkb "dedup clusters duplicates" true (s.Framework.Triage.dedup_ratio >= 1.0);
  (match Simkit.Json.of_string_exn (Framework.Report.to_string report) with
   | Simkit.Json.Obj members ->
     checkb "triage member in the JSON report" true (List.mem_assoc "triage" members)
   | _ -> Alcotest.fail "report is not a JSON object");
  checkb "statuspage has a triage section" true
    (contains report.Framework.Campaign.statuspage
       "Triage (failure-signature pipeline)")

let test_default_campaign_has_no_triage_block () =
  let report =
    Framework.Campaign.run
      { Framework.Campaign.default_config with
        Framework.Campaign.months = 1;
        seed = 77L;
      }
  in
  checkb "no triage summary" true (report.Framework.Campaign.triage = None);
  (match Simkit.Json.of_string_exn (Framework.Report.to_string report) with
   | Simkit.Json.Obj members ->
     checkb "no triage member" false (List.mem_assoc "triage" members)
   | _ -> Alcotest.fail "report is not a JSON object");
  checkb "no triage section" false
    (contains report.Framework.Campaign.statuspage "Triage (failure-signature")

let () =
  Alcotest.run "triage"
    [ ( "canonicalization",
        [ Alcotest.test_case "hosts fold to clusters, scopes split" `Quick
            test_canonicalization_clusters_hosts ] );
      ( "store",
        [ Alcotest.test_case "last_seen refreshed on duplicates" `Quick
            test_last_seen_refreshed;
          Alcotest.test_case "evidence ring bounded" `Quick
            test_evidence_ring_bounded;
          Alcotest.test_case "reopen precedes refile" `Quick
            test_event_order_reopen_before_refile;
          Alcotest.test_case "eviction, tombstones, resurrection" `Quick
            test_eviction_tombstones_and_resurrection;
          qc prop_dedup_idempotent;
          qc prop_fault_ids_merge_monotone;
          qc prop_eviction_conserves_occurrences ] );
      ( "timeseries",
        [ Alcotest.test_case "add_binned accumulates per bucket" `Quick
            test_timeseries_add_binned;
          Alcotest.test_case "bounded series drops oldest" `Quick
            test_timeseries_bounded_drops_oldest ] );
      ( "pipeline",
        [ Alcotest.test_case "bundles assembled on failure" `Quick
            test_observe_assembles_bundles;
          Alcotest.test_case "retry storms collapse" `Quick
            test_retry_storm_collapses;
          Alcotest.test_case "unstable filing is opt-in" `Quick
            test_unstable_filed_when_configured ] );
      ( "robustness",
        [ Alcotest.test_case "flapping detected and escalated" `Quick
            test_flap_detection_escalates;
          Alcotest.test_case "operator can work regressions first" `Quick
            test_operator_prioritizes_reopened ] );
      ( "drills",
        [ Alcotest.test_case "total evidence loss files nothing" `Quick
            test_evidence_loss_total;
          Alcotest.test_case "dedup converges under 50% loss" `Quick
            test_evidence_loss_dedup_converges;
          Alcotest.test_case "delayed filing lands late" `Quick
            test_delayed_filing_drill ] );
      ( "lint",
        [ Alcotest.test_case "L013 limit errors" `Quick test_l013_limit_errors;
          Alcotest.test_case "L013 eviction thrash warning" `Quick
            test_l013_eviction_thrash_warning;
          Alcotest.test_case "L013 drill ranges" `Quick test_l013_drill_range;
          Alcotest.test_case "triage preset lints clean" `Quick
            test_triage_preset_lints_clean ] );
      ( "report",
        [ Alcotest.test_case "index shows quiet age" `Quick
            test_render_index_shows_quiet_age;
          Alcotest.test_case "canonical scope parsed" `Quick
            test_bugreport_parses_canonical_scope ] );
      ( "campaign",
        [ Alcotest.test_case "triage campaign end to end" `Quick
            test_campaign_with_triage;
          Alcotest.test_case "default campaign unchanged" `Quick
            test_default_campaign_has_no_triage_block ] );
    ]
