(* Serving-layer tests: O(delta) snapshot cache with single-flight
   renders and ETag revalidation, token-bucket admission with counted
   shedding, the Fresh -> Stale -> Static_fallback degradation ladder
   with hysteresis, and the Serve_crash journal-replay drill recovering
   to byte-identical pages — plus the campaign-level invariants: read
   conservation, and serve-off runs byte-identical to the seed. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* A serve config with the synthetic workload disabled: reads only
   happen through [Serve.read], so each test controls demand exactly. *)
let quiet_config =
  { Framework.Serve.default_config with
    Framework.Serve.readers_per_s = 0.0;
    flash_every = 0.0;
  }

let mk ?(config = quiet_config) ?(seed = 9001L) () =
  let env = Framework.Env.create ~seed () in
  let page = Framework.Statuspage.create env in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let alerts = Monitoring.Alerts.create env.Framework.Env.collector in
  let serve = Framework.Serve.attach ~alerts ~config env page in
  (env, page, serve)

let run_build env family axes =
  ignore
    (Ci.Server.trigger_subset env.Framework.Env.ci (Framework.Jobs.job_name family)
       ~axes:[ axes ]);
  Framework.Env.run_until env
    (Framework.Env.now env +. (4.0 *. Simkit.Calendar.hour))

let conserved (s : Framework.Serve.summary) =
  s.Framework.Serve.reads
  = s.Framework.Serve.fresh + s.Framework.Serve.not_modified
    + s.Framework.Serve.stale + s.Framework.Serve.fallback
    + s.Framework.Serve.shed

(* ---- snapshot cache --------------------------------------------------------- *)

let test_single_flight_and_etag () =
  let env, page, serve = mk () in
  run_build env Framework.Testdef.Refapi [ ("cluster", "graphene") ];
  checkb "no render before the first read" true
    ((Framework.Serve.summary serve).Framework.Serve.renders = 0);
  let etag1 =
    match Framework.Serve.read serve () with
    | Framework.Serve.Page { etag; mode = Framework.Serve.Fresh; staleness; _ } ->
      Alcotest.(check (float 1e-9)) "fresh read has zero staleness" 0.0 staleness;
      etag
    | _ -> Alcotest.fail "expected a fresh page"
  in
  checks "etag is the generation stamp"
    (Printf.sprintf "W/\"g%d\"" (Framework.Statuspage.generation page))
    etag1;
  (* Second read: cache hit — same body, no new render. *)
  (match Framework.Serve.read serve () with
   | Framework.Serve.Page { etag; _ } -> checks "same etag" etag1 etag
   | _ -> Alcotest.fail "expected a page");
  checki "single flight: one render for two reads" 1
    (Framework.Serve.summary serve).Framework.Serve.renders;
  (* Conditional read with the current ETag: 304, no body. *)
  (match Framework.Serve.read serve ~if_none_match:etag1 () with
   | Framework.Serve.Not_modified etag -> checks "304 echoes the etag" etag1 etag
   | _ -> Alcotest.fail "expected Not_modified");
  (* A new completion invalidates: the held ETag no longer matches. *)
  run_build env Framework.Testdef.Refapi [ ("cluster", "grisou") ];
  (match Framework.Serve.read serve ~if_none_match:etag1 () with
   | Framework.Serve.Page { etag; mode = Framework.Serve.Fresh; _ } ->
     checkb "etag moved with the generation" true (etag <> etag1)
   | _ -> Alcotest.fail "expected a re-rendered page");
  checki "re-render is also single flight" 2
    (Framework.Serve.summary serve).Framework.Serve.renders

let test_read_sheds_when_bucket_empty () =
  let _, _, serve =
    mk ~config:{ quiet_config with Framework.Serve.burst = 1.0 } ()
  in
  (match Framework.Serve.read serve () with
   | Framework.Serve.Page _ -> ()
   | _ -> Alcotest.fail "first read should be served");
  checkb "second read is shed, not dropped" true
    (Framework.Serve.read serve () = Framework.Serve.Shed);
  let s = Framework.Serve.summary serve in
  checki "shed counted" 1 s.Framework.Serve.shed;
  checkb "conservation holds" true (conserved s)

(* ---- degradation ladder ------------------------------------------------------ *)

(* Hourly flash crowds against a small admission rate: the queue climbs
   through both thresholds (Stale at 30, Static_fallback at 300), the
   overflow beyond the queue limit is shed, and after the flash the
   service drains and climbs back to Fresh once the hysteresis window
   has passed. *)
let ladder_config =
  { Framework.Serve.default_config with
    Framework.Serve.rate_limit = 5.0;
    burst = 150.0;
    queue_limit = 2000;
    stale_queue = 30;
    fallback_queue = 300;
    hysteresis_s = 120.0;
    tick_period = 30.0;
    readers_per_s = 0.5;
    flash_every = 3600.0;
    flash_duration = 600.0;
    flash_multiplier = 20.0;
  }

let test_ladder_degrades_and_recovers () =
  let env = Framework.Env.create ~seed:9002L () in
  let page = Framework.Statuspage.create env in
  let alerts = Monitoring.Alerts.create env.Framework.Env.collector in
  let serve = Framework.Serve.attach ~alerts ~config:ladder_config env page in
  Framework.Env.run_until env 6000.0;
  let s = Framework.Serve.summary serve in
  checkb "walked through the Stale rung" true (s.Framework.Serve.stale > 0);
  checkb "reached Static_fallback" true (s.Framework.Serve.fallback > 0);
  checkb "overflow beyond the queue was shed" true (s.Framework.Serve.shed > 0);
  checkb "fresh serves outside the flash" true (s.Framework.Serve.fresh > 0);
  checkb "conditional readers got 304s" true (s.Framework.Serve.not_modified > 0);
  checkb "degraded time accounted" true (s.Framework.Serve.degraded_seconds > 0.0);
  checkb "departure from Fresh fired an alert" true
    (s.Framework.Serve.alerts_fired >= 1);
  checkb "calm plus hysteresis climbed back to Fresh" true
    (Framework.Serve.mode serve = Framework.Serve.Fresh);
  checkb "every read resolved" true (conserved s);
  checkb "queue peak hit the configured limit" true
    (s.Framework.Serve.queued_peak <= ladder_config.Framework.Serve.queue_limit)

let test_zero_workload_stays_fresh () =
  let env, _, serve = mk () in
  Framework.Env.run_until env Simkit.Calendar.day;
  let s = Framework.Serve.summary serve in
  checki "no synthetic reads" 0 s.Framework.Serve.reads;
  checkb "mode never left Fresh" true
    (Framework.Serve.mode serve = Framework.Serve.Fresh);
  Alcotest.(check (float 1e-9)) "no degraded time" 0.0
    s.Framework.Serve.degraded_seconds;
  checki "no alerts" 0 s.Framework.Serve.alerts_fired

(* ---- crash recovery ---------------------------------------------------------- *)

let test_crash_replay_rebuilds_identical_page () =
  let env, page, serve = mk () in
  run_build env Framework.Testdef.Refapi [ ("cluster", "graphene") ];
  run_build env Framework.Testdef.Oarstate [ ("site", "lyon") ];
  let body_before =
    match Framework.Serve.read serve () with
    | Framework.Serve.Page { body; _ } -> body
    | _ -> Alcotest.fail "expected a page"
  in
  let html_before = Framework.Webstatus.render page in
  let gen_before = Framework.Statuspage.generation page in
  (* Crash: wipe the aggregates mid-campaign. *)
  let faults = Framework.Env.faults env in
  let fault =
    match
      Testbed.Faults.inject faults ~now:(Framework.Env.now env)
        Testbed.Faults.Serve_crash
    with
    | Some fault -> fault
    | None -> Alcotest.fail "crash injection refused"
  in
  (* Let the service loop observe the crash and replay its journal. *)
  Framework.Env.run_until env (Framework.Env.now env +. 60.0);
  let s = Framework.Serve.summary serve in
  checki "one crash" 1 s.Framework.Serve.crashes;
  checki "one recovery replay" 1 s.Framework.Serve.recoveries;
  checkb "generation is monotonic across reset" true
    (Framework.Statuspage.generation page > gen_before);
  checks "replayed aggregates render byte-identically" html_before
    (Framework.Webstatus.render page);
  (* During the rebuild window reads get the static fallback... *)
  (match Framework.Serve.read serve () with
   | Framework.Serve.Page { mode = Framework.Serve.Static_fallback; body; _ } ->
     checkb "fallback is the static placeholder" true
       (body <> body_before && body <> "")
   | _ -> Alcotest.fail "expected the static fallback during rebuild");
  (* ...and after repair + rebuild window + hysteresis the service is
     Fresh again and serves the exact pre-crash page. *)
  Testbed.Faults.repair faults ~now:(Framework.Env.now env) fault;
  Framework.Env.run_until env (Framework.Env.now env +. 600.0);
  checkb "back to Fresh" true (Framework.Serve.mode serve = Framework.Serve.Fresh);
  match Framework.Serve.read serve () with
  | Framework.Serve.Page { body; mode = Framework.Serve.Fresh; _ } ->
    checks "post-recovery page is byte-identical" body_before body
  | _ -> Alcotest.fail "expected a fresh page after recovery"

(* ---- campaign integration ---------------------------------------------------- *)

let light_workload =
  { Oar.Workload.default_profile with Oar.Workload.base_rate_per_hour = 8.0 }

let serve_campaign_base =
  { Framework.Campaign.default_config with
    Framework.Campaign.months = 1;
    seed = 9003L;
    workload = Some light_workload;
    serve = Some Framework.Serve.default_config;
  }

let test_campaign_serve_off_byte_identical () =
  let off =
    Framework.Campaign.run
      { serve_campaign_base with Framework.Campaign.serve = None }
  in
  let on_ = Framework.Campaign.run serve_campaign_base in
  checkb "serve-off report has no serve member" true
    (off.Framework.Campaign.serve = None);
  checkb "serve-on report carries the summary" true
    (on_.Framework.Campaign.serve <> None);
  let strip r = { r with Framework.Campaign.serve = None } in
  checks "serving layer is invisible to the campaign"
    (Framework.Report.to_string (strip off))
    (Framework.Report.to_string (strip on_));
  checks "same status page HTML" off.Framework.Campaign.statuspage_html
    on_.Framework.Campaign.statuspage_html

let test_campaign_serve_conservation () =
  let report = Framework.Campaign.run serve_campaign_base in
  match report.Framework.Campaign.serve with
  | None -> Alcotest.fail "serve summary missing"
  | Some s ->
    checkb "millions of simulated reads resolve" true
      (s.Framework.Serve.reads > 0);
    checkb "zero reads fail outright (conservation)" true (conserved s);
    checkb "cache absorbs almost everything" true
      (s.Framework.Serve.renders_saved > s.Framework.Serve.renders);
    checkb "status page text carries the serving section" true
      (let hay = report.Framework.Campaign.statuspage in
       let needle = "Serving" in
       let n = String.length needle and m = String.length hay in
       let rec scan i =
         i + n <= m && (String.sub hay i n = needle || scan (i + 1))
       in
       scan 0)

let test_campaign_crash_drill_byte_identity () =
  let uncrashed = Framework.Campaign.run serve_campaign_base in
  let crashed =
    Framework.Campaign.run
      { serve_campaign_base with
        Framework.Campaign.infra_faults =
          [ (15.0 *. Simkit.Calendar.day, Testbed.Faults.Serve_crash) ];
      }
  in
  (match crashed.Framework.Campaign.serve with
   | None -> Alcotest.fail "serve summary missing"
   | Some s ->
     checki "the drill crashed the service once" 1 s.Framework.Serve.crashes;
     checki "journal replay recovered it" 1 s.Framework.Serve.recoveries;
     checkb "conservation survives the crash" true (conserved s));
  checks "recovered page is byte-identical to the uncrashed run's"
    uncrashed.Framework.Campaign.statuspage_html
    crashed.Framework.Campaign.statuspage_html

(* The served page is the sectioned renderer's output: at sampled
   instants of a campaign (crash drill included) a fresh read carries
   exactly what a fresh [Webstatus.render] of the page produces.  The
   sampled reads go through admission like any other, so the counters
   below are those of this exact schedule; they were recorded with the
   whole-page renderer and pin that the section caches and the
   allocation-free read path changed no outcome. *)
let test_served_body_equals_render () =
  let sim =
    Framework.Campaign.prepare
      { serve_campaign_base with
        Framework.Campaign.infra_faults =
          [ (10.0 *. Simkit.Calendar.day, Testbed.Faults.Serve_crash) ];
      }
  in
  let engine = Framework.Campaign.sim_engine sim
  and page = Framework.Campaign.sim_page sim in
  let serve =
    match Framework.Campaign.sim_serve sim with
    | Some serve -> serve
    | None -> Alcotest.fail "serve not attached"
  in
  let horizon = Framework.Campaign.sim_horizon sim in
  let step = (7.0 *. Simkit.Calendar.hour) +. (13.0 *. 60.0) in
  let compared = ref 0 in
  let rec sample at =
    if at <= horizon then begin
      Simkit.Engine.run_until engine at;
      (if Framework.Serve.mode serve = Framework.Serve.Fresh then
         match Framework.Serve.read serve () with
         | Framework.Serve.Page { body; mode = Framework.Serve.Fresh; _ } ->
           checks "served body is a fresh render" (Framework.Webstatus.render page) body;
           incr compared
         | _ -> ());
      sample (at +. step)
    end
  in
  sample step;
  Simkit.Engine.run_until engine horizon;
  let s = Framework.Serve.summary serve in
  checki "the drill crashed the service once" 1 s.Framework.Serve.crashes;
  checkb "most samples were fresh reads" true (!compared >= 80);
  checkb "conservation" true (conserved s);
  List.iter
    (fun (name, expected, actual) -> checki name expected actual)
    [ ("reads", 6948272, s.Framework.Serve.reads);
      ("fresh", 2310230, s.Framework.Serve.fresh);
      ("not_modified", 2829032, s.Framework.Serve.not_modified);
      ("stale", 0, s.Framework.Serve.stale);
      ("fallback", 439899, s.Framework.Serve.fallback);
      ("shed", 1369111, s.Framework.Serve.shed);
      ("renders", 6203, s.Framework.Serve.renders) ]

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [ Alcotest.test_case "single flight and etag" `Quick
            test_single_flight_and_etag;
          Alcotest.test_case "empty bucket sheds" `Quick
            test_read_sheds_when_bucket_empty ] );
      ( "ladder",
        [ Alcotest.test_case "degrade and recover" `Quick
            test_ladder_degrades_and_recovers;
          Alcotest.test_case "zero workload stays fresh" `Quick
            test_zero_workload_stays_fresh ] );
      ( "crash",
        [ Alcotest.test_case "journal replay" `Quick
            test_crash_replay_rebuilds_identical_page ] );
      ( "campaign",
        [ Alcotest.test_case "serve-off byte-identity" `Slow
            test_campaign_serve_off_byte_identical;
          Alcotest.test_case "conservation" `Slow test_campaign_serve_conservation;
          Alcotest.test_case "crash drill byte-identity" `Slow
            test_campaign_crash_drill_byte_identity;
          Alcotest.test_case "served body equals a fresh render" `Slow
            test_served_body_equals_render ] );
    ]
