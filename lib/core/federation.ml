type driver =
  | Sequential
  | Interleaved of int64
  | Parallel
  | Reference

let driver_to_string = function
  | Sequential -> "sequential"
  | Interleaved seed -> Printf.sprintf "interleaved(%Ld)" seed
  | Parallel -> "parallel"
  | Reference -> "reference"

type config = {
  testbeds : int;
  shards : int;
  names : string list;
  lookahead : float;
  seed : int64;
  base : Campaign.config;
  ranges : Testbed.Fleet.ranges;
  backbone_faults_per_year : float;
  backbone_outage_hours : float;
  global_vlans : int;
  vlan_request_period : float;
  audit_period : float;
  driver : driver;
}

(* Cross-testbed effects decided at a barrier never reach a member
   engine sooner than this: VLAN grants take [min_cross_latency] to set
   up, and backbone onsets are drawn at least this far after the
   barrier.  A lookahead window of at least this size is therefore
   conservative: nothing computed at barrier [t] can land in (t, t +
   min_cross_latency). *)
let min_cross_latency = 300.0
let link_duration = 600.0
let year = 365.0 *. Simkit.Calendar.day

let default_config =
  {
    testbeds = 10;
    shards = 4;
    names = [];
    lookahead = 6.0 *. Simkit.Calendar.hour;
    seed = 42L;
    base = { Campaign.default_config with Campaign.months = 2 };
    ranges = Testbed.Fleet.default_ranges;
    backbone_faults_per_year = 6.0;
    backbone_outage_hours = 4.0;
    global_vlans = 3;
    vlan_request_period = 2.0 *. Simkit.Calendar.day;
    audit_period = Simkit.Calendar.day;
    driver = Sequential;
  }

let synthesize cfg =
  Testbed.Fleet.synthesize ~seed:cfg.seed ~count:cfg.testbeds ~names:cfg.names
    cfg.ranges

let member_campaign cfg (spec : Testbed.Fleet.spec) =
  {
    cfg.base with
    Campaign.seed = spec.Testbed.Fleet.seed;
    executors = spec.Testbed.Fleet.executors;
    fault_rate_per_day =
      cfg.base.Campaign.fault_rate_per_day *. spec.Testbed.Fleet.fault_bias;
    workload =
      Option.map
        (fun p -> Oar.Workload.scale p spec.Testbed.Fleet.workload_scale)
        cfg.base.Campaign.workload;
  }

type coordination = {
  barriers : int;
  backbone_faults : int;
  vlan_requests : int;
  vlan_grants : int;
  vlan_denials : int;
  link_tests : int;
  link_failures : int;
  audits : int;
  min_in_service : int;
  mean_active_faults : float;
}

type member_report = {
  spec : Testbed.Fleet.spec;
  report : Campaign.report;
  events : int;
}

type report = {
  fed_cfg : config;
  members : member_report list;
  coordination : coordination;
  aggregate_builds : int;
  aggregate_successes : int;
  aggregate_success_ratio : float;
  aggregate_bugs_filed : int;
  aggregate_bugs_fixed : int;
  aggregate_faults_injected : int;
  aggregate_faults_detected : int;
  aggregate_faults_repaired : int;
  aggregate_workload_jobs : int;
  aggregate_nodes : int;
  events_total : int;
}

(* ---- runtime state ------------------------------------------------------- *)

(* One member = one complete private simulation.  The only mutable
   fields touched while a window advances are [link_tests] and
   [link_failures] (bumped by the member's own engine events, hence by
   the member's shard exclusively); everything else is coordinator-only,
   between windows.  Domain spawn/join orders the two. *)
type mstate = {
  spec_ : Testbed.Fleet.spec;
  sim : Campaign.sim;
  eng : Simkit.Engine.t;
  menv : Env.t;
  link_rng : Simkit.Prng.t;
  mutable requests : int;
  mutable grants : int;
  mutable denials : int;
  mutable link_tests : int;
  mutable link_failures : int;
  mutable next_want : float;
}

type coord = {
  mutable barriers : int;
  mutable backbone_faults : int;
  mutable audits : int;
  mutable min_in_service : int;
  mutable active_sum : float;
  mutable next_audit : float;
  mutable grant_expiries : float list;
  coord_rng : Simkit.Prng.t;
}

let validate cfg =
  if cfg.testbeds <= 0 then invalid_arg "Federation.run: testbeds must be positive";
  if cfg.shards <= 0 then invalid_arg "Federation.run: shards must be positive";
  if cfg.shards > cfg.testbeds then
    invalid_arg "Federation.run: more shards than testbeds";
  if not (cfg.lookahead > 0.0) then
    invalid_arg "Federation.run: lookahead must be positive";
  let specs = synthesize cfg in
  let ids = List.map (fun s -> s.Testbed.Fleet.id) specs in
  let sorted = List.sort_uniq String.compare ids in
  if List.length sorted <> List.length ids then
    invalid_arg "Federation.run: duplicate member ids";
  specs

(* Members in service / active faults across the whole federation — the
   coupling state the coordinator aggregates at audits.  The [Reference]
   driver re-establishes it after every event, which is what a
   zero-lookahead coordinator must do: without the window contract, any
   event might have changed it. *)
let coupling_scan members =
  let in_service = ref 0 and active = ref 0 in
  Array.iter
    (fun m ->
      let nodes = m.menv.Env.instance.Testbed.Instance.nodes in
      Array.iter (fun n -> if Testbed.Node.in_service n then incr in_service) nodes;
      active := !active + List.length (Testbed.Faults.active (Env.faults m.menv)))
    members;
  (!in_service, !active)

let member_partitioned m =
  List.exists
    (fun f -> f.Testbed.Faults.kind = Testbed.Faults.Network_partition)
    (Testbed.Faults.active (Env.faults m.menv))

(* ---- barrier ------------------------------------------------------------- *)

(* Runs with every member stopped exactly at time [t]; schedules all
   cross-testbed effects for strictly later instants.  Determinism: all
   draws come from the coordinator stream (consumed in a fixed order) or
   from per-member streams consumed only by that member's events, and
   every read of member state happens at the barrier — identical
   whatever shard count or service order produced it. *)
let coordinate cfg coord members ~t ~wend =
  coord.barriers <- coord.barriers + 1;
  (* 1. Kavlan global VLANs: expire old grants, then arbitrate this
     barrier's requests in member order. *)
  coord.grant_expiries <-
    List.filter (fun expiry -> expiry > t) coord.grant_expiries;
  Array.iter
    (fun m ->
      while m.next_want <= t do
        m.next_want <- m.next_want +. cfg.vlan_request_period;
        m.requests <- m.requests + 1;
        if List.length coord.grant_expiries < cfg.global_vlans then begin
          m.grants <- m.grants + 1;
          let fire = t +. min_cross_latency in
          coord.grant_expiries <- (fire +. link_duration) :: coord.grant_expiries;
          ignore
            (Simkit.Engine.schedule_at m.eng ~label:"federation-link" ~time:fire
               (fun _ ->
                 m.link_tests <- m.link_tests + 1;
                 let flaky = Simkit.Prng.chance m.link_rng 0.08 in
                 if flaky || member_partitioned m then
                   m.link_failures <- m.link_failures + 1))
        end
        else m.denials <- m.denials + 1
      done)
    members;
  (* 2. Backbone faults: federation-wide events partitioning the same
     site on every member at the same instant. *)
  let mean = cfg.backbone_faults_per_year *. ((wend -. t) /. year) in
  let n = if mean > 0.0 then Simkit.Dist.poisson coord.coord_rng ~mean else 0 in
  for _ = 1 to n do
    let onset =
      t +. min_cross_latency +. (Simkit.Prng.float coord.coord_rng *. (wend -. t))
    in
    let site = Simkit.Prng.choose_list coord.coord_rng Testbed.Inventory.sites in
    let duration = cfg.backbone_outage_hours *. Simkit.Calendar.hour in
    coord.backbone_faults <- coord.backbone_faults + 1;
    Array.iter
      (fun m ->
        ignore
          (Simkit.Engine.schedule_at m.eng ~label:"federation-backbone"
             ~time:onset (fun eng ->
               let faults = Env.faults m.menv in
               match
                 Testbed.Faults.inject_on faults
                   ~now:(Simkit.Engine.now eng)
                   Testbed.Faults.Network_partition (Testbed.Faults.Site site)
               with
               | Some fault ->
                 Env.tracef m.menv ~category:"federation" "backbone #%d %s"
                   fault.Testbed.Faults.id fault.Testbed.Faults.what;
                 ignore
                   (Simkit.Engine.schedule eng ~delay:duration (fun eng ->
                        Testbed.Faults.repair faults
                          ~now:(Simkit.Engine.now eng) fault))
               | None -> ())))
      members
  done;
  (* 3. Federation-wide health audit: aggregate in-service nodes and
     active faults across all members. *)
  while coord.next_audit <= t do
    coord.next_audit <- coord.next_audit +. cfg.audit_period;
    let in_service, active = coupling_scan members in
    coord.audits <- coord.audits + 1;
    if in_service < coord.min_in_service then coord.min_in_service <- in_service;
    coord.active_sum <- coord.active_sum +. float_of_int active
  done

(* ---- drivers ------------------------------------------------------------- *)

let advance_sequential cfg members ~wend =
  (* Round-robin over shards: shard 0's members first, then shard 1's —
     the order the parallel driver merely overlaps. *)
  for s = 0 to cfg.shards - 1 do
    Array.iteri
      (fun i m -> if i mod cfg.shards = s then Simkit.Engine.run_until m.eng wend)
      members
  done

let advance_interleaved order rng members ~wend =
  Simkit.Prng.shuffle rng order;
  Array.iter (fun i -> Simkit.Engine.run_until members.(i).eng wend) order

let advance_parallel cfg members ~wend =
  if cfg.shards = 1 then advance_sequential cfg members ~wend
  else begin
    let shard s =
      Array.to_list members
      |> List.filteri (fun i _ -> i mod cfg.shards = s)
    in
    let domains =
      List.init cfg.shards (fun s ->
          let mine = shard s in
          Domain.spawn (fun () ->
              List.iter (fun m -> Simkit.Engine.run_until m.eng wend) mine))
    in
    (* Join every shard before re-raising, so no domain keeps mutating
       members while the first exception propagates. *)
    let failures =
      List.filter_map
        (fun d ->
          match Domain.join d with
          | () -> None
          | exception e -> Some (e, Printexc.get_raw_backtrace ()))
        domains
    in
    match failures with
    | (e, bt) :: _ -> Printexc.raise_with_backtrace e bt
    | [] -> ()
  end

(* The unsharded oracle: one global event loop over the whole
   federation, always executing the earliest pending event across all
   members (ties to the lowest member index), and re-establishing the
   cross-testbed coupling state after every event — the conservative
   zero-lookahead discipline an unsharded engine must follow, since any
   event may have changed what the coordinator can see.  Produces
   byte-identical results, so [test_federation] checks the sharded
   drivers against it. *)
let advance_reference members ~wend =
  let continue_ = ref true in
  while !continue_ do
    let best = ref (-1) and best_t = ref infinity in
    Array.iteri
      (fun i m ->
        match Simkit.Engine.next_time m.eng with
        | Some ti when ti <= wend && ti < !best_t ->
          best := i;
          best_t := ti
        | _ -> ())
      members;
    if !best < 0 then continue_ := false
    else begin
      ignore (Simkit.Engine.step members.(!best).eng);
      ignore (Sys.opaque_identity (coupling_scan members))
    end
  done;
  Array.iter (fun m -> Simkit.Engine.run_until m.eng wend) members

(* ---- run ----------------------------------------------------------------- *)

let run cfg =
  let specs = validate cfg in
  let members =
    specs
    |> List.map (fun spec ->
           let sim = Campaign.prepare (member_campaign cfg spec) in
           {
             spec_ = spec;
             sim;
             eng = Campaign.sim_engine sim;
             menv = Campaign.sim_env sim;
             link_rng =
               Simkit.Prng.create
                 (Simkit.Prng.derive cfg.seed
                    (Simkit.Streams.federation_link_tag spec.Testbed.Fleet.index));
             requests = 0;
             grants = 0;
             denials = 0;
             link_tests = 0;
             link_failures = 0;
             next_want =
               cfg.vlan_request_period
               *. float_of_int (spec.Testbed.Fleet.index + 1)
               /. float_of_int cfg.testbeds;
           })
    |> Array.of_list
  in
  let horizon = Campaign.sim_horizon members.(0).sim in
  let coord =
    {
      barriers = 0;
      backbone_faults = 0;
      audits = 0;
      min_in_service = max_int;
      active_sum = 0.0;
      next_audit = cfg.audit_period;
      grant_expiries = [];
      coord_rng =
        Simkit.Prng.create (Simkit.Prng.derive cfg.seed Simkit.Streams.coordinator_tag);
    }
  in
  let interleave =
    match cfg.driver with
    | Interleaved seed ->
      Some
        ( Array.init cfg.testbeds (fun i -> i),
          Simkit.Prng.create (Simkit.Prng.derive seed Simkit.Streams.interleave_tag) )
    | _ -> None
  in
  let t = ref 0.0 in
  while !t < horizon do
    let wend = Float.min (!t +. cfg.lookahead) horizon in
    coordinate cfg coord members ~t:!t ~wend;
    (match cfg.driver with
     | Sequential -> advance_sequential cfg members ~wend
     | Interleaved _ ->
       let order, rng = Option.get interleave in
       advance_interleaved order rng members ~wend
     | Parallel -> advance_parallel cfg members ~wend
     | Reference -> advance_reference members ~wend);
    t := wend
  done;
  let member_reports =
    Array.to_list members
    |> List.map (fun m ->
           {
             spec = m.spec_;
             report = Campaign.finalize m.sim;
             events = Simkit.Engine.events_executed m.eng;
           })
  in
  let sum f = List.fold_left (fun acc mr -> acc + f mr) 0 member_reports in
  let monthly_sum f =
    sum (fun mr ->
        List.fold_left (fun acc mo -> acc + f mo) 0 mr.report.Campaign.monthly)
  in
  let builds = monthly_sum (fun mo -> mo.Campaign.builds) in
  let successes = monthly_sum (fun mo -> mo.Campaign.successful) in
  let total_nodes = cfg.testbeds * Testbed.Inventory.total_nodes in
  {
    fed_cfg = cfg;
    members = member_reports;
    coordination =
      {
        barriers = coord.barriers;
        backbone_faults = coord.backbone_faults;
        vlan_requests = Array.fold_left (fun a m -> a + m.requests) 0 members;
        vlan_grants = Array.fold_left (fun a m -> a + m.grants) 0 members;
        vlan_denials = Array.fold_left (fun a m -> a + m.denials) 0 members;
        link_tests = Array.fold_left (fun a m -> a + m.link_tests) 0 members;
        link_failures = Array.fold_left (fun a m -> a + m.link_failures) 0 members;
        audits = coord.audits;
        min_in_service =
          (if coord.audits = 0 then total_nodes else coord.min_in_service);
        mean_active_faults =
          (if coord.audits = 0 then nan
           else coord.active_sum /. float_of_int coord.audits);
      };
    aggregate_builds = builds;
    aggregate_successes = successes;
    aggregate_success_ratio =
      (if builds = 0 then nan else float_of_int successes /. float_of_int builds);
    aggregate_bugs_filed = sum (fun mr -> mr.report.Campaign.bugs_filed);
    aggregate_bugs_fixed = sum (fun mr -> mr.report.Campaign.bugs_fixed);
    aggregate_faults_injected = sum (fun mr -> mr.report.Campaign.faults_injected);
    aggregate_faults_detected = sum (fun mr -> mr.report.Campaign.faults_detected);
    aggregate_faults_repaired = sum (fun mr -> mr.report.Campaign.faults_repaired);
    aggregate_workload_jobs = sum (fun mr -> mr.report.Campaign.workload_jobs);
    aggregate_nodes = total_nodes;
    events_total = sum (fun mr -> mr.events);
  }

(* ---- rendering ----------------------------------------------------------- *)

let coordination_to_json (c : coordination) =
  Simkit.Json.Obj
    [ ("barriers", Simkit.Json.Int c.barriers);
      ("backbone_faults", Simkit.Json.Int c.backbone_faults);
      ("vlan_requests", Simkit.Json.Int c.vlan_requests);
      ("vlan_grants", Simkit.Json.Int c.vlan_grants);
      ("vlan_denials", Simkit.Json.Int c.vlan_denials);
      ("link_tests", Simkit.Json.Int c.link_tests);
      ("link_failures", Simkit.Json.Int c.link_failures);
      ("audits", Simkit.Json.Int c.audits);
      ("min_in_service", Simkit.Json.Int c.min_in_service);
      ("mean_active_faults", Simkit.Json.Float c.mean_active_faults) ]

let report_to_json ?(full = false) r =
  let open Simkit.Json in
  let member mr =
    let s = mr.spec in
    let common =
      [ ("id", String s.Testbed.Fleet.id);
        ("seed", String (Int64.to_string s.Testbed.Fleet.seed));
        ("fault_bias", Float s.Testbed.Fleet.fault_bias);
        ("executors", Int s.Testbed.Fleet.executors);
        ("workload_scale", Float s.Testbed.Fleet.workload_scale);
        ("events", Int mr.events) ]
    in
    let tail =
      if full then [ ("report", Report.to_json mr.report) ]
      else
        [ ("builds", Int mr.report.Campaign.builds_total);
          ("bugs_filed", Int mr.report.Campaign.bugs_filed);
          ("bugs_fixed", Int mr.report.Campaign.bugs_fixed);
          ("faults_injected", Int mr.report.Campaign.faults_injected);
          ("workload_jobs", Int mr.report.Campaign.workload_jobs) ]
    in
    Obj (common @ tail)
  in
  Obj
    [ ("testbeds", Int r.fed_cfg.testbeds);
      ("shards", Int r.fed_cfg.shards);
      ("lookahead_s", Float r.fed_cfg.lookahead);
      ("seed", String (Int64.to_string r.fed_cfg.seed));
      ("driver", String (driver_to_string r.fed_cfg.driver));
      ("months", Int r.fed_cfg.base.Campaign.months);
      ("coordination", coordination_to_json r.coordination);
      ( "aggregate",
        Obj
          [ ("nodes", Int r.aggregate_nodes);
            ("builds", Int r.aggregate_builds);
            ("successes", Int r.aggregate_successes);
            ("success_ratio", Float r.aggregate_success_ratio);
            ("bugs_filed", Int r.aggregate_bugs_filed);
            ("bugs_fixed", Int r.aggregate_bugs_fixed);
            ("faults_injected", Int r.aggregate_faults_injected);
            ("faults_detected", Int r.aggregate_faults_detected);
            ("faults_repaired", Int r.aggregate_faults_repaired);
            ("workload_jobs", Int r.aggregate_workload_jobs);
            ("events", Int r.events_total) ] );
      ("members", List (List.map member r.members)) ]

let render r =
  let rows =
    List.map
      (fun mr ->
        let s = mr.spec in
        [ s.Testbed.Fleet.id;
          Printf.sprintf "%.2f" s.Testbed.Fleet.fault_bias;
          string_of_int s.Testbed.Fleet.executors;
          Printf.sprintf "%.2f" s.Testbed.Fleet.workload_scale;
          string_of_int mr.report.Campaign.builds_total;
          Statuspage.fmt_ratio
            (let b, su =
               List.fold_left
                 (fun (b, su) mo -> (b + mo.Campaign.builds, su + mo.Campaign.successful))
                 (0, 0) mr.report.Campaign.monthly
             in
             if b = 0 then nan else float_of_int su /. float_of_int b);
          string_of_int mr.report.Campaign.bugs_filed;
          string_of_int mr.report.Campaign.faults_injected;
          string_of_int mr.events ])
      r.members
  in
  let c = r.coordination in
  Simkit.Table.render
    ~header:
      [ "testbed"; "bias"; "exec"; "load"; "builds"; "success"; "bugs";
        "faults"; "events" ]
    rows
  ^ Printf.sprintf
      "federation: %d testbeds (%d nodes), %d shards, %s driver, lookahead %.0f s\n"
      r.fed_cfg.testbeds r.aggregate_nodes r.fed_cfg.shards
      (driver_to_string r.fed_cfg.driver)
      r.fed_cfg.lookahead
  ^ Printf.sprintf
      "coordination: %d barriers, %d backbone faults, VLANs %d/%d granted (%d denied), %d link tests (%d failed), %d audits\n"
      c.barriers c.backbone_faults c.vlan_grants c.vlan_requests c.vlan_denials
      c.link_tests c.link_failures c.audits
  ^ Printf.sprintf
      "aggregate: %d builds (success %s), %d bugs filed (%d fixed), %d faults injected, %d events\n"
      r.aggregate_builds
      (Statuspage.fmt_ratio r.aggregate_success_ratio)
      r.aggregate_bugs_filed r.aggregate_bugs_fixed r.aggregate_faults_injected
      r.events_total
