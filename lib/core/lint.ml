type severity = Error | Warning | Info

type diagnostic = {
  code : string;
  severity : severity;
  path : string;
  message : string;
  fix : string option;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let diag code severity path fmt =
  Printf.ksprintf (fun message -> { code; severity; path; message; fix = None }) fmt

let of_finding (f : Semlint.finding) =
  {
    code = f.Semlint.code;
    severity = (match f.Semlint.severity with Semlint.Error -> Error | Semlint.Warning -> Warning);
    path = f.Semlint.path;
    message = f.Semlint.message;
    fix = f.Semlint.fix;
  }

let errors diags = List.filter (fun d -> d.severity = Error) diags

let sort diags =
  List.stable_sort
    (fun a b ->
      match compare (severity_rank a.severity) (severity_rank b.severity) with
      | 0 -> (
        match String.compare a.code b.code with
        | 0 -> String.compare a.path b.path
        | c -> c)
      | c -> c)
    diags

(* {2 Filter checks: L004-L007 and L016-L017}

   Shape first (syntax, property vocabulary), then the semantic verdicts
   come from Semlint's abstract interpreter: feasible-host-count bounds
   proved over the full inventory instead of the old representative-row
   heuristic (which reported host-literal filters as unsatisfiable —
   only cluster-1 existed in its world). *)

let known_properties =
  [ "host"; "cluster"; "site"; "cores"; "cpufreq"; "memnode"; "gpu";
    "eth10g"; "ib"; "wattmeter"; "deploy" ]

let check_filter ~path filter =
  match Oar.Expr.parse filter with
  | Error msg -> [ diag "L006" Error path "OAR filter syntax error: %s" msg ]
  | Ok expr -> (
    let unknown =
      List.filter
        (fun p -> not (List.mem p known_properties))
        (Oar.Expr.properties_used expr)
    in
    match unknown with
    | _ :: _ ->
      List.map
        (fun p ->
          diag "L007" Warning path
            "unknown OAR property '%s' in filter %S (known: %s)" p filter
            (String.concat ", " known_properties))
        unknown
    | [] -> List.map of_finding (Semlint.check_expr ~path ~filter expr))

(* {2 Configuration checks: L001-L003} *)

let family_supported (s : Testbed.Inventory.cluster_spec) = function
  | Testdef.Kwapi -> List.mem s.site Testbed.Inventory.wattmeter_sites
  | Testdef.Mpigraph -> s.has_ib
  | Testdef.Dellbios -> s.vendor = Testbed.Hardware.Dell
  | _ -> true

let family_requirement = function
  | Testdef.Kwapi -> "a wattmeter-instrumented site"
  | Testdef.Mpigraph -> "an InfiniBand cluster"
  | Testdef.Dellbios -> "a Dell cluster"
  | _ -> "a cluster"

let need_supported (s : Testbed.Inventory.cluster_spec) = function
  | Testdef.No_nodes -> true
  | Testdef.One_node | Testdef.Whole_cluster | Testdef.Site_spread ->
    s.nodes >= 1
  | Testdef.Two_nodes -> s.nodes >= 2

let serving_clusters (c : Testdef.config) =
  match c.cluster with
  | Some cl -> (
    match Testbed.Inventory.find_cluster cl with Some s -> [ s ] | None -> [])
  | None -> (
    match c.site with
    | Some s -> Testbed.Inventory.clusters_of_site s
    | None -> Testbed.Inventory.clusters)

let check_references (c : Testdef.config) =
  let path = c.config_id in
  let cluster_diags =
    match c.cluster with
    | None -> []
    | Some cl -> (
      match Testbed.Inventory.find_cluster cl with
      | None ->
        [ diag "L002" Error path "references unknown cluster '%s'" cl ]
      | Some spec -> (
        match c.site with
        | Some site when not (String.equal site spec.site) ->
          [ diag "L002" Error path
              "site '%s' contradicts cluster '%s' (which is in '%s')" site cl
              spec.site ]
        | _ -> []))
  in
  let site_diags =
    match c.site with
    | Some s when not (List.mem s Testbed.Inventory.sites) ->
      [ diag "L002" Error path "references unknown site '%s'" s ]
    | _ -> []
  in
  cluster_diags @ site_diags

let check_runnable (c : Testdef.config) =
  let path = c.config_id in
  let need = Testdef.need c.family in
  let eligible =
    serving_clusters c
    |> List.filter (fun s -> family_supported s c.family)
    |> List.filter (fun s -> need_supported s need)
  in
  if eligible = [] then
    [ diag "L003" Error path
        "unrunnable: no inventory resource can serve a %s configuration \
         here (needs %s%s)"
        (Testdef.family_to_string c.family)
        (family_requirement c.family)
        (match (c.cluster, c.site) with
        | Some cl, _ -> Printf.sprintf "; pinned to cluster '%s'" cl
        | None, Some s -> Printf.sprintf "; pinned to site '%s'" s
        | None, None -> "") ]
  else []

let check_configs configs =
  let seen = Hashtbl.create 1024 in
  let duplicates =
    List.filter_map
      (fun (c : Testdef.config) ->
        if Hashtbl.mem seen c.config_id then
          Some
            (diag "L001" Error c.config_id
               "duplicate configuration id (collides with an earlier %s \
                configuration)"
               (Testdef.family_to_string c.family))
        else begin
          Hashtbl.replace seen c.config_id ();
          None
        end)
      configs
  in
  let per_config =
    List.concat_map
      (fun (c : Testdef.config) ->
        match check_references c with
        | _ :: _ as refs ->
          (* Dangling references make downstream checks pure noise: an
             unknown cluster is also unrunnable and its generated filter
             unsatisfiable.  Report the root cause only. *)
          refs
        | [] ->
          check_runnable c @ check_filter ~path:c.config_id (Testdef.oar_filter c))
      configs
  in
  duplicates @ per_config

let check_catalog () = check_configs (Testdef.catalog ())

(* {2 Scheduler policy checks: L008-L009} *)

(* Longest stretch of consecutive peak-window skips a weekday run can see:
   19:00 -> 08:00 is 13 h of off-peak; a poll period at or beyond it can
   systematically land every poll inside working hours. *)
let weekday_offpeak = 13.0 *. 3600.0

let check_policy ~path (p : Scheduler.policy) =
  let e fmt = diag "L008" Error path fmt in
  let timing =
    (if p.poll_period <= 0.0 then
       [ e "poll_period must be positive (got %g)" p.poll_period ]
     else [])
    @
    if p.avoid_peak_hours && p.poll_period >= weekday_offpeak then
      [ e
          "avoid_peak_hours with poll_period %g s >= the 13 h weekday \
           off-peak window: node-consuming tests can starve for days"
          p.poll_period ]
    else []
  in
  let r fmt = diag "L009" Error path fmt in
  let resilience =
    (if p.retry_budget <= 0 then
       [ r "retry_budget must be at least 1 (got %d); 0 disables every retry \
            including the first"
           p.retry_budget ]
     else [])
    @ (if p.backoff_jitter < 0.0 || p.backoff_jitter > 1.0 then
         [ r "backoff_jitter must lie in [0, 1] (got %g)" p.backoff_jitter ]
       else [])
    @
    match p.breaker with
    | None -> []
    | Some (b : Resilience.Breaker.config) ->
      (if b.failure_threshold <= 0 then
         [ r "breaker failure_threshold must be positive (got %d): the \
              breaker would open on the first completion"
             b.failure_threshold ]
       else [])
      @
      if b.cooldown <= 0.0 then
        [ r "breaker cooldown must be positive (got %g): an open breaker \
             would re-probe immediately and never shed load"
            b.cooldown ]
      else []
  in
  timing @ resilience

(* {2 Health configuration checks: L010} *)

let finite_positive x = Float.is_finite x && x > 0.0

let check_health ~path (h : Health.config) =
  let e fmt = diag "L010" Error path fmt in
  let thresholds =
    (if h.quarantine_threshold <= 0.0 then
       [ e "quarantine_threshold must be positive (got %g)"
           h.quarantine_threshold ]
     else [])
    @ (if h.suspect_threshold <= 0.0 then
         [ e "suspect_threshold must be positive (got %g)" h.suspect_threshold ]
       else [])
    @ (if
         h.suspect_threshold > 0.0 && h.quarantine_threshold > 0.0
         && not
              (Health.release_threshold < h.suspect_threshold
              && h.suspect_threshold <= h.quarantine_threshold)
       then
         [ e
             "thresholds must satisfy release (%g) < suspect (%g) <= \
              quarantine (%g)"
             Health.release_threshold h.suspect_threshold h.quarantine_threshold ]
       else [])
  in
  let timing =
    (if h.decay_half_life <= 0.0 then
       [ e "decay_half_life must be positive (got %g)" h.decay_half_life ]
     else [])
    @ (if h.sweep_period <= 0.0 then
         [ e "sweep_period must be positive (got %g)" h.sweep_period ]
       else [])
    @ (if h.triage_delay < 0.0 then
         [ e "triage_delay must be non-negative (got %g)" h.triage_delay ]
       else [])
    @
    if h.max_repair_attempts < 1 then
      [ e "max_repair_attempts must be at least 1 (got %d)"
          h.max_repair_attempts ]
    else []
  in
  let mttr =
    let bad_default =
      if not (finite_positive (Simkit.Dist.mean h.default_mttr)) then
        [ e "default_mttr has non-positive mean (%g): repairs would \
             complete instantly or never"
            (Simkit.Dist.mean h.default_mttr) ]
      else []
    in
    let bad_kinds =
      List.filter_map
        (fun kind ->
          let m = Simkit.Dist.mean (h.mttr_of_kind kind) in
          if not (finite_positive m) then
            Some
              (e "mttr_of_kind %s has non-positive mean (%g)"
                 (Testbed.Faults.kind_to_string kind)
                 m)
          else None)
        Testbed.Faults.all_kinds
    in
    bad_default @ bad_kinds
  in
  thresholds @ timing @ mttr

(* {2 Triage configuration checks: L013} *)

let check_triage ~path (tc : Triage.config) =
  let e fmt = diag "L013" Error path fmt in
  let w fmt = diag "L013" Warning path fmt in
  let l = tc.Triage.limits in
  let limits =
    (if l.Bugtracker.ring_size <= 0 then
       [ e "limits.ring_size must be positive (got %d)" l.Bugtracker.ring_size ]
     else [])
    @ (if l.Bugtracker.max_live <= 0 then
         [ e "limits.max_live must be positive (got %d)" l.Bugtracker.max_live ]
       else [])
    @ (if l.Bugtracker.min_idle < 0.0 then
         [ e "limits.min_idle must be non-negative (got %g)"
             l.Bugtracker.min_idle ]
       else [])
    @ (if l.Bugtracker.series_cadence <= 0.0 then
         [ e "limits.series_cadence must be positive (got %g)"
             l.Bugtracker.series_cadence ]
       else [])
    @
    if l.Bugtracker.series_points < 2 then
      [ e "limits.series_points must be at least 2 (got %d)"
          l.Bugtracker.series_points ]
    else []
  in
  let dedup =
    (if tc.Triage.dedup_window < 0.0 then
       [ e "dedup_window must be non-negative (got %g)" tc.Triage.dedup_window ]
     else [])
    @
    (* Eviction thrash: a bug evicted while its duplicate burst is still
       being collapsed means the next retry resurrects it — correctness
       holds (tombstones), but the store churns on every retry chain. *)
    if
      l.Bugtracker.min_idle >= 0.0 && tc.Triage.dedup_window >= 0.0
      && l.Bugtracker.min_idle < tc.Triage.dedup_window
    then
      [ w "limits.min_idle (%g s) is below dedup_window (%g s): a bug can \
             be evicted while its retry burst is still collapsing, churning \
             the tombstone store"
          l.Bugtracker.min_idle tc.Triage.dedup_window ]
    else []
  in
  let flaps =
    if tc.Triage.flap_cycles < 2 then
      [ e "flap_cycles must be at least 2 (got %d): a single reopen is a \
           regression, not a flap"
          tc.Triage.flap_cycles ]
    else []
  in
  let drill =
    match tc.Triage.drill with
    | None -> []
    | Some d ->
      (if d.Triage.evidence_loss < 0.0 || d.Triage.evidence_loss > 1.0 then
         [ e "drill.evidence_loss must lie in [0, 1] (got %g)"
             d.Triage.evidence_loss ]
       else [])
      @ (if d.Triage.filing_delay < 0.0 then
           [ e "drill.filing_delay must be non-negative (got %g)"
               d.Triage.filing_delay ]
         else [])
      @
      if d.Triage.evidence_loss >= 1.0 then
        [ w "drill.evidence_loss of %g drops every bundle: the pipeline \
           files nothing"
            d.Triage.evidence_loss ]
      else []
  in
  limits @ dedup @ flaps @ drill

(* {2 Serving configuration checks: L014} *)

let check_serve ~path (sc : Serve.config) =
  let e fmt = diag "L014" Error path fmt in
  let w fmt = diag "L014" Warning path fmt in
  let admission =
    (if sc.Serve.rate_limit <= 0.0 then
       [ e "rate_limit must be positive (got %g): the bucket never refills \
            and every read is shed"
           sc.Serve.rate_limit ]
     else [])
    @ (if sc.Serve.burst < 1.0 then
         [ e "burst must be at least 1 (got %g): admission needs one whole \
              token to ever serve a read"
             sc.Serve.burst ]
       else [])
    @ (if sc.Serve.queue_limit < 0 then
         [ e "queue_limit must be non-negative (got %d)" sc.Serve.queue_limit ]
       else [])
    @
    (* The bucket refills once per service tick, capped at burst: a
       burst below rate_limit x tick_period silently caps sustained
       admission below the configured rate. *)
    if
      sc.Serve.rate_limit > 0.0 && sc.Serve.tick_period > 0.0
      && sc.Serve.burst < sc.Serve.rate_limit *. sc.Serve.tick_period
    then
      [ w "burst (%g) is below rate_limit x tick_period (%g): sustained \
           admission is capped at burst/tick_period = %g reads/s, not \
           rate_limit"
          sc.Serve.burst
          (sc.Serve.rate_limit *. sc.Serve.tick_period)
          (sc.Serve.burst /. sc.Serve.tick_period) ]
    else []
  in
  let ladder =
    (if sc.Serve.stale_queue <= 0 then
       [ e "stale_queue must be positive (got %d): the service would start \
            degraded"
           sc.Serve.stale_queue ]
     else [])
    @ (if sc.Serve.fallback_queue <= sc.Serve.stale_queue then
         [ e
             "degradation thresholds must be ordered stale_queue (%d) < \
              fallback_queue (%d): Fresh -> Stale -> Static_fallback"
             sc.Serve.stale_queue sc.Serve.fallback_queue ]
       else [])
    @ (if sc.Serve.hysteresis_s < 0.0 then
         [ e "hysteresis_s must be non-negative (got %g)" sc.Serve.hysteresis_s ]
       else [])
    @
    if
      sc.Serve.queue_limit >= 0 && sc.Serve.stale_queue > 0
      && sc.Serve.stale_queue > sc.Serve.queue_limit
    then
      [ w "stale_queue (%d) exceeds queue_limit (%d): the queue can never \
           get deep enough to degrade, overload is pure shedding"
          sc.Serve.stale_queue sc.Serve.queue_limit ]
    else []
  in
  let workload =
    (if sc.Serve.tick_period <= 0.0 then
       [ e "tick_period must be positive (got %g)" sc.Serve.tick_period ]
     else [])
    @ (if sc.Serve.readers_per_s < 0.0 then
         [ e "readers_per_s must be non-negative (got %g)"
             sc.Serve.readers_per_s ]
       else [])
    @ (if sc.Serve.flash_every < 0.0 then
         [ e "flash_every must be non-negative (got %g)" sc.Serve.flash_every ]
       else [])
    @
    if sc.Serve.flash_every > 0.0 then
      (if
         sc.Serve.flash_duration <= 0.0
         || sc.Serve.flash_duration > sc.Serve.flash_every
       then
         [ e "flash_duration must lie in (0, flash_every] (got %g with \
              flash_every %g)"
             sc.Serve.flash_duration sc.Serve.flash_every ]
       else [])
      @
      if sc.Serve.flash_multiplier < 1.0 then
        [ w "flash_multiplier %g is below 1: the 'flash crowd' lowers load"
            sc.Serve.flash_multiplier ]
      else []
    else []
  in
  admission @ ladder @ workload

(* {2 Federation configuration checks: L015} *)

let check_federation ~path (fc : Federation.config) =
  let e fmt = diag "L015" Error path fmt in
  let w fmt = diag "L015" Warning path fmt in
  let shape =
    (if fc.Federation.testbeds <= 0 then
       [ e "testbeds must be positive (got %d)" fc.Federation.testbeds ]
     else [])
    @ (if fc.Federation.shards <= 0 then
         [ e "shards must be positive (got %d)" fc.Federation.shards ]
       else [])
    @
    if
      fc.Federation.testbeds > 0 && fc.Federation.shards > 0
      && fc.Federation.shards > fc.Federation.testbeds
    then
      [ e "shard count %d exceeds testbed count %d: %d shards would own no \
           member"
          fc.Federation.shards fc.Federation.testbeds
          (fc.Federation.shards - fc.Federation.testbeds) ]
    else []
  in
  let lookahead =
    if fc.Federation.lookahead < Federation.min_cross_latency then
      [ e "lookahead %g s is below the smallest cross-testbed latency \
           (%g s): a barrier decision could land inside the window it was \
           computed for, breaking the conservative-synchronization \
           contract"
          fc.Federation.lookahead Federation.min_cross_latency ]
    else []
  in
  let r = fc.Federation.ranges in
  let range_f what (lo, hi) =
    if not (lo > 0.0) then
      [ e "%s range lower bound must be positive (got %g)" what lo ]
    else if hi < lo then
      [ e "%s range is inverted (%g > %g)" what lo hi ]
    else []
  in
  let ranges =
    range_f "fault_bias" r.Testbed.Fleet.fault_bias
    @ range_f "workload_scale" r.Testbed.Fleet.workload_scale
    @
    let lo, hi = r.Testbed.Fleet.executors in
    if lo < 1 then [ e "executors range lower bound must be at least 1 (got %d)" lo ]
    else if hi < lo then [ e "executors range is inverted (%d > %d)" lo hi ]
    else []
  in
  let ids =
    (* Only synthesizable configurations can be checked for collisions;
       shape/range errors above already explain the rest. *)
    if fc.Federation.testbeds > 0 && ranges = [] then begin
      let seen = Hashtbl.create 16 in
      List.filter_map
        (fun (s : Testbed.Fleet.spec) ->
          if Hashtbl.mem seen s.Testbed.Fleet.id then
            Some
              (e "duplicate member id '%s' (member %d): per-member reports \
                  and coordination streams would collide"
                 s.Testbed.Fleet.id s.Testbed.Fleet.index)
          else begin
            Hashtbl.replace seen s.Testbed.Fleet.id ();
            None
          end)
        (Federation.synthesize fc)
    end
    else []
  in
  let coordination =
    (if fc.Federation.global_vlans < 0 then
       [ e "global_vlans must be non-negative (got %d)" fc.Federation.global_vlans ]
     else if fc.Federation.global_vlans = 0 then
       [ w "global_vlans is 0: every VLAN request is denied and no \
            federation link test ever runs" ]
     else [])
    @ (if fc.Federation.backbone_faults_per_year < 0.0 then
         [ e "backbone_faults_per_year must be non-negative (got %g)"
             fc.Federation.backbone_faults_per_year ]
       else [])
    @ (if
         fc.Federation.backbone_faults_per_year > 0.0
         && fc.Federation.backbone_outage_hours <= 0.0
       then
         [ e "backbone_outage_hours must be positive when backbone faults \
              are enabled (got %g)"
             fc.Federation.backbone_outage_hours ]
       else [])
    @ (if fc.Federation.vlan_request_period <= 0.0 then
         [ e "vlan_request_period must be positive (got %g)"
             fc.Federation.vlan_request_period ]
       else [])
    @
    if fc.Federation.audit_period <= 0.0 then
      [ e "audit_period must be positive (got %g)" fc.Federation.audit_period ]
    else []
  in
  let streams =
    (* L020: prove the Prng.derive tag ranges disjoint for this fleet
       size; shape errors above already explain nonsensical sizes. *)
    if shape = [] then
      List.map of_finding
        (Semlint.check_streams ~path:(path ^ ".streams") ~members:fc.Federation.testbeds)
    else []
  in
  shape @ lookahead @ ranges @ ids @ coordination @ streams

(* {2 Campaign shape and staging checks: L011-L012} *)

let check_campaign_shape (cfg : Campaign.config) =
  let path = "campaign" in
  let e fmt = diag "L011" Error path fmt in
  let w fmt = diag "L011" Warning path fmt in
  let horizon = float_of_int cfg.months *. Simkit.Calendar.month in
  (if cfg.months <= 0 then [ e "months must be positive (got %d)" cfg.months ]
   else [])
  @ (if cfg.executors <= 0 then
       [ e "executors must be positive (got %d)" cfg.executors ]
     else [])
  @ (if cfg.initial_faults < 0 then
       [ e "initial_faults must be non-negative (got %d)" cfg.initial_faults ]
     else [])
  @ (if cfg.fault_rate_per_day < 0.0 then
       [ e "fault_rate_per_day must be non-negative (got %g)"
           cfg.fault_rate_per_day ]
     else [])
  @ (if cfg.infra_faults <> [] && cfg.infra_fault_duration <= 0.0 then
       [ e "infra_fault_duration must be positive when infra faults are \
            scheduled (got %g)"
           cfg.infra_fault_duration ]
     else [])
  @ List.concat_map
      (fun (time, kind) ->
        if time < 0.0 then
          [ e "infra fault %s scheduled at negative time %g"
              (Testbed.Faults.kind_to_string kind)
              time ]
        else if cfg.months > 0 && time >= horizon then
          [ w "infra fault %s scheduled at %g s, beyond the campaign \
               horizon (%g s): it will never fire"
              (Testbed.Faults.kind_to_string kind)
              time horizon ]
        else [])
      cfg.infra_faults
  @ List.concat_map
      (fun (time, kind, _target) ->
        if time < 0.0 then
          [ e "health drill fault %s scheduled at negative time %g"
              (Testbed.Faults.kind_to_string kind)
              time ]
        else if cfg.months > 0 && time >= horizon then
          [ w "health drill fault %s scheduled at %g s, beyond the \
               campaign horizon (%g s): it will never fire"
              (Testbed.Faults.kind_to_string kind)
              time horizon ]
        else [])
      cfg.health_faults
  @
  if cfg.health = None && cfg.health_faults <> [] then
    [ w "health_faults are scheduled but no health configuration is \
         attached: the faults will be injected and never repaired" ]
  else []

let check_staging (cfg : Campaign.config) =
  let path = "campaign.staged_families" in
  let w fmt = diag "L012" Warning path fmt in
  let staged = List.concat_map snd cfg.staged_families in
  let beyond =
    List.concat_map
      (fun (month, families) ->
        if month < 0 then
          [ w "stage month %d is negative" month ]
        else if cfg.months > 0 && month >= cfg.months then
          [ w "families staged at month %d never enable in a %d-month \
               campaign: %s"
              month cfg.months
              (String.concat ", "
                 (List.map Testdef.family_to_string families)) ]
        else [])
      cfg.staged_families
  in
  let duplicates =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun f ->
        if Hashtbl.mem seen f then
          Some
            (w "family %s is staged more than once (re-staging is a no-op)"
               (Testdef.family_to_string f))
        else begin
          Hashtbl.replace seen f ();
          None
        end)
      staged
  in
  let nothing_staged =
    if cfg.enable_testing && staged = [] then
      [ w "enable_testing is set but no families are staged: the campaign \
           runs zero tests" ]
    else []
  in
  let anti_affinity =
    (* With one-job-per-site anti-affinity, at most one node-consuming
       build can run per site; executors beyond the site count are
       provably idle unless some staged family is API-only. *)
    let sites = List.length Testbed.Inventory.sites in
    let has_api_only =
      List.exists (fun f -> Testdef.need f = Testdef.No_nodes) staged
    in
    if
      cfg.policy.one_job_per_site && staged <> [] && (not has_api_only)
      && cfg.executors > sites
    then
      [ diag "L012" Warning "campaign.executors"
          "anti-affinity bottleneck: one_job_per_site caps node-consuming \
           concurrency at %d sites, but %d executors are configured and \
           every staged family consumes nodes — %d executors can never work"
          sites cfg.executors (cfg.executors - sites) ]
    else []
  in
  beyond @ duplicates @ nothing_staged @ anti_affinity

let check_schedulability ~path ~(policy : Scheduler.policy) ~executors configs =
  List.map of_finding
    (Semlint.check_capacity ~path ~policy ~executors configs
    @ Semlint.check_deadlock ~path
        ~serialized:policy.Scheduler.one_job_per_site configs)

let check_campaign (cfg : Campaign.config) =
  check_campaign_shape cfg
  @ check_staging cfg
  @ check_policy ~path:"campaign.policy" cfg.policy
  @ (match cfg.health with
    | None -> []
    | Some h -> check_health ~path:"campaign.health" h)
  @ (match cfg.triage with
    | None -> []
    | Some tc -> check_triage ~path:"campaign.triage" tc)
  @ (match cfg.serve with
    | None -> []
    | Some sc -> check_serve ~path:"campaign.serve" sc)
  @
  let staged = List.sort_uniq compare (List.concat_map snd cfg.staged_families) in
  check_configs (List.concat_map Testdef.expand staged)
  @
  (* L018/L019 over the families actually reachable within the horizon
     (L012 already warns about the others). *)
  let reachable =
    cfg.staged_families
    |> List.filter (fun (m, _) -> m >= 0 && (cfg.months <= 0 || m < cfg.months))
    |> List.concat_map snd
    |> List.sort_uniq compare
  in
  check_schedulability ~path:"campaign" ~policy:cfg.policy
    ~executors:cfg.executors
    (List.concat_map Testdef.expand reachable)

let run cfg = sort (check_campaign cfg)

(* {2 Example configurations linted by the CLI gate} *)

let presets =
  [ ("default", Campaign.default_config);
    ("naive", { Campaign.default_config with policy = Scheduler.naive_policy });
    ( "resilient",
      {
        Campaign.default_config with
        resilience = true;
        infra_faults =
          [ (20.0 *. Simkit.Calendar.day, Testbed.Faults.Ci_outage);
            (45.0 *. Simkit.Calendar.day, Testbed.Faults.Build_hang);
            (70.0 *. Simkit.Calendar.day, Testbed.Faults.Queue_loss) ];
        infra_fault_duration = 6.0 *. 3600.0;
      } );
    ( "health-drill",
      {
        Campaign.default_config with
        health = Some Health.default_config;
        health_faults =
          [ (30.0 *. Simkit.Calendar.day, Testbed.Faults.Site_outage,
             Testbed.Faults.Site "nancy");
            (60.0 *. Simkit.Calendar.day, Testbed.Faults.Pdu_failure,
             Testbed.Faults.Cluster "graphene") ];
      } );
    ( "triage",
      { Campaign.default_config with triage = Some Triage.default_config } );
    ( "serve",
      {
        Campaign.default_config with
        serve = Some Serve.default_config;
        infra_faults =
          [ (40.0 *. Simkit.Calendar.day, Testbed.Faults.Serve_crash) ];
      } ) ]

(* {2 Rendering} *)

let diagnostic_to_json d =
  Simkit.Json.Obj
    ([ ("code", Simkit.Json.String d.code);
       ("severity", Simkit.Json.String (severity_to_string d.severity));
       ("path", Simkit.Json.String d.path);
       ("message", Simkit.Json.String d.message) ]
    @ match d.fix with
      | None -> []
      | Some fix -> [ ("fix", Simkit.Json.String fix) ])

let to_json diags =
  Simkit.Json.Obj
    [ ("diagnostics", Simkit.Json.List (List.map diagnostic_to_json diags));
      ("errors", Simkit.Json.Int (List.length (errors diags)));
      ("warnings",
       Simkit.Json.Int
         (List.length (List.filter (fun d -> d.severity = Warning) diags)));
      ("total", Simkit.Json.Int (List.length diags)) ]

let render ?(explain = false) diags =
  let buf = Buffer.create 1024 in
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "%s %-7s %-40s %s\n" d.code
           (severity_to_string d.severity)
           d.path d.message);
      match d.fix with
      | Some fix when explain ->
        Buffer.add_string buf (Printf.sprintf "     fix: %s\n" fix)
      | _ -> ())
    diags;
  Buffer.add_string buf
    (Printf.sprintf "%d diagnostic%s: %d error%s, %d warning%s\n"
       (List.length diags)
       (if List.length diags = 1 then "" else "s")
       (List.length (errors diags))
       (if List.length (errors diags) = 1 then "" else "s")
       (List.length (List.filter (fun d -> d.severity = Warning) diags))
       (if List.length (List.filter (fun d -> d.severity = Warning) diags) = 1
        then ""
        else "s"));
  Buffer.contents buf
