(* Trustlint tests: the linter is clean on every seed/example
   configuration, each seeded defect class is flagged with exactly its
   diagnostic code (deterministic cases plus a qcheck mutation suite),
   and the runtime auditor detects injected invariant violations and
   same-timestamp event-ordering races while keeping audited campaigns
   byte-identical to unaudited ones. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let codes diags =
  List.sort_uniq String.compare (List.map (fun d -> d.Framework.Lint.code) diags)

let check_only_code expected diags =
  checkb
    (Printf.sprintf "flags %s and nothing else (got: %s)" expected
       (String.concat "," (codes diags)))
    true
    (codes diags = [ expected ])

(* ---- clean on all seed/example configurations ----------------------------- *)

let test_catalog_clean () =
  checki "full catalog lints clean" 0
    (List.length (Framework.Lint.check_catalog ()))

let test_presets_clean () =
  List.iter
    (fun (name, cfg) ->
      let diags = Framework.Lint.run cfg in
      checkb
        (Printf.sprintf "preset %s lints clean (got: %s)" name
           (String.concat "," (codes diags)))
        true (diags = []))
    Framework.Lint.presets

(* ---- one deterministic mutation per defect class --------------------------- *)

let some_config family =
  match Framework.Testdef.expand family with
  | c :: _ -> c
  | [] -> Alcotest.failf "family has no configurations"

let test_l001_duplicate_id () =
  let c = some_config Framework.Testdef.Stdenv in
  let diags = Framework.Lint.check_configs [ c; c ] in
  check_only_code "L001" diags;
  checki "exactly one duplicate diagnostic" 1 (List.length diags)

let test_l002_unknown_cluster () =
  let c = some_config Framework.Testdef.Stdenv in
  let diags =
    Framework.Lint.check_configs
      [ { c with Framework.Testdef.cluster = Some "atlantis-0" } ]
  in
  check_only_code "L002" diags

let test_l002_site_contradicts_cluster () =
  let c = some_config Framework.Testdef.Stdenv in
  let spec =
    Option.get
      (Testbed.Inventory.find_cluster
         (Option.get c.Framework.Testdef.cluster))
  in
  let wrong_site =
    List.find
      (fun s -> not (String.equal s spec.Testbed.Inventory.site))
      Testbed.Inventory.sites
  in
  let diags =
    Framework.Lint.check_configs
      [ { c with Framework.Testdef.site = Some wrong_site } ]
  in
  check_only_code "L002" diags

let test_l003_kwapi_off_wattmeter_site () =
  let c = some_config Framework.Testdef.Kwapi in
  let non_wattmeter =
    List.find
      (fun s -> not (List.mem s Testbed.Inventory.wattmeter_sites))
      Testbed.Inventory.sites
  in
  let diags =
    Framework.Lint.check_configs
      [ { c with Framework.Testdef.site = Some non_wattmeter } ]
  in
  check_only_code "L003" diags

let test_l003_mpigraph_without_ib () =
  let c = some_config Framework.Testdef.Mpigraph in
  let no_ib =
    List.find
      (fun s -> not s.Testbed.Inventory.has_ib)
      Testbed.Inventory.clusters
  in
  let diags =
    Framework.Lint.check_configs
      [ { c with
          Framework.Testdef.cluster = Some no_ib.Testbed.Inventory.cluster;
          site = Some no_ib.Testbed.Inventory.site;
        } ]
  in
  check_only_code "L003" diags

let test_l004_unsatisfiable_filter () =
  (* graphene is in nancy, so pinning it to lyon matches nothing. *)
  let diags =
    Framework.Lint.check_filter ~path:"t" "cluster='graphene' and site='lyon'"
  in
  check_only_code "L004" diags

let test_l005_vacuous_filter () =
  let diags = Framework.Lint.check_filter ~path:"t" "deploy='YES'" in
  check_only_code "L005" diags;
  checkb "vacuous filter is a warning, not an error" true
    (Framework.Lint.errors diags = [])

let test_l006_syntax_error () =
  let diags = Framework.Lint.check_filter ~path:"t" "cluster=='x' and" in
  check_only_code "L006" diags

let test_l007_unknown_property () =
  let diags = Framework.Lint.check_filter ~path:"t" "flopsrate>=100" in
  check_only_code "L007" diags

let test_l008_bad_poll_period () =
  let diags =
    Framework.Lint.check_policy ~path:"p"
      { Framework.Scheduler.smart_policy with
        Framework.Scheduler.poll_period = 0.0;
      }
  in
  check_only_code "L008" diags

let test_l008_peak_starvation () =
  let diags =
    Framework.Lint.check_policy ~path:"p"
      { Framework.Scheduler.smart_policy with
        Framework.Scheduler.poll_period = 14.0 *. 3600.0;
      }
  in
  check_only_code "L008" diags

let test_l009_zero_retry_budget () =
  let diags =
    Framework.Lint.check_policy ~path:"p"
      { Framework.Scheduler.smart_policy with Framework.Scheduler.retry_budget = 0 }
  in
  check_only_code "L009" diags

let test_l009_bad_breaker () =
  let diags =
    Framework.Lint.check_policy ~path:"p"
      { Framework.Scheduler.smart_policy with
        Framework.Scheduler.breaker =
          Some { Framework.Resilience.Breaker.failure_threshold = 0; cooldown = -1.0 };
      }
  in
  check_only_code "L009" diags

let test_l010_bad_mttr () =
  let diags =
    Framework.Lint.check_health ~path:"h"
      { Framework.Health.default_config with
        Framework.Health.default_mttr = Simkit.Dist.Constant 0.0;
      }
  in
  check_only_code "L010" diags

let test_l011_zero_months () =
  let diags =
    Framework.Lint.run
      { Framework.Campaign.default_config with Framework.Campaign.months = 0 }
  in
  check_only_code "L011" diags

let test_l011_beyond_horizon_fault_warns () =
  let diags =
    Framework.Lint.run
      { Framework.Campaign.default_config with
        Framework.Campaign.months = 1;
        staged_families = [ (0, Framework.Testdef.all_families) ];
        infra_faults =
          [ (2.0 *. Simkit.Calendar.month, Testbed.Faults.Ci_outage) ];
      }
  in
  check_only_code "L011" diags;
  checkb "beyond-horizon fault is a warning" true
    (Framework.Lint.errors diags = [])

let test_l012_anti_affinity_bottleneck () =
  let diags =
    Framework.Lint.run
      { Framework.Campaign.default_config with
        Framework.Campaign.executors = 20;
        staged_families = [ (0, [ Framework.Testdef.Disk ]) ];
      }
  in
  check_only_code "L012" diags;
  checkb "bottleneck is a warning" true (Framework.Lint.errors diags = [])

let test_l014_unordered_ladder () =
  let diags =
    Framework.Lint.check_serve ~path:"s"
      { Framework.Serve.default_config with
        Framework.Serve.stale_queue = 500;
        fallback_queue = 100;
      }
  in
  check_only_code "L014" diags;
  checkb "unordered ladder is an error" true (Framework.Lint.errors diags <> [])

let test_l014_dead_bucket () =
  let diags =
    Framework.Lint.check_serve ~path:"s"
      { Framework.Serve.default_config with Framework.Serve.rate_limit = 0.0 }
  in
  check_only_code "L014" diags;
  checkb "dead bucket is an error" true (Framework.Lint.errors diags <> [])

let test_l014_burst_caps_admission_warns () =
  (* burst < rate_limit x tick_period: the once-per-tick refill silently
     caps sustained admission below the configured rate. *)
  let diags =
    Framework.Lint.check_serve ~path:"s"
      { Framework.Serve.default_config with
        Framework.Serve.rate_limit = 200.0;
        burst = 100.0;
        tick_period = 30.0;
      }
  in
  check_only_code "L014" diags;
  checkb "capped burst is a warning, not an error" true
    (Framework.Lint.errors diags = [])

let test_l014_via_campaign_config () =
  let diags =
    Framework.Lint.run
      { Framework.Campaign.default_config with
        Framework.Campaign.serve =
          Some
            { Framework.Serve.default_config with
              Framework.Serve.readers_per_s = -1.0;
            };
      }
  in
  check_only_code "L014" diags

(* ---- L015: federation configurations ---------------------------------------- *)

let fed_default = Framework.Federation.default_config
let fed_check fc = Framework.Lint.check_federation ~path:"fed" fc

let check_l015_error fc =
  let diags = fed_check fc in
  check_only_code "L015" diags;
  checkb "federation defect is an error" true (Framework.Lint.errors diags <> [])

let test_l015_default_clean () =
  checki "default federation config lints clean" 0
    (List.length (fed_check fed_default))

let test_l015_shards_exceed_testbeds () =
  check_l015_error
    { fed_default with Framework.Federation.testbeds = 3; shards = 5 }

let test_l015_nonpositive_shape () =
  List.iter check_l015_error
    [ { fed_default with Framework.Federation.testbeds = 0 };
      { fed_default with Framework.Federation.shards = 0 } ]

let test_l015_short_lookahead () =
  (* Positive but below the smallest cross-testbed latency: a barrier
     decision could land inside the window it was computed for. *)
  check_l015_error
    { fed_default with
      Framework.Federation.lookahead =
        Framework.Federation.min_cross_latency /. 2.0;
    }

let test_l015_duplicate_names () =
  check_l015_error
    { fed_default with
      Framework.Federation.testbeds = 2;
      shards = 1;
      names = [ "grid-a"; "grid-a" ];
    }

let test_l015_bad_ranges () =
  let r = Testbed.Fleet.default_ranges in
  List.iter check_l015_error
    [ { fed_default with
        Framework.Federation.ranges =
          { r with Testbed.Fleet.fault_bias = (2.0, 1.0) };
      };
      { fed_default with
        Framework.Federation.ranges =
          { r with Testbed.Fleet.workload_scale = (0.0, 1.0) };
      };
      { fed_default with
        Framework.Federation.ranges = { r with Testbed.Fleet.executors = (0, 4) };
      } ]

let test_l015_zero_vlans_warns () =
  let diags = fed_check { fed_default with Framework.Federation.global_vlans = 0 } in
  check_only_code "L015" diags;
  checkb "a starved VLAN pool is a warning, not an error" true
    (Framework.Lint.errors diags = [])

let test_l015_bad_cadences () =
  List.iter check_l015_error
    [ { fed_default with Framework.Federation.global_vlans = -1 };
      { fed_default with Framework.Federation.backbone_faults_per_year = -1.0 };
      { fed_default with Framework.Federation.backbone_outage_hours = 0.0 };
      { fed_default with Framework.Federation.vlan_request_period = 0.0 };
      { fed_default with Framework.Federation.audit_period = -3600.0 } ]

(* ---- semantic passes (Semlint) ---------------------------------------------- *)

let catalog = Framework.Testdef.catalog ()

let test_l016_contradiction () =
  let diags =
    Framework.Lint.check_filter ~path:"t" "site='nancy' and site='lyon'"
  in
  check_only_code "L016" diags;
  checkb "an inventory-independent contradiction is an error" true
    (Framework.Lint.errors diags <> [])

let test_l016_tautology () =
  let diags =
    Framework.Lint.check_filter ~path:"t" "gpu='YES' or gpu!='YES'"
  in
  check_only_code "L016" diags;
  checkb "a tautology is a warning, not an error" true
    (Framework.Lint.errors diags = [])

let test_l017_lexicographic_hazard () =
  (* memnode values are plain integers; '64G' does not parse, so OAR
     would order the pair lexicographically ('8' >= '64G' is true). *)
  let diags = Framework.Lint.check_filter ~path:"t" "memnode>='64G'" in
  checkb
    (Printf.sprintf "flags the lexicographic hazard (got: %s)"
       (String.concat "," (codes diags)))
    true
    (List.mem "L017" (codes diags));
  checkb "hazards are warnings" true (Framework.Lint.errors diags = [])

let test_l017_integer_vs_decimal_unsat () =
  (* cpufreq values are decimals ("2.27"): an integer literal never
     compares numerically, the ordering is false on every host, and the
     root cause surfaces as L004 with the hazard as its explanation. *)
  let diags = Framework.Lint.check_filter ~path:"t" "cpufreq>2" in
  check_only_code "L004" diags;
  checkb "the unsat verdict carries a fix suggestion" true
    (List.exists (fun d -> d.Framework.Lint.fix <> None) diags)

let test_host_literal_filter_clean () =
  (* The old representative-row heuristic called any host='...' filter
     unsatisfiable; the abstract domain resolves canonical host names. *)
  checkb "host equality on a real host lints clean" true
    (Framework.Lint.check_filter ~path:"t" "host='graphene-2.nancy'" = []);
  check_only_code "L004"
    (Framework.Lint.check_filter ~path:"t" "host='graphene-2.lyon'")

let test_l018_executor_starvation () =
  let diags =
    Framework.Lint.check_schedulability ~path:"q"
      ~policy:Framework.Scheduler.smart_policy ~executors:1 catalog
  in
  check_only_code "L018" diags;
  checkb "provable oversubscription is an error" true
    (Framework.Lint.errors diags <> [])

let test_l018_near_capacity_warns () =
  let diags =
    Framework.Lint.check_schedulability ~path:"q"
      ~policy:Framework.Scheduler.smart_policy ~executors:3 catalog
  in
  check_only_code "L018" diags;
  checkb "demand within capacity but above the watermark warns" true
    (Framework.Lint.errors diags = [])

let prop_l018_monotone_in_executors =
  QCheck.Test.make ~count:30
    ~name:"capacity findings only improve as executors grow"
    QCheck.(int_range 1 12)
    (fun executors ->
      let at n =
        Framework.Lint.check_schedulability ~path:"q"
          ~policy:Framework.Scheduler.smart_policy ~executors:n catalog
      in
      let errs ds = Framework.Lint.errors ds <> [] in
      let any ds = ds <> [] in
      ((not (errs (at (executors + 1)))) || errs (at executors))
      && ((not (any (at (executors + 1)))) || any (at executors)))

let site_spread_pair () =
  (* Two simultaneous multi-pool acquisitions over the same >=2-cluster
     site admit a circular wait unless something serializes them. *)
  let multi_cluster_site =
    List.find
      (fun s -> List.length (Testbed.Inventory.clusters_of_site s) >= 2)
      Testbed.Inventory.sites
  in
  let c =
    List.find
      (fun c ->
        Framework.Testdef.need c.Framework.Testdef.family
        = Framework.Testdef.Site_spread
        && c.Framework.Testdef.site = Some multi_cluster_site)
      catalog
  in
  [ c; { c with Framework.Testdef.config_id = c.Framework.Testdef.config_id ^ ":b" } ]

let test_l019_site_spread_deadlock () =
  let configs = site_spread_pair () in
  let diags =
    Framework.Lint.check_schedulability ~path:"q"
      ~policy:Framework.Scheduler.naive_policy ~executors:64 configs
  in
  check_only_code "L019" diags;
  checkb "a deadlock cycle is an error" true
    (Framework.Lint.errors diags <> [])

let test_l019_serialized_cannot_deadlock () =
  let configs = site_spread_pair () in
  checkb "one-job-per-site serializes the acquisitions" true
    (Framework.Lint.check_schedulability ~path:"q"
       ~policy:Framework.Scheduler.smart_policy ~executors:64 configs
    = [])

let test_l020_oversized_federation () =
  (* From 65537 members the fleet range [0x20000, ...) runs into itself
     colliding with the link range [0x10000, 0x10000 + members). *)
  let diags =
    Framework.Lint.check_federation ~path:"fed"
      { Framework.Federation.default_config with
        Framework.Federation.testbeds = 65537;
      }
  in
  checkb
    (Printf.sprintf "oversized fleet trips the stream registry (got: %s)"
       (String.concat "," (codes diags)))
    true
    (List.mem "L020" (codes diags))

let test_l020_legacy_layout_collides () =
  (* The pre-registry layout derived fleet members at bare index i; the
     registry proves it collides with the interleave tag (0x1E) from 31
     testbeds — the latent defect this pass exists to catch. *)
  let legacy = { Simkit.Streams.name = "fleet members (legacy)"; base = 0; count = 50 } in
  let collisions =
    Simkit.Streams.overlaps
      [ legacy; Simkit.Streams.interleave; Simkit.Streams.coordinator ]
  in
  checki "interleave aliased" 1 (List.length collisions)

let test_l020_registry_clean_at_roadmap_scales () =
  List.iter
    (fun members ->
      checkb
        (Printf.sprintf "registry collision-free at %d members" members)
        true
        (Simkit.Streams.overlaps (Simkit.Streams.registry ~members) = []))
    [ 1; 31; 50; 193; 65536 ]

let prop_stream_overlaps_oracle =
  QCheck.Test.make ~count:200
    ~name:"overlap detection agrees with brute-force tag enumeration"
    QCheck.(
      list_of_size (Gen.int_range 0 5)
        (pair (int_bound 40) (int_range (-2) 12)))
    (fun raw ->
      let ranges =
        List.mapi
          (fun i (base, count) ->
            { Simkit.Streams.name = Printf.sprintf "r%d" i; base; count })
          raw
      in
      let brute a b =
        a.Simkit.Streams.count > 0 && b.Simkit.Streams.count > 0
        && List.exists
             (fun t ->
               t >= b.Simkit.Streams.base
               && t < b.Simkit.Streams.base + b.Simkit.Streams.count)
             (List.init a.Simkit.Streams.count (fun i -> a.Simkit.Streams.base + i))
      in
      let expected = ref 0 in
      List.iteri
        (fun i a ->
          List.iteri (fun j b -> if j > i && brute a b then incr expected) ranges)
        ranges;
      List.length (Simkit.Streams.overlaps ranges) = !expected)

(* ---- abstract-interpretation soundness oracle ------------------------------- *)

(* Random synthetic inventories + random filters: the concrete
   feasible-host count (enumerating Semlint.host_props rows through the
   runtime Oar.Expr.eval) must lie inside the proved interval. *)

let base_spec = List.hd Testbed.Inventory.clusters

let gen_specs =
  let open QCheck.Gen in
  let site = oneofl [ "nancy"; "lyon"; "grenoble" ] in
  let spec i =
    map
      (fun (site, (nodes, freq, ram), (gpu, ib, rate)) ->
        { base_spec with
          Testbed.Inventory.cluster = Printf.sprintf "q%c" (Char.chr (97 + i));
          site;
          nodes;
          freq_ghz = freq;
          ram_gb = ram;
          has_gpu = gpu;
          has_ib = ib;
          nic_rate_gbps = rate;
        })
      (triple site
         (triple (int_range 1 6) (oneofl [ 1.7; 2.27; 3.0 ]) (oneofl [ 16; 64; 128 ]))
         (triple bool bool (oneofl [ 1.0; 10.0 ])))
  in
  int_range 1 3 >>= fun n -> flatten_l (List.init n spec)

let gen_filter_expr =
  let open QCheck.Gen in
  let prop =
    oneofl
      [ "cluster"; "site"; "cores"; "cpufreq"; "memnode"; "gpu"; "ib";
        "eth10g"; "deploy"; "host" ]
  in
  let value =
    oneof
      [ map (fun i -> Oar.Expr.I i) (int_range 0 130);
        map
          (fun s -> Oar.Expr.S s)
          (oneofl
             [ "qa"; "qb"; "nancy"; "lyon"; "YES"; "NO"; "2.27"; "64";
               "qa-2.nancy"; "qb-1.lyon"; "64G" ]) ]
  in
  let op =
    oneofl [ Oar.Expr.Eq; Oar.Expr.Neq; Oar.Expr.Ge; Oar.Expr.Le; Oar.Expr.Gt; Oar.Expr.Lt ]
  in
  let cmp = map3 (fun p o v -> Oar.Expr.Cmp (p, o, v)) prop op value in
  sized_size (int_bound 4)
    (fix (fun self n ->
         if n <= 0 then
           frequency
             [ (6, cmp); (1, return Oar.Expr.True); (1, return Oar.Expr.False) ]
         else
           frequency
             [ (3, cmp);
               (2, map2 (fun a b -> Oar.Expr.And (a, b)) (self (n - 1)) (self (n - 1)));
               (2, map2 (fun a b -> Oar.Expr.Or (a, b)) (self (n - 1)) (self (n - 1)));
               (1, map (fun a -> Oar.Expr.Not a) (self (n - 1))) ]))

let arb_soundness_case =
  QCheck.make
    ~print:(fun (specs, e) ->
      Printf.sprintf "%s over [%s]"
        (Oar.Expr.to_string e)
        (String.concat "; "
           (List.map
              (fun s ->
                Printf.sprintf "%s.%s x%d" s.Testbed.Inventory.cluster
                  s.Testbed.Inventory.site s.Testbed.Inventory.nodes)
              specs)))
    QCheck.Gen.(pair gen_specs gen_filter_expr)

let prop_bounds_sound =
  QCheck.Test.make ~count:1000
    ~name:"proved per-cluster bounds always contain the concrete count"
    arb_soundness_case
    (fun (specs, e) ->
      let dom = Framework.Semlint.domain_of_clusters specs in
      List.for_all
        (fun (spec, { Framework.Semlint.lo; hi }) ->
          let concrete = ref 0 in
          for i = 1 to spec.Testbed.Inventory.nodes do
            let row = Framework.Semlint.host_props spec i in
            if Oar.Expr.eval e ~props:(fun p -> List.assoc_opt p row) then
              incr concrete
          done;
          lo <= !concrete && !concrete <= hi)
        (Framework.Semlint.cluster_bounds dom e))

let prop_bounds_sound_after_normalize =
  QCheck.Test.make ~count:500
    ~name:"normalize + abstraction agree with the runtime evaluator"
    arb_soundness_case
    (fun (specs, e) ->
      let dom = Framework.Semlint.domain_of_clusters specs in
      let n = Oar.Expr.normalize e in
      List.for_all
        (fun (spec, { Framework.Semlint.lo; hi }) ->
          let concrete = ref 0 in
          for i = 1 to spec.Testbed.Inventory.nodes do
            let row = Framework.Semlint.host_props spec i in
            if Oar.Expr.eval e ~props:(fun p -> List.assoc_opt p row) then
              incr concrete
          done;
          lo <= !concrete && !concrete <= hi)
        (Framework.Semlint.cluster_bounds dom n))

(* ---- qcheck mutation suite -------------------------------------------------- *)

let prop_config_mutations =
  QCheck.Test.make ~count:100
    ~name:"mutated catalog configs are flagged with exactly their class"
    QCheck.(pair (int_bound (List.length catalog - 1)) (int_bound 2))
    (fun (idx, defect) ->
      let c = List.nth catalog idx in
      let mutated, expected =
        match defect with
        | 0 -> ([ c; c ], "L001")
        | 1 ->
          ([ { c with Framework.Testdef.cluster = Some "nonexistent-1" } ], "L002")
        | _ -> ([ { c with Framework.Testdef.site = Some "atlantis" } ], "L002")
      in
      codes (Framework.Lint.check_configs mutated) = [ expected ])

let prop_generated_filters =
  QCheck.Test.make ~count:100
    ~name:"filters over a real cluster lint clean; contradictions are L004"
    QCheck.(
      pair (int_bound (List.length Testbed.Inventory.clusters - 1)) bool)
    (fun (idx, contradict) ->
      let spec = List.nth Testbed.Inventory.clusters idx in
      if contradict then
        let wrong_site =
          List.find
            (fun s -> not (String.equal s spec.Testbed.Inventory.site))
            Testbed.Inventory.sites
        in
        let filter =
          Printf.sprintf "cluster='%s' and site='%s'"
            spec.Testbed.Inventory.cluster wrong_site
        in
        codes (Framework.Lint.check_filter ~path:"q" filter) = [ "L004" ]
      else
        let filter =
          Printf.sprintf "cluster='%s' and site='%s'"
            spec.Testbed.Inventory.cluster spec.Testbed.Inventory.site
        in
        Framework.Lint.check_filter ~path:"q" filter = [])

let prop_policy_mutations =
  QCheck.Test.make ~count:50
    ~name:"out-of-range policy knobs map to their diagnostic code"
    QCheck.(pair (int_bound 2) (int_range 1 100))
    (fun (defect, magnitude_i) ->
      let magnitude = float_of_int magnitude_i in
      let p = Framework.Scheduler.smart_policy in
      let mutated, expected =
        match defect with
        | 0 ->
          ( { p with Framework.Scheduler.poll_period = -.magnitude },
            "L008" )
        | 1 ->
          ( { p with Framework.Scheduler.retry_budget = -int_of_float magnitude },
            "L009" )
        | _ ->
          ( { p with Framework.Scheduler.backoff_jitter = 1.5 +. magnitude },
            "L009" )
      in
      codes (Framework.Lint.check_policy ~path:"q" mutated) = [ expected ])

let prop_serve_mutations =
  QCheck.Test.make ~count:50
    ~name:"out-of-range serve knobs are flagged L014"
    QCheck.(pair (int_bound 4) (int_range 1 100))
    (fun (defect, magnitude_i) ->
      let magnitude = float_of_int magnitude_i in
      let sc = Framework.Serve.default_config in
      let mutated =
        match defect with
        | 0 -> { sc with Framework.Serve.rate_limit = -.magnitude }
        | 1 -> { sc with Framework.Serve.tick_period = -.magnitude }
        | 2 -> { sc with Framework.Serve.readers_per_s = -.magnitude }
        | 3 -> { sc with Framework.Serve.hysteresis_s = -.magnitude }
        | _ ->
          { sc with
            Framework.Serve.fallback_queue = sc.Framework.Serve.stale_queue;
          }
      in
      codes (Framework.Lint.check_serve ~path:"q" mutated) = [ "L014" ])

let prop_federation_mutations =
  QCheck.Test.make ~count:50
    ~name:"out-of-range federation knobs are flagged L015"
    QCheck.(pair (int_bound 6) (int_range 1 100))
    (fun (defect, magnitude_i) ->
      let m = float_of_int magnitude_i in
      let fc = Framework.Federation.default_config in
      let mutated =
        match defect with
        | 0 ->
          { fc with
            Framework.Federation.shards =
              fc.Framework.Federation.testbeds + magnitude_i;
          }
        | 1 -> { fc with Framework.Federation.testbeds = -magnitude_i }
        | 2 ->
          (* Anywhere in (0, min_cross_latency): positive, but breaks the
             conservative-lookahead contract. *)
          { fc with
            Framework.Federation.lookahead =
              Framework.Federation.min_cross_latency *. (1.0 -. (m /. 101.0));
          }
        | 3 -> { fc with Framework.Federation.vlan_request_period = -.m }
        | 4 -> { fc with Framework.Federation.audit_period = -.m }
        | 5 -> { fc with Framework.Federation.backbone_faults_per_year = -.m }
        | _ ->
          { fc with
            Framework.Federation.ranges =
              { fc.Framework.Federation.ranges with
                Testbed.Fleet.executors = (-magnitude_i, 4);
              };
          }
      in
      let diags = Framework.Lint.check_federation ~path:"q" mutated in
      codes diags = [ "L015" ] && Framework.Lint.errors diags <> [])

(* ---- runtime auditor --------------------------------------------------------- *)

let test_audit_registered_check_fires () =
  let engine = Simkit.Engine.create () in
  let audit = Simkit.Audit.create ~period:10.0 engine in
  let healthy = ref true in
  Simkit.Audit.register audit ~name:"flag" (fun () ->
      if !healthy then Ok () else Error "flag dropped");
  Simkit.Audit.start audit;
  ignore (Simkit.Engine.schedule_at engine ~time:35.0 (fun _ -> healthy := false));
  Simkit.Engine.run_until engine 60.0;
  let vs = Simkit.Audit.violations audit in
  checkb "violations recorded once unhealthy" true (vs <> []);
  checkb "all violations name the failing check" true
    (List.for_all (fun v -> String.equal v.Simkit.Audit.check "flag") vs);
  checkb "first violation at the first tick past the flip" true
    ((List.hd vs).Simkit.Audit.at >= 35.0);
  checkb "checks ran at every cadence tick" true
    (Simkit.Audit.checks_run audit >= 6)

let test_audit_race_detected () =
  let engine = Simkit.Engine.create () in
  let audit = Simkit.Audit.create ~period:1e9 engine in
  let counter = ref 0 in
  Simkit.Audit.watch audit ~name:"counter" (fun () -> !counter);
  Simkit.Audit.start audit;
  ignore (Simkit.Engine.schedule_at engine ~time:5.0 ~label:"a" (fun _ -> incr counter));
  ignore (Simkit.Engine.schedule_at engine ~time:5.0 ~label:"b" (fun _ -> incr counter));
  Simkit.Engine.run_until engine 10.0;
  checki "one race flagged" 1 (Simkit.Audit.races_flagged audit);
  checkb "race violation names the probe and both sources" true
    (List.exists
       (fun v -> String.equal v.Simkit.Audit.check "event-order-race")
       (Simkit.Audit.violations audit))

let test_audit_no_race_same_source () =
  let engine = Simkit.Engine.create () in
  let audit = Simkit.Audit.create ~period:1e9 engine in
  let counter = ref 0 in
  Simkit.Audit.watch audit ~name:"counter" (fun () -> !counter);
  Simkit.Audit.start audit;
  (* Same logical source: commutation is not an observable hazard. *)
  ignore (Simkit.Engine.schedule_at engine ~time:5.0 ~label:"a" (fun _ -> incr counter));
  ignore (Simkit.Engine.schedule_at engine ~time:5.0 ~label:"a" (fun _ -> incr counter));
  (* Distinct sources at distinct times: no tie, no race. *)
  ignore (Simkit.Engine.schedule_at engine ~time:6.0 ~label:"b" (fun _ -> incr counter));
  ignore (Simkit.Engine.schedule_at engine ~time:7.0 ~label:"c" (fun _ -> incr counter));
  (* Time-tied but only one of them touches the watched state. *)
  ignore (Simkit.Engine.schedule_at engine ~time:8.0 ~label:"d" (fun _ -> incr counter));
  ignore (Simkit.Engine.schedule_at engine ~time:8.0 ~label:"e" (fun _ -> ()));
  Simkit.Engine.run_until engine 10.0;
  checki "no races flagged" 0 (Simkit.Audit.races_flagged audit)

let test_audit_unlabelled_events_never_race () =
  let engine = Simkit.Engine.create () in
  let audit = Simkit.Audit.create ~period:1e9 engine in
  let counter = ref 0 in
  Simkit.Audit.watch audit ~name:"counter" (fun () -> !counter);
  Simkit.Audit.start audit;
  ignore (Simkit.Engine.schedule_at engine ~time:5.0 (fun _ -> incr counter));
  ignore (Simkit.Engine.schedule_at engine ~time:5.0 (fun _ -> incr counter));
  Simkit.Engine.run_until engine 10.0;
  checki "anonymous events cannot be attributed" 0
    (Simkit.Audit.races_flagged audit)

let test_scheduler_audit_check_live () =
  let env = Framework.Env.create ~seed:77L () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let s = Framework.Scheduler.create env in
  List.iter (Framework.Scheduler.enable_family s) Framework.Testdef.all_families;
  Framework.Scheduler.start s;
  let failures = ref [] in
  (* Cross-check the scheduler's incremental state every 2 simulated
     hours of a 3-day full-catalog run. *)
  Simkit.Engine.every (Framework.Env.engine env) ~period:7200.0 (fun _ ->
      (match Framework.Scheduler.audit_check s with
       | Ok () -> ()
       | Error e -> failures := e :: !failures);
      true);
  Framework.Env.run_until env (3.0 *. Simkit.Calendar.day);
  checkb
    (Printf.sprintf "audit_check holds throughout (%s)"
       (String.concat " | " !failures))
    true (!failures = [])

let test_auditor_clean_on_healthy_env () =
  let env = Framework.Env.create ~seed:78L () in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  let s = Framework.Scheduler.create env in
  List.iter (Framework.Scheduler.enable_family s) Framework.Testdef.all_families;
  Framework.Scheduler.start s;
  let audit = Framework.Auditor.attach ~period:3600.0 ~scheduler:s env in
  Simkit.Audit.start audit;
  Framework.Env.run_until env (2.0 *. Simkit.Calendar.day);
  let summary = Simkit.Audit.summary audit in
  checkb "checks ran" true (summary.Simkit.Audit.checks_run > 100);
  checkb "events observed" true (summary.Simkit.Audit.events_observed > 0);
  checkb
    (Printf.sprintf "no violations on a healthy run (%s)"
       (String.concat " | "
          (List.map
             (fun v -> v.Simkit.Audit.check ^ ": " ^ v.Simkit.Audit.detail)
             summary.Simkit.Audit.violations)))
    true
    (summary.Simkit.Audit.violations = [])

let light_workload =
  { Oar.Workload.default_profile with Oar.Workload.base_rate_per_hour = 8.0 }

let test_campaign_audit_byte_identical () =
  let base =
    { Framework.Campaign.default_config with
      Framework.Campaign.months = 1;
      seed = 55L;
      workload = Some light_workload;
    }
  in
  let off = Framework.Campaign.run base in
  let on_ = Framework.Campaign.run { base with Framework.Campaign.audit = true } in
  checkb "audit-off report has no audit member" true
    (off.Framework.Campaign.audit = None);
  checkb "audit-on report carries the summary" true
    (on_.Framework.Campaign.audit <> None);
  let strip r = { r with Framework.Campaign.audit = None } in
  Alcotest.(check string)
    "audited campaign reproduces the unaudited report byte for byte"
    (Framework.Report.to_string (strip off))
    (Framework.Report.to_string (strip on_));
  match on_.Framework.Campaign.audit with
  | Some s ->
    checkb "campaign audit ran its checks" true (s.Simkit.Audit.checks_run > 0);
    checkb "campaign audit is violation-free" true (s.Simkit.Audit.violations = [])
  | None -> ()

(* ---- rendering --------------------------------------------------------------- *)

let test_render_and_json () =
  let diags =
    Framework.Lint.check_filter ~path:"example" "cluster='graphene' and site='lyon'"
  in
  let text = Framework.Lint.render diags in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "render mentions the code" true (contains text "L004");
  match Framework.Lint.to_json diags with
  | Simkit.Json.Obj members ->
    checkb "json has diagnostics member" true
      (List.mem_assoc "diagnostics" members);
    (match List.assoc "errors" members with
     | Simkit.Json.Int 1 -> ()
     | _ -> Alcotest.fail "expected exactly one error in json summary")
  | _ -> Alcotest.fail "expected a json object"

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "lint"
    [
      ( "clean",
        [ Alcotest.test_case "catalog" `Quick test_catalog_clean;
          Alcotest.test_case "presets" `Quick test_presets_clean ] );
      ( "defect classes",
        [ Alcotest.test_case "L001 duplicate id" `Quick test_l001_duplicate_id;
          Alcotest.test_case "L002 unknown cluster" `Quick test_l002_unknown_cluster;
          Alcotest.test_case "L002 site/cluster contradiction" `Quick
            test_l002_site_contradicts_cluster;
          Alcotest.test_case "L003 kwapi off wattmeter site" `Quick
            test_l003_kwapi_off_wattmeter_site;
          Alcotest.test_case "L003 mpigraph without ib" `Quick
            test_l003_mpigraph_without_ib;
          Alcotest.test_case "L004 unsatisfiable filter" `Quick
            test_l004_unsatisfiable_filter;
          Alcotest.test_case "L005 vacuous filter" `Quick test_l005_vacuous_filter;
          Alcotest.test_case "L006 syntax error" `Quick test_l006_syntax_error;
          Alcotest.test_case "L007 unknown property" `Quick test_l007_unknown_property;
          Alcotest.test_case "L008 bad poll period" `Quick test_l008_bad_poll_period;
          Alcotest.test_case "L008 peak starvation" `Quick test_l008_peak_starvation;
          Alcotest.test_case "L009 zero retry budget" `Quick
            test_l009_zero_retry_budget;
          Alcotest.test_case "L009 bad breaker" `Quick test_l009_bad_breaker;
          Alcotest.test_case "L010 bad mttr" `Quick test_l010_bad_mttr;
          Alcotest.test_case "L011 zero months" `Quick test_l011_zero_months;
          Alcotest.test_case "L011 beyond-horizon fault" `Quick
            test_l011_beyond_horizon_fault_warns;
          Alcotest.test_case "L012 anti-affinity bottleneck" `Quick
            test_l012_anti_affinity_bottleneck;
          Alcotest.test_case "L014 unordered ladder" `Quick
            test_l014_unordered_ladder;
          Alcotest.test_case "L014 dead bucket" `Quick test_l014_dead_bucket;
          Alcotest.test_case "L014 burst caps admission" `Quick
            test_l014_burst_caps_admission_warns;
          Alcotest.test_case "L014 via campaign config" `Quick
            test_l014_via_campaign_config;
          Alcotest.test_case "L015 default federation clean" `Quick
            test_l015_default_clean;
          Alcotest.test_case "L015 shards exceed testbeds" `Quick
            test_l015_shards_exceed_testbeds;
          Alcotest.test_case "L015 non-positive shape" `Quick
            test_l015_nonpositive_shape;
          Alcotest.test_case "L015 sub-latency lookahead" `Quick
            test_l015_short_lookahead;
          Alcotest.test_case "L015 duplicate member names" `Quick
            test_l015_duplicate_names;
          Alcotest.test_case "L015 bad fleet ranges" `Quick test_l015_bad_ranges;
          Alcotest.test_case "L015 zero vlans warns" `Quick
            test_l015_zero_vlans_warns;
          Alcotest.test_case "L015 bad coordination cadences" `Quick
            test_l015_bad_cadences ] );
      ( "semantic passes",
        [ Alcotest.test_case "L016 contradiction" `Quick test_l016_contradiction;
          Alcotest.test_case "L016 tautology" `Quick test_l016_tautology;
          Alcotest.test_case "L017 lexicographic hazard" `Quick
            test_l017_lexicographic_hazard;
          Alcotest.test_case "L017 integer vs decimal is unsat" `Quick
            test_l017_integer_vs_decimal_unsat;
          Alcotest.test_case "host literal filters resolve" `Quick
            test_host_literal_filter_clean;
          Alcotest.test_case "L018 executor starvation" `Quick
            test_l018_executor_starvation;
          Alcotest.test_case "L018 near capacity warns" `Quick
            test_l018_near_capacity_warns;
          Alcotest.test_case "L019 site-spread deadlock" `Quick
            test_l019_site_spread_deadlock;
          Alcotest.test_case "L019 serialized cannot deadlock" `Quick
            test_l019_serialized_cannot_deadlock;
          Alcotest.test_case "L020 oversized federation" `Quick
            test_l020_oversized_federation;
          Alcotest.test_case "L020 legacy layout collides" `Quick
            test_l020_legacy_layout_collides;
          Alcotest.test_case "L020 registry clean at roadmap scales" `Quick
            test_l020_registry_clean_at_roadmap_scales;
          qc prop_l018_monotone_in_executors;
          qc prop_stream_overlaps_oracle ] );
      ( "soundness oracle",
        [ qc prop_bounds_sound; qc prop_bounds_sound_after_normalize ] );
      ( "mutation properties",
        [ qc prop_config_mutations; qc prop_generated_filters;
          qc prop_policy_mutations; qc prop_serve_mutations;
          qc prop_federation_mutations ] );
      ( "runtime audit",
        [ Alcotest.test_case "registered check fires" `Quick
            test_audit_registered_check_fires;
          Alcotest.test_case "race detected" `Quick test_audit_race_detected;
          Alcotest.test_case "no race without a hazard" `Quick
            test_audit_no_race_same_source;
          Alcotest.test_case "anonymous events never race" `Quick
            test_audit_unlabelled_events_never_race;
          Alcotest.test_case "scheduler self-check over 3 days" `Slow
            test_scheduler_audit_check_live;
          Alcotest.test_case "auditor clean on healthy env" `Slow
            test_auditor_clean_on_healthy_env;
          Alcotest.test_case "campaign byte-identity" `Slow
            test_campaign_audit_byte_identical ] );
      ( "rendering",
        [ Alcotest.test_case "render and json" `Quick test_render_and_json ] );
    ]
