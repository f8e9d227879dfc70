(* Tests for the testbed model: inventory, hardware, nodes, network,
   services, reference API and fault injection. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let build () = Testbed.Instance.build ~seed:123L ()

(* ---- Inventory: the paper's fixed constants ------------------------------- *)

let test_inventory_totals () =
  checki "sites" 8 (List.length Testbed.Inventory.sites);
  checki "clusters" 32 (List.length Testbed.Inventory.clusters);
  checki "nodes" 894 Testbed.Inventory.total_nodes;
  checki "cores" 8490 Testbed.Inventory.total_cores

let test_inventory_family_cardinalities () =
  let dell =
    List.filter
      (fun c -> c.Testbed.Inventory.vendor = Testbed.Hardware.Dell)
      Testbed.Inventory.clusters
  in
  let ib = List.filter (fun c -> c.Testbed.Inventory.has_ib) Testbed.Inventory.clusters in
  checki "18 Dell clusters (dellbios)" 18 (List.length dell);
  checki "10 InfiniBand clusters (mpigraph)" 10 (List.length ib);
  checki "6 wattmeter sites (kwapi)" 6 (List.length Testbed.Inventory.wattmeter_sites)

let test_inventory_consistency () =
  List.iter
    (fun spec ->
      checkb "site exists" true (List.mem spec.Testbed.Inventory.site Testbed.Inventory.sites);
      checkb "positive nodes" true (spec.Testbed.Inventory.nodes > 0);
      checkb "positive cores" true
        (spec.Testbed.Inventory.cpus * spec.Testbed.Inventory.cores_per_cpu > 0))
    Testbed.Inventory.clusters;
  (* Cluster names unique. *)
  let names = List.map (fun c -> c.Testbed.Inventory.cluster) Testbed.Inventory.clusters in
  checki "unique names" (List.length names) (List.length (List.sort_uniq compare names))

let test_inventory_lookup () =
  (match Testbed.Inventory.find_cluster "graphene" with
   | Some spec -> checks "site of graphene" "nancy" spec.Testbed.Inventory.site
   | None -> Alcotest.fail "graphene missing");
  checkb "unknown cluster" true (Testbed.Inventory.find_cluster "nosuch" = None);
  checki "nancy clusters" 8 (List.length (Testbed.Inventory.clusters_of_site "nancy"))

let test_age_factor_monotone () =
  let old_spec = Option.get (Testbed.Inventory.find_cluster "sagittaire") in
  let new_spec = Option.get (Testbed.Inventory.find_cluster "grele") in
  checkb "older hardware more fault-prone" true
    (Testbed.Inventory.age_factor old_spec > Testbed.Inventory.age_factor new_spec)

(* ---- Hardware -------------------------------------------------------------- *)

let test_hardware_perf_factors () =
  let base = Testbed.Hardware.default_settings in
  Alcotest.(check (float 1e-9))
    "mandated settings are the baseline" 1.0
    (Testbed.Hardware.cpu_perf_factor base);
  checkb "c-states cost performance" true
    (Testbed.Hardware.cpu_perf_factor { base with Testbed.Hardware.c_states = true } < 1.0);
  checkb "turbo inflates performance" true
    (Testbed.Hardware.cpu_perf_factor { base with Testbed.Hardware.turbo_boost = true } > 1.0)

let sample_disk =
  {
    Testbed.Hardware.disk_model = "test";
    size_gb = 100;
    firmware = "F1";
    write_cache = true;
    read_cache = true;
    nominal_mb_s = 100.0;
  }

let test_hardware_disk_bandwidth () =
  Alcotest.(check (float 1e-9)) "healthy disk at nominal" 100.0
    (Testbed.Hardware.disk_bandwidth sample_disk);
  checkb "write cache off cuts bandwidth" true
    (Testbed.Hardware.disk_bandwidth { sample_disk with Testbed.Hardware.write_cache = false }
     < 60.0);
  checkb "old firmware cuts bandwidth" true
    (Testbed.Hardware.disk_bandwidth { sample_disk with Testbed.Hardware.firmware = "~old-F1" }
     < 90.0)

let test_hardware_json_roundtrip_equal () =
  let spec = List.hd Testbed.Inventory.clusters in
  let hw = Testbed.Inventory.node_hardware spec in
  checkb "equal to itself via json" true (Testbed.Hardware.equal hw hw);
  let doc = Testbed.Hardware.to_json hw in
  match Simkit.Json.of_string (Simkit.Json.to_string doc) with
  | Ok parsed -> checkb "wire roundtrip" true (Simkit.Json.equal parsed doc)
  | Error e -> Alcotest.fail e

(* ---- Instance and nodes ----------------------------------------------------- *)

let test_instance_population () =
  let t = build () in
  checki "894 nodes" 894 (Array.length t.Testbed.Instance.nodes);
  checks "summary line" "8 sites, 32 clusters, 894 nodes, 8490 cores"
    (Format.asprintf "%a" Testbed.Instance.pp_summary t)

let test_instance_node_lookup () =
  let t = build () in
  let node = Testbed.Instance.node t "graphene-1.nancy" in
  checks "cluster" "graphene" node.Testbed.Node.cluster_name;
  checki "index" 1 node.Testbed.Node.index;
  checkb "unknown host" true (Testbed.Instance.find_node t "nosuch.nancy" = None);
  checki "graphene node count" 60
    (List.length (Testbed.Instance.nodes_of_cluster t "graphene"))

(* The lookups return what filtering [nodes] gave before they were
   precomputed: same nodes, same order, [[]] for an unknown name. *)
let test_instance_cluster_site_lists () =
  let t = build () in
  let filtered pred sort =
    Array.to_list t.Testbed.Instance.nodes |> List.filter pred |> sort
  in
  let same = List.equal ( == ) in
  List.iter
    (fun cluster ->
      checkb cluster true
        (same
           (Testbed.Instance.nodes_of_cluster t cluster)
           (filtered
              (fun n -> String.equal n.Testbed.Node.cluster_name cluster)
              (List.sort (fun a b -> compare a.Testbed.Node.index b.Testbed.Node.index)))))
    ("nosuch" :: List.map (fun c -> c.Testbed.Inventory.cluster) Testbed.Inventory.clusters);
  List.iter
    (fun site ->
      checkb site true
        (same
           (Testbed.Instance.nodes_of_site t site)
           (filtered (fun n -> String.equal n.Testbed.Node.site_name site) Fun.id)))
    ("nosuch" :: Testbed.Inventory.sites)

let test_nodes_start_healthy () =
  let t = build () in
  Array.iter
    (fun node ->
      checkb "alive" true (node.Testbed.Node.state = Testbed.Node.Alive);
      checkb "conforms" true
        (Testbed.Hardware.equal node.Testbed.Node.reference node.Testbed.Node.actual);
      checks "std env" "std" node.Testbed.Node.deployed_env;
      checki "default vlan" 0 node.Testbed.Node.vlan)
    t.Testbed.Instance.nodes

let test_node_boot_duration_reasonable () =
  let t = build () in
  let node = Testbed.Instance.node t "graphene-1.nancy" in
  for _ = 1 to 100 do
    let d = Testbed.Node.boot_duration node in
    checkb "boot in [30, 600] s when healthy" true (d >= 30.0 && d <= 600.0)
  done

let test_node_boot_race_delays () =
  let t = build () in
  let node = Testbed.Instance.node t "graphene-2.nancy" in
  node.Testbed.Node.behaviour.Testbed.Node.boot_race <- true;
  let slow = ref 0 in
  for _ = 1 to 300 do
    if Testbed.Node.boot_duration node > 400.0 then incr slow
  done;
  checkb "boot race produces long delays" true (!slow > 10)

let test_node_reboot_cycle () =
  let t = build () in
  let node = Testbed.Instance.node t "grisou-1.nancy" in
  let completed = ref None in
  Testbed.Instance.reboot t node ~on_done:(fun ~ok -> completed := Some ok);
  checkb "rebooting state" true (node.Testbed.Node.state = Testbed.Node.Rebooting);
  checkb "not available while rebooting" false (Testbed.Node.is_available node);
  Simkit.Engine.run_until t.Testbed.Instance.engine 3600.0;
  (match !completed with
   | Some true -> checkb "alive again" true (node.Testbed.Node.state = Testbed.Node.Alive)
   | Some false ->
     checkb "down after failed boot" true (node.Testbed.Node.state = Testbed.Node.Down)
   | None -> Alcotest.fail "reboot never completed");
  checkb "boot counted" true (node.Testbed.Node.boot_count >= 1)

let test_node_cpu_benchmark_sensitive_to_drift () =
  let t = build () in
  let node = Testbed.Instance.node t "grisou-2.nancy" in
  let healthy =
    List.init 20 (fun _ -> Testbed.Node.cpu_benchmark node) |> List.fold_left ( +. ) 0.0
  in
  let hw = node.Testbed.Node.actual in
  node.Testbed.Node.actual <-
    { hw with
      Testbed.Hardware.settings =
        { hw.Testbed.Hardware.settings with Testbed.Hardware.c_states = true } };
  let drifted =
    List.init 20 (fun _ -> Testbed.Node.cpu_benchmark node) |> List.fold_left ( +. ) 0.0
  in
  checkb "c-states drift lowers measured performance" true (drifted < healthy *. 0.98)

let test_random_reboot_process () =
  let t = build () in
  let node = Testbed.Instance.node t "helios-1.sophia" in
  Testbed.Node.set_random_reboot_mtbf node (Some 3600.0);
  Simkit.Engine.run_until t.Testbed.Instance.engine (48.0 *. 3600.0);
  checkb "spontaneous reboots observed" true (node.Testbed.Node.unexpected_reboots > 0)

(* ---- Network ----------------------------------------------------------------- *)

let test_network_cabling_initially_consistent () =
  let t = build () in
  checki "no miswired host" 0
    (List.length (Testbed.Network.miswired_hosts t.Testbed.Instance.network))

let test_network_swap_and_repair () =
  let t = build () in
  let net = t.Testbed.Instance.network in
  Testbed.Network.swap_cables net "grisou-1.nancy" "grisou-2.nancy";
  checkb "a inconsistent" false (Testbed.Network.cabling_consistent net "grisou-1.nancy");
  checkb "b inconsistent" false (Testbed.Network.cabling_consistent net "grisou-2.nancy");
  checki "two miswired" 2 (List.length (Testbed.Network.miswired_hosts net));
  Testbed.Network.repair_host net "grisou-1.nancy";
  Testbed.Network.repair_host net "grisou-2.nancy";
  checki "repaired" 0 (List.length (Testbed.Network.miswired_hosts net))

let test_network_swap_self_noop () =
  let t = build () in
  Testbed.Network.swap_cables t.Testbed.Instance.network "grisou-1.nancy" "grisou-1.nancy";
  checkb "self swap harmless" true
    (Testbed.Network.cabling_consistent t.Testbed.Instance.network "grisou-1.nancy")

let test_network_latency_hierarchy () =
  let t = build () in
  let net = t.Testbed.Instance.network in
  let a = Testbed.Instance.node t "grisou-1.nancy" in
  let b = Testbed.Instance.node t "grisou-2.nancy" in
  let d = Testbed.Instance.node t "helios-1.sophia" in
  let same_switch = Testbed.Network.latency_ms net a b in
  let cross_site = Testbed.Network.latency_ms net a d in
  checkb "LAN below WAN" true (same_switch < cross_site);
  checkb "WAN latency ~10ms" true (cross_site > 5.0 && cross_site < 20.0)

let test_network_bandwidth_limits () =
  let t = build () in
  let net = t.Testbed.Instance.network in
  let a = Testbed.Instance.node t "grisou-1.nancy" in
  let b = Testbed.Instance.node t "grisou-2.nancy" in
  let d = Testbed.Instance.node t "ecotype-1.nantes" in
  let local = Testbed.Network.bandwidth_gbps net a b in
  checkb "10G NICs near line rate locally" true (local > 9.0 && local <= 10.0);
  let wan = Testbed.Network.bandwidth_gbps net a d in
  checkb "backbone caps cross-site traffic" true (wan <= Testbed.Network.backbone_gbps net)

(* ---- Services ------------------------------------------------------------------ *)

let test_services_lifecycle () =
  let t = build () in
  let services = t.Testbed.Instance.services in
  checkb "starts up" true
    (Testbed.Services.state services ~site:"nancy" Testbed.Services.Oar = Testbed.Services.Up);
  checkb "usable when up" true (Testbed.Services.use services ~site:"nancy" Testbed.Services.Oar);
  Testbed.Services.set_state services ~site:"nancy" Testbed.Services.Oar Testbed.Services.Down;
  checkb "unusable when down" false
    (Testbed.Services.use services ~site:"nancy" Testbed.Services.Oar);
  checki "one degraded instance listed" 1
    (List.length (Testbed.Services.degraded_or_down services));
  Testbed.Services.repair services ~site:"nancy" Testbed.Services.Oar;
  checki "repair clears" 0 (List.length (Testbed.Services.degraded_or_down services))

let test_services_degraded_flaky () =
  let t = build () in
  let services = t.Testbed.Instance.services in
  Testbed.Services.set_state services ~site:"lyon" Testbed.Services.Api
    Testbed.Services.Degraded;
  let failures = ref 0 in
  for _ = 1 to 200 do
    if not (Testbed.Services.use services ~site:"lyon" Testbed.Services.Api) then incr failures
  done;
  checkb "degraded fails sometimes" true (!failures > 20 && !failures < 180)

(* ---- Reference API --------------------------------------------------------------- *)

let test_refapi_publication () =
  let t = build () in
  let api = t.Testbed.Instance.refapi in
  checki "all hosts published" 894 (List.length (Testbed.Refapi.hosts api));
  checki "version 1 after build" 1 (Testbed.Refapi.version api);
  match Testbed.Refapi.get api "graphene-1.nancy" with
  | Some doc ->
    Alcotest.(check (option string))
      "uid" (Some "graphene-1.nancy")
      (Simkit.Json.string_member "uid" doc)
  | None -> Alcotest.fail "missing document"

let test_refapi_snapshot_archive () =
  let t = build () in
  let api = t.Testbed.Instance.refapi in
  Testbed.Refapi.publish_all api ~now:100.0 (Array.to_list t.Testbed.Instance.nodes);
  checki "version bumped" 2 (Testbed.Refapi.version api);
  (match Testbed.Refapi.snapshot api 1 with
   | Some (time, docs) ->
     Alcotest.(check (float 1e-9)) "archive time" 0.0 time;
     checki "archive size" 894 (List.length docs)
   | None -> Alcotest.fail "missing snapshot 1");
  checkb "unknown snapshot" true (Testbed.Refapi.snapshot api 99 = None)

let test_refapi_corrupt_detectable () =
  let t = build () in
  let api = t.Testbed.Instance.refapi in
  let host = "grisou-1.nancy" in
  let before = Option.get (Testbed.Refapi.get api host) in
  let rng = Simkit.Prng.create 5L in
  (match Testbed.Refapi.corrupt api ~rng ~host with
   | Some _ -> ()
   | None -> Alcotest.fail "corrupt failed");
  let after = Option.get (Testbed.Refapi.get api host) in
  checkb "document changed" false (Simkit.Json.equal before after);
  checkb "diff pinpoints the change" true (List.length (Simkit.Json.diff before after) >= 1)

(* ---- Faults ------------------------------------------------------------------------ *)

let test_fault_catalogue_strings () =
  checki "25 kinds" 25 (List.length Testbed.Faults.all_kinds);
  let strings = List.map Testbed.Faults.kind_to_string Testbed.Faults.all_kinds in
  checki "distinct strings" 25 (List.length (List.sort_uniq compare strings));
  List.iter
    (fun k -> checkb "category non-empty" true (String.length (Testbed.Faults.category k) > 0))
    Testbed.Faults.all_kinds

let test_fault_inject_cpu_and_repair () =
  let t = build () in
  let faults = t.Testbed.Instance.faults in
  let host = "grisou-3.nancy" in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:10.0 Testbed.Faults.Cpu_cstates
         (Testbed.Faults.Host host))
  in
  let node = Testbed.Instance.node t host in
  checkb "c-states drifted" true
    node.Testbed.Node.actual.Testbed.Hardware.settings.Testbed.Hardware.c_states;
  checki "one active" 1 (List.length (Testbed.Faults.active faults));
  checki "active on host" 1 (List.length (Testbed.Faults.active_on_host faults host));
  Testbed.Faults.repair faults ~now:20.0 fault;
  checkb "reverted" false
    node.Testbed.Node.actual.Testbed.Hardware.settings.Testbed.Hardware.c_states;
  checki "none active" 0 (List.length (Testbed.Faults.active faults));
  checki "history keeps it" 1 (List.length (Testbed.Faults.history faults))

let test_fault_ram_loss_and_repair () =
  let t = build () in
  let faults = t.Testbed.Instance.faults in
  let host = "ecotype-1.nantes" in
  let node = Testbed.Instance.node t host in
  let before = node.Testbed.Node.actual.Testbed.Hardware.memory.Testbed.Hardware.ram_gb in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Ram_dimm_loss
         (Testbed.Faults.Host host))
  in
  let after = node.Testbed.Node.actual.Testbed.Hardware.memory.Testbed.Hardware.ram_gb in
  checkb "ram reduced" true (after < before);
  Testbed.Faults.repair faults ~now:1.0 fault;
  checki "ram restored" before
    node.Testbed.Node.actual.Testbed.Hardware.memory.Testbed.Hardware.ram_gb

let test_fault_cabling_pair () =
  let t = build () in
  let faults = t.Testbed.Instance.faults in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Cabling_swap
         (Testbed.Faults.Host_pair ("grisou-1.nancy", "grisou-2.nancy")))
  in
  checkb "miswired" false
    (Testbed.Network.cabling_consistent t.Testbed.Instance.network "grisou-1.nancy");
  Testbed.Faults.repair faults ~now:1.0 fault;
  checkb "rewired" true
    (Testbed.Network.cabling_consistent t.Testbed.Instance.network "grisou-1.nancy")

let test_fault_cluster_wide () =
  let t = build () in
  let faults = t.Testbed.Instance.faults in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Kernel_boot_race
         (Testbed.Faults.Cluster "graphene"))
  in
  let nodes = Testbed.Instance.nodes_of_cluster t "graphene" in
  checkb "all nodes racy" true
    (List.for_all (fun n -> n.Testbed.Node.behaviour.Testbed.Node.boot_race) nodes);
  checkb "fault listed on member host" true
    (List.length (Testbed.Faults.active_on_host faults "graphene-5.nancy") = 1);
  Testbed.Faults.repair faults ~now:1.0 fault;
  checkb "cleared" true
    (List.for_all (fun n -> not n.Testbed.Node.behaviour.Testbed.Node.boot_race) nodes)

let test_fault_ofed_targets_ib () =
  let t = build () in
  let faults = t.Testbed.Instance.faults in
  let rec observe tries acc =
    if tries = 0 then acc
    else
      match Testbed.Faults.inject faults ~now:0.0 Testbed.Faults.Ofed_flaky with
      | Some f -> (
        match f.Testbed.Faults.target with
        | Testbed.Faults.Cluster c -> observe (tries - 1) (c :: acc)
        | _ -> observe (tries - 1) acc)
      | None -> observe (tries - 1) acc
  in
  let clusters = observe 10 [] in
  checkb "some injections landed" true (clusters <> []);
  List.iter
    (fun c ->
      match Testbed.Inventory.find_cluster c with
      | Some spec -> checkb "IB cluster targeted" true spec.Testbed.Inventory.has_ib
      | None -> Alcotest.fail "unknown cluster")
    clusters

let test_fault_service_outage () =
  let t = build () in
  let faults = t.Testbed.Instance.faults in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Service_outage
         (Testbed.Faults.Site_service ("lyon", Testbed.Services.Console)))
  in
  checkb "console down" true
    (Testbed.Services.state t.Testbed.Instance.services ~site:"lyon" Testbed.Services.Console
     = Testbed.Services.Down);
  Testbed.Faults.repair faults ~now:1.0 fault;
  checkb "console back" true
    (Testbed.Services.state t.Testbed.Instance.services ~site:"lyon" Testbed.Services.Console
     = Testbed.Services.Up)

let test_fault_detection_marking () =
  let t = build () in
  let faults = t.Testbed.Instance.faults in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Disk_write_cache
         (Testbed.Faults.Host "parasilo-1.rennes"))
  in
  checkb "initially undetected" true (fault.Testbed.Faults.detected_at = None);
  Testbed.Faults.mark_detected faults ~now:50.0 fault;
  Testbed.Faults.mark_detected faults ~now:90.0 fault;
  Alcotest.(check (option (float 1e-9)))
    "earliest detection kept" (Some 50.0) fault.Testbed.Faults.detected_at

let test_fault_repair_idempotent () =
  let t = build () in
  let faults = t.Testbed.Instance.faults in
  let fault =
    Option.get
      (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Cpu_turbo
         (Testbed.Faults.Host "taurus-1.lyon"))
  in
  Testbed.Faults.repair faults ~now:5.0 fault;
  Testbed.Faults.repair faults ~now:9.0 fault;
  Alcotest.(check (option (float 1e-9)))
    "first repair time kept" (Some 5.0) fault.Testbed.Faults.repaired_at

let prop_random_injection_recorded =
  QCheck.Test.make ~name:"random injections are recorded and repairable" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let t = Testbed.Instance.build ~seed:(Int64.of_int (seed + 1)) () in
      let faults = t.Testbed.Instance.faults in
      let injected =
        List.filter_map
          (fun kind -> Testbed.Faults.inject faults ~now:0.0 kind)
          Testbed.Faults.all_kinds
      in
      List.iter (fun f -> Testbed.Faults.repair faults ~now:1.0 f) injected;
      Testbed.Faults.active faults = []
      && List.length (Testbed.Faults.history faults) = List.length injected)

(* The reboot set that the spontaneous-reboot sweep visits, against a
   full scan of the node array, over random injections and repairs of
   the random-reboot fault, operator resets and sweeps. *)
type reboot_op =
  | Inject_on of int  (* node of the pool *)
  | Inject_random
  | Repair of int  (* fault, by position among those injected *)
  | Reset of int
  | Sweep of int  (* minutes *)

let show_reboot_op = function
  | Inject_on i -> Printf.sprintf "inject on %d" i
  | Inject_random -> "inject random"
  | Repair k -> Printf.sprintf "repair %d" k
  | Reset i -> Printf.sprintf "reset %d" i
  | Sweep m -> Printf.sprintf "sweep %dmin" m

let prop_reboot_set_matches_scan =
  let gen_op =
    let open QCheck.Gen in
    let pooled = int_bound 5 in
    frequency
      [ (4, map (fun i -> Inject_on i) pooled); (2, return Inject_random);
        (3, map (fun k -> Repair k) (int_bound 20)); (2, map (fun i -> Reset i) pooled);
        (1, map (fun m -> Sweep m) (int_range 10 600)) ]
  in
  QCheck.Test.make ~name:"reboot set = scan of the node array" ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_reboot_op ops))
       QCheck.Gen.(list_size (int_range 1 30) gen_op))
    (fun ops ->
      let t = build () in
      let faults = t.Testbed.Instance.faults in
      let nodes = t.Testbed.Instance.nodes in
      let n = Array.length nodes in
      (* Neighbours and far ends of the array, so insertions land before,
         between and after the members. *)
      let pool = [| 0; 1; n / 4; n / 2; (n / 2) + 1; n - 1 |] in
      let injected = ref [] in
      let record = Option.iter (fun f -> injected := !injected @ [ f ]) in
      let now () = Simkit.Engine.now t.Testbed.Instance.engine in
      let agree () =
        let scanned =
          List.filter
            (fun node -> Testbed.Node.random_reboot_mtbf node <> None)
            (Array.to_list nodes)
        in
        List.equal ( == ) (Testbed.Node.reboot_prone t.Testbed.Instance.reboot_set) scanned
      in
      List.for_all
        (fun op ->
          (match op with
           | Inject_on i ->
             record
               (Testbed.Faults.inject_on faults ~now:(now ()) Testbed.Faults.Random_reboots
                  (Testbed.Faults.Host nodes.(pool.(i)).Testbed.Node.host))
           | Inject_random ->
             record (Testbed.Faults.inject faults ~now:(now ()) Testbed.Faults.Random_reboots)
           | Repair k -> (
             match List.nth_opt !injected k with
             | Some f -> Testbed.Faults.repair faults ~now:(now ()) f
             | None -> ())
           | Reset i -> Testbed.Node.reset_to_reference nodes.(pool.(i))
           | Sweep m ->
             Simkit.Engine.run_until t.Testbed.Instance.engine (now () +. (60.0 *. float_of_int m)));
          agree ())
        ops)

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "testbed"
    [
      ( "inventory",
        [ Alcotest.test_case "paper totals" `Quick test_inventory_totals;
          Alcotest.test_case "family cardinalities" `Quick
            test_inventory_family_cardinalities;
          Alcotest.test_case "consistency" `Quick test_inventory_consistency;
          Alcotest.test_case "lookup" `Quick test_inventory_lookup;
          Alcotest.test_case "age factor" `Quick test_age_factor_monotone ] );
      ( "hardware",
        [ Alcotest.test_case "perf factors" `Quick test_hardware_perf_factors;
          Alcotest.test_case "disk bandwidth" `Quick test_hardware_disk_bandwidth;
          Alcotest.test_case "json roundtrip" `Quick test_hardware_json_roundtrip_equal ] );
      ( "node",
        [ Alcotest.test_case "population" `Quick test_instance_population;
          Alcotest.test_case "lookup" `Quick test_instance_node_lookup;
          Alcotest.test_case "cluster and site lists" `Quick test_instance_cluster_site_lists;
          Alcotest.test_case "starts healthy" `Quick test_nodes_start_healthy;
          Alcotest.test_case "boot duration" `Quick test_node_boot_duration_reasonable;
          Alcotest.test_case "boot race delays" `Quick test_node_boot_race_delays;
          Alcotest.test_case "reboot cycle" `Quick test_node_reboot_cycle;
          Alcotest.test_case "cpu benchmark drift" `Quick
            test_node_cpu_benchmark_sensitive_to_drift;
          Alcotest.test_case "random reboot process" `Quick test_random_reboot_process;
          qc prop_reboot_set_matches_scan ] );
      ( "network",
        [ Alcotest.test_case "initially consistent" `Quick
            test_network_cabling_initially_consistent;
          Alcotest.test_case "swap and repair" `Quick test_network_swap_and_repair;
          Alcotest.test_case "self swap" `Quick test_network_swap_self_noop;
          Alcotest.test_case "latency hierarchy" `Quick test_network_latency_hierarchy;
          Alcotest.test_case "bandwidth limits" `Quick test_network_bandwidth_limits ] );
      ( "services",
        [ Alcotest.test_case "lifecycle" `Quick test_services_lifecycle;
          Alcotest.test_case "degraded flaky" `Quick test_services_degraded_flaky ] );
      ( "refapi",
        [ Alcotest.test_case "publication" `Quick test_refapi_publication;
          Alcotest.test_case "snapshot archive" `Quick test_refapi_snapshot_archive;
          Alcotest.test_case "corruption detectable" `Quick test_refapi_corrupt_detectable ] );
      ( "faults",
        [ Alcotest.test_case "catalogue" `Quick test_fault_catalogue_strings;
          Alcotest.test_case "cpu drift + repair" `Quick test_fault_inject_cpu_and_repair;
          Alcotest.test_case "ram loss + repair" `Quick test_fault_ram_loss_and_repair;
          Alcotest.test_case "cabling pair" `Quick test_fault_cabling_pair;
          Alcotest.test_case "cluster wide" `Quick test_fault_cluster_wide;
          Alcotest.test_case "ofed targets ib" `Quick test_fault_ofed_targets_ib;
          Alcotest.test_case "service outage" `Quick test_fault_service_outage;
          Alcotest.test_case "detection marking" `Quick test_fault_detection_marking;
          Alcotest.test_case "repair idempotent" `Quick test_fault_repair_idempotent;
          qc prop_random_injection_recorded ] );
    ]
