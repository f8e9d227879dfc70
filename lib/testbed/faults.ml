type kind =
  | Cpu_cstates
  | Cpu_hyperthreading
  | Cpu_turbo
  | Cpu_governor
  | Bios_drift
  | Disk_firmware
  | Disk_write_cache
  | Ram_dimm_loss
  | Cabling_swap
  | Kwapi_misattribution
  | Random_reboots
  | Kernel_boot_race
  | Ofed_flaky
  | Console_broken
  | Service_outage
  | Refapi_desync
  | Oar_property_desync
  | Env_image_corrupt
  | Ci_outage
  | Build_hang
  | Queue_loss
  | Serve_crash
  | Site_outage
  | Pdu_failure
  | Network_partition

type target =
  | Host of string
  | Host_pair of string * string
  | Cluster of string
  | Rack of string * int
  | Site of string
  | Site_service of string * Services.kind
  | Global of string

type fault = {
  id : int;
  kind : kind;
  target : target;
  injected_at : float;
  what : string;
  mutable detected_at : float option;
  mutable repaired_at : float option;
}

type ctx = {
  nodes : Node.t array;
  by_host : (string, Node.t) Hashtbl.t;
  network : Network.t;
  services : Services.t;
  refapi : Refapi.t;
  flags : (string, string) Hashtbl.t;
}

type t = {
  ctx : ctx;
  rng : Simkit.Prng.t;
  mutable faults : fault list;  (* newest first *)
  mutable next_id : int;
}

let all_kinds =
  [ Cpu_cstates; Cpu_hyperthreading; Cpu_turbo; Cpu_governor; Bios_drift;
    Disk_firmware; Disk_write_cache; Ram_dimm_loss; Cabling_swap;
    Kwapi_misattribution; Random_reboots; Kernel_boot_race; Ofed_flaky;
    Console_broken; Service_outage; Refapi_desync; Oar_property_desync;
    Env_image_corrupt; Ci_outage; Build_hang; Queue_loss; Serve_crash;
    Site_outage; Pdu_failure; Network_partition ]

(* Correlated faults take out many nodes at once; a PDU powers a fixed
   slice of a cluster's racks. *)
let rack_size = 8
let rack_of_index index = (index - 1) / rack_size
let partition_flag site = "partition:" ^ site

(* Infrastructure faults degrade the testing framework itself; their
   effects are carried as flags consulted by the CI/resilience layer. *)
let ci_outage_flag = "ci_outage"
let build_hang_flag = "build_hang"
let queue_loss_flag = "queue_loss"
let serve_crash_flag = "serve_crash"

let infra_flag = function
  | Ci_outage -> Some ci_outage_flag
  | Build_hang -> Some build_hang_flag
  | Queue_loss -> Some queue_loss_flag
  | Serve_crash -> Some serve_crash_flag
  | _ -> None

let kind_to_string = function
  | Cpu_cstates -> "cpu-cstates"
  | Cpu_hyperthreading -> "cpu-hyperthreading"
  | Cpu_turbo -> "cpu-turbo"
  | Cpu_governor -> "cpu-governor"
  | Bios_drift -> "bios-drift"
  | Disk_firmware -> "disk-firmware"
  | Disk_write_cache -> "disk-write-cache"
  | Ram_dimm_loss -> "ram-dimm-loss"
  | Cabling_swap -> "cabling-swap"
  | Kwapi_misattribution -> "kwapi-misattribution"
  | Random_reboots -> "random-reboots"
  | Kernel_boot_race -> "kernel-boot-race"
  | Ofed_flaky -> "ofed-flaky"
  | Console_broken -> "console-broken"
  | Service_outage -> "service-outage"
  | Refapi_desync -> "refapi-desync"
  | Oar_property_desync -> "oar-property-desync"
  | Env_image_corrupt -> "env-image-corrupt"
  | Ci_outage -> "ci-outage"
  | Build_hang -> "build-hang"
  | Queue_loss -> "queue-loss"
  | Serve_crash -> "serve-crash"
  | Site_outage -> "site-outage"
  | Pdu_failure -> "pdu-failure"
  | Network_partition -> "network-partition"

let category = function
  | Cpu_cstates | Cpu_hyperthreading | Cpu_turbo | Cpu_governor | Bios_drift ->
    "cpu-settings"
  | Disk_firmware | Disk_write_cache -> "disk"
  | Cabling_swap | Kwapi_misattribution -> "cabling"
  | Ram_dimm_loss | Random_reboots -> "infrastructure"
  | Refapi_desync | Oar_property_desync -> "description"
  | Console_broken | Service_outage -> "services"
  | Kernel_boot_race | Ofed_flaky | Env_image_corrupt -> "software"
  | Ci_outage | Build_hang | Queue_loss | Serve_crash -> "ci"
  | Site_outage | Pdu_failure | Network_partition -> "correlated"

let create ~rng ctx = { ctx; rng; faults = []; next_id = 0 }
let context t = t.ctx

let flag ctx key = Hashtbl.find_opt ctx.flags key

(* ---- target selection ------------------------------------------------- *)

let node_weight node =
  match Inventory.find_cluster node.Node.cluster_name with
  | Some spec -> Inventory.age_factor spec
  | None -> 1.0

let weighted_node t ~filter =
  let candidates =
    Array.to_list t.ctx.nodes
    |> List.filter (fun n -> filter n && n.Node.state <> Node.Down)
  in
  match candidates with
  | [] -> None
  | candidates ->
    let total = List.fold_left (fun acc n -> acc +. node_weight n) 0.0 candidates in
    let target = Simkit.Prng.float t.rng *. total in
    let rec pick acc = function
      | [] -> None
      | [ n ] -> Some n
      | n :: rest ->
        let acc = acc +. node_weight n in
        if acc >= target then Some n else pick acc rest
    in
    pick 0.0 candidates

let random_cluster t ~filter =
  let candidates = List.filter filter Inventory.clusters in
  match candidates with
  | [] -> None
  | _ -> Some (Simkit.Prng.choose_list t.rng candidates)

(* ---- effects ----------------------------------------------------------- *)

let update_settings node f =
  let hw = node.Node.actual in
  node.Node.actual <- { hw with Hardware.settings = f hw.Hardware.settings }

let update_first_disk node f =
  let hw = node.Node.actual in
  match hw.Hardware.disks with
  | [] -> ()
  | d :: rest -> node.Node.actual <- { hw with Hardware.disks = f d :: rest }

let cluster_nodes ctx cluster =
  Array.to_list ctx.nodes
  |> List.filter (fun n -> String.equal n.Node.cluster_name cluster)

let site_nodes ctx site =
  Array.to_list ctx.nodes
  |> List.filter (fun n -> String.equal n.Node.site_name site)

let rack_nodes ctx cluster rack =
  cluster_nodes ctx cluster
  |> List.filter (fun n -> rack_of_index n.Node.index = rack)

(* Correlated faults must not stack on the same target: a second outage
   of an already-dark site would make the first revert lie. *)
let target_already_hit t target =
  List.exists
    (fun f -> f.repaired_at = None && f.target = target)
    t.faults

let down_nodes nodes =
  List.iter (fun n -> if n.Node.state <> Node.Down then n.Node.state <- Node.Down)
    nodes

let revive_nodes nodes =
  List.iter (fun n -> if n.Node.state = Node.Down then n.Node.state <- Node.Alive)
    nodes

let down_site_services ctx site =
  List.iter
    (fun service -> Services.set_state ctx.services ~site service Services.Down)
    Services.all_kinds

let repair_site_services ctx site =
  List.iter (fun service -> Services.repair ctx.services ~site service)
    Services.all_kinds

(* Shared by inject and inject_on once the target is validated. *)
let correlated_effect t kind target =
  match (kind, target) with
  | Site_outage, Site site ->
    let nodes = site_nodes t.ctx site in
    if nodes = [] then None
    else begin
      down_nodes nodes;
      down_site_services t.ctx site;
      Some
        (Printf.sprintf "%s: site-wide power outage, %d nodes and all services down"
           site (List.length nodes))
    end
  | Network_partition, Site site ->
    let nodes = site_nodes t.ctx site in
    if nodes = [] then None
    else begin
      (* The site keeps running but is unreachable from the rest of the
         platform — indistinguishable from down for every consumer. *)
      down_nodes nodes;
      down_site_services t.ctx site;
      Hashtbl.replace t.ctx.flags (partition_flag site) "site unreachable";
      Some
        (Printf.sprintf "%s: network partition, site unreachable (%d nodes)" site
           (List.length nodes))
    end
  | Pdu_failure, Rack (cluster, rack) ->
    let nodes = rack_nodes t.ctx cluster rack in
    if nodes = [] then None
    else begin
      down_nodes nodes;
      Some
        (Printf.sprintf "%s rack %d: PDU failure, %d nodes lost power" cluster rack
           (List.length nodes))
    end
  | _ -> None

let apply t ~now kind target what =
  let fault =
    { id = t.next_id; kind; target; injected_at = now; what; detected_at = None;
      repaired_at = None }
  in
  t.next_id <- t.next_id + 1;
  t.faults <- fault :: t.faults;
  Some fault

let node_of ctx host = Hashtbl.find_opt ctx.by_host host

let effect_on_host t kind node =
  let host = node.Node.host in
  match kind with
  | Cpu_cstates ->
    update_settings node (fun s -> { s with Hardware.c_states = true });
    Some (Printf.sprintf "%s: C-states silently re-enabled" host)
  | Cpu_hyperthreading ->
    update_settings node (fun s -> { s with Hardware.hyperthreading = true });
    Some (Printf.sprintf "%s: hyperthreading enabled after BIOS reset" host)
  | Cpu_turbo ->
    update_settings node (fun s -> { s with Hardware.turbo_boost = true });
    Some (Printf.sprintf "%s: turbo boost enabled after BIOS reset" host)
  | Cpu_governor ->
    update_settings node (fun s -> { s with Hardware.power_governor = "ondemand" });
    Some (Printf.sprintf "%s: power governor back to ondemand" host)
  | Bios_drift ->
    let hw = node.Node.actual in
    node.Node.actual <-
      { hw with Hardware.bios = { hw.Hardware.bios with Hardware.bios_version = "9.9.9" } };
    Some (Printf.sprintf "%s: BIOS version differs from cluster baseline" host)
  | Disk_firmware ->
    update_first_disk node (fun d ->
        { d with Hardware.firmware = "~old-" ^ d.Hardware.firmware });
    Some (Printf.sprintf "%s: disk replaced with different firmware version" host)
  | Disk_write_cache ->
    update_first_disk node (fun d -> { d with Hardware.write_cache = false });
    Some (Printf.sprintf "%s: disk write cache disabled" host)
  | Ram_dimm_loss ->
    let hw = node.Node.actual in
    let mem = hw.Hardware.memory in
    if mem.Hardware.dimm_count <= 1 then None
    else begin
      let per_dimm = mem.Hardware.ram_gb / mem.Hardware.dimm_count in
      node.Node.actual <-
        { hw with
          Hardware.memory =
            { Hardware.ram_gb = mem.Hardware.ram_gb - per_dimm;
              dimm_count = mem.Hardware.dimm_count - 1 } };
      Some (Printf.sprintf "%s: one DIMM lost after maintenance" host)
    end
  | Random_reboots ->
    Node.set_random_reboot_mtbf node (Some (12.0 *. 3600.0));
    Some (Printf.sprintf "%s: node randomly reboots" host)
  | Console_broken ->
    node.Node.behaviour.Node.console_broken <- true;
    Some (Printf.sprintf "%s: serial console unusable" host)
  | Refapi_desync -> (
    match Refapi.corrupt t.ctx.refapi ~rng:t.rng ~host with
    | Some what -> Some (Printf.sprintf "%s: %s" host what)
    | None -> None)
  | Oar_property_desync ->
    Hashtbl.replace t.ctx.flags ("oar_desync:" ^ host) "stale property";
    Some (Printf.sprintf "%s: OAR property diverges from reference API" host)
  | Cabling_swap | Kwapi_misattribution | Kernel_boot_race | Ofed_flaky
  | Service_outage | Env_image_corrupt | Ci_outage | Build_hang | Queue_loss
  | Serve_crash | Site_outage | Pdu_failure | Network_partition ->
    None

let inject t ~now kind =
  match kind with
  | Cpu_cstates | Cpu_hyperthreading | Cpu_turbo | Cpu_governor | Bios_drift
  | Disk_firmware | Disk_write_cache | Ram_dimm_loss | Random_reboots
  | Console_broken | Refapi_desync | Oar_property_desync -> (
    match weighted_node t ~filter:(fun _ -> true) with
    | None -> None
    | Some node -> (
      match effect_on_host t kind node with
      | Some what -> apply t ~now kind (Host node.Node.host) what
      | None -> None))
  | Cabling_swap | Kwapi_misattribution -> (
    (* Two distinct nodes of the same site. *)
    match weighted_node t ~filter:(fun _ -> true) with
    | None -> None
    | Some a -> (
      match
        weighted_node t ~filter:(fun n ->
            String.equal n.Node.site_name a.Node.site_name
            && not (String.equal n.Node.host a.Node.host))
      with
      | None -> None
      | Some b ->
        let ha = a.Node.host and hb = b.Node.host in
        if kind = Cabling_swap then begin
          Network.swap_cables t.ctx.network ha hb;
          apply t ~now kind (Host_pair (ha, hb))
            (Printf.sprintf "network cables of %s and %s swapped" ha hb)
        end
        else begin
          Hashtbl.replace t.ctx.flags ("kwapi_swap:" ^ ha) hb;
          Hashtbl.replace t.ctx.flags ("kwapi_swap:" ^ hb) ha;
          apply t ~now kind (Host_pair (ha, hb))
            (Printf.sprintf "wattmeter channels of %s and %s swapped" ha hb)
        end))
  | Kernel_boot_race -> (
    match random_cluster t ~filter:(fun _ -> true) with
    | None -> None
    | Some spec ->
      let cluster = spec.Inventory.cluster in
      List.iter
        (fun n -> n.Node.behaviour.Node.boot_race <- true)
        (cluster_nodes t.ctx cluster);
      apply t ~now kind (Cluster cluster)
        (Printf.sprintf "%s: kernel race delays boots" cluster))
  | Ofed_flaky -> (
    match random_cluster t ~filter:(fun spec -> spec.Inventory.has_ib) with
    | None -> None
    | Some spec ->
      let cluster = spec.Inventory.cluster in
      List.iter
        (fun n -> n.Node.behaviour.Node.ofed_flaky <- true)
        (cluster_nodes t.ctx cluster);
      apply t ~now kind (Cluster cluster)
        (Printf.sprintf "%s: OFED stack randomly fails to start applications" cluster))
  | Service_outage ->
    let site = Simkit.Prng.choose_list t.rng Inventory.sites in
    let service = Simkit.Prng.choose_list t.rng Services.all_kinds in
    let severity =
      let p = if Services.is_experimental service then 0.5 else 0.25 in
      if Simkit.Prng.chance t.rng p then Services.Down else Services.Degraded
    in
    Services.set_state t.ctx.services ~site service severity;
    apply t ~now kind (Site_service (site, service))
      (Printf.sprintf "%s@%s: service %s" (Services.kind_to_string service) site
         (match severity with Services.Down -> "down" | _ -> "degraded"))
  | Ci_outage | Build_hang | Queue_loss | Serve_crash ->
    (* Infrastructure faults: one at a time per kind; the flag is read
       by the resilience/serving layer, which drives the degraded
       modes. *)
    let key = Option.get (infra_flag kind) in
    if Hashtbl.mem t.ctx.flags key then None
    else begin
      Hashtbl.replace t.ctx.flags key "infrastructure fault";
      apply t ~now kind (Global key)
        (match kind with
         | Ci_outage -> "CI server unreachable: triggers deferred"
         | Build_hang -> "builds hang instead of completing"
         | Serve_crash -> "status-page service crashed: in-memory snapshots lost"
         | _ -> "CI build queue lost")
    end
  | Site_outage | Network_partition -> (
    let site = Simkit.Prng.choose_list t.rng Inventory.sites in
    let target = Site site in
    if target_already_hit t target then None
    else
      match correlated_effect t kind target with
      | Some what -> apply t ~now kind target what
      | None -> None)
  | Pdu_failure -> (
    match random_cluster t ~filter:(fun _ -> true) with
    | None -> None
    | Some spec ->
      let cluster = spec.Inventory.cluster in
      let racks = 1 + rack_of_index spec.Inventory.nodes in
      let rack = Simkit.Prng.int t.rng racks in
      let target = Rack (cluster, rack) in
      if target_already_hit t target then None
      else (
        match correlated_effect t kind target with
        | Some what -> apply t ~now kind target what
        | None -> None))
  | Env_image_corrupt ->
    (* The target image is picked by the registered consumer through the
       flag; we draw from the standard 14-image list by index so testbed
       does not depend on the kadeploy library. *)
    let image_index = Simkit.Prng.int t.rng 14 in
    let key = Printf.sprintf "env_corrupt:%d" image_index in
    if Hashtbl.mem t.ctx.flags key then None
    else begin
      Hashtbl.replace t.ctx.flags key "corrupt postinstall";
      apply t ~now kind (Global key)
        (Printf.sprintf "environment image #%d corrupt" image_index)
    end

let inject_on t ~now kind target =
  match (kind, target) with
  | ( ( Cpu_cstates | Cpu_hyperthreading | Cpu_turbo | Cpu_governor | Bios_drift
      | Disk_firmware | Disk_write_cache | Ram_dimm_loss | Random_reboots
      | Console_broken | Refapi_desync | Oar_property_desync ),
      Host host ) -> (
    match node_of t.ctx host with
    | None -> None
    | Some node -> (
      match effect_on_host t kind node with
      | Some what -> apply t ~now kind (Host host) what
      | None -> None))
  | Cabling_swap, Host_pair (a, b) ->
    Network.swap_cables t.ctx.network a b;
    apply t ~now kind target (Printf.sprintf "network cables of %s and %s swapped" a b)
  | Kwapi_misattribution, Host_pair (a, b) ->
    Hashtbl.replace t.ctx.flags ("kwapi_swap:" ^ a) b;
    Hashtbl.replace t.ctx.flags ("kwapi_swap:" ^ b) a;
    apply t ~now kind target
      (Printf.sprintf "wattmeter channels of %s and %s swapped" a b)
  | Kernel_boot_race, Cluster cluster ->
    List.iter
      (fun n -> n.Node.behaviour.Node.boot_race <- true)
      (cluster_nodes t.ctx cluster);
    apply t ~now kind target (Printf.sprintf "%s: kernel race delays boots" cluster)
  | Ofed_flaky, Cluster cluster ->
    List.iter
      (fun n -> n.Node.behaviour.Node.ofed_flaky <- true)
      (cluster_nodes t.ctx cluster);
    apply t ~now kind target (Printf.sprintf "%s: OFED flaky" cluster)
  | Service_outage, Site_service (site, service) ->
    Services.set_state t.ctx.services ~site service Services.Down;
    apply t ~now kind target
      (Printf.sprintf "%s@%s down" (Services.kind_to_string service) site)
  | Env_image_corrupt, Global key ->
    Hashtbl.replace t.ctx.flags key "corrupt postinstall";
    apply t ~now kind target (key ^ " corrupt")
  | (Site_outage | Network_partition), Site site ->
    if
      (not (List.mem site Inventory.sites))
      || target_already_hit t target
    then None
    else (
      match correlated_effect t kind target with
      | Some what -> apply t ~now kind target what
      | None -> None)
  | Pdu_failure, Rack (cluster, rack) ->
    (* Validated: the cluster must exist and the rack index must cover at
       least one node. *)
    let valid =
      match Inventory.find_cluster cluster with
      | Some spec -> rack >= 0 && rack <= rack_of_index spec.Inventory.nodes
      | None -> false
    in
    if (not valid) || target_already_hit t target then None
    else (
      match correlated_effect t kind target with
      | Some what -> apply t ~now kind target what
      | None -> None)
  | (Ci_outage | Build_hang | Queue_loss | Serve_crash), Global key
    when infra_flag kind = Some key ->
    (* Validated: the target key must be the kind's canonical flag, and
       only one fault per kind may be active at a time (like inject). *)
    if Hashtbl.mem t.ctx.flags key then None
    else begin
      Hashtbl.replace t.ctx.flags key "infrastructure fault";
      apply t ~now kind target (key ^ " active")
    end
  | _ -> None

(* ---- repair ------------------------------------------------------------ *)

let revert t fault =
  let ctx = t.ctx in
  match (fault.kind, fault.target) with
  | Cpu_cstates, Host host
  | Cpu_hyperthreading, Host host
  | Cpu_turbo, Host host
  | Cpu_governor, Host host -> (
    match node_of ctx host with
    | Some node ->
      update_settings node (fun _ -> node.Node.reference.Hardware.settings)
    | None -> ())
  | Bios_drift, Host host -> (
    match node_of ctx host with
    | Some node ->
      let hw = node.Node.actual in
      node.Node.actual <- { hw with Hardware.bios = node.Node.reference.Hardware.bios }
    | None -> ())
  | (Disk_firmware | Disk_write_cache), Host host -> (
    match node_of ctx host with
    | Some node ->
      let hw = node.Node.actual in
      node.Node.actual <- { hw with Hardware.disks = node.Node.reference.Hardware.disks }
    | None -> ())
  | Ram_dimm_loss, Host host -> (
    match node_of ctx host with
    | Some node ->
      let hw = node.Node.actual in
      node.Node.actual <-
        { hw with Hardware.memory = node.Node.reference.Hardware.memory }
    | None -> ())
  | Random_reboots, Host host -> (
    match node_of ctx host with
    | Some node ->
      Node.set_random_reboot_mtbf node None;
      if node.Node.state = Node.Down then node.Node.state <- Node.Alive
    | None -> ())
  | Console_broken, Host host -> (
    match node_of ctx host with
    | Some node -> node.Node.behaviour.Node.console_broken <- false
    | None -> ())
  | Refapi_desync, Host host -> (
    match node_of ctx host with
    | Some node -> Refapi.publish_node ctx.refapi node
    | None -> ())
  | Oar_property_desync, Host host -> Hashtbl.remove ctx.flags ("oar_desync:" ^ host)
  | Cabling_swap, Host_pair (a, b) ->
    Network.repair_host ctx.network a;
    Network.repair_host ctx.network b
  | Kwapi_misattribution, Host_pair (a, b) ->
    Hashtbl.remove ctx.flags ("kwapi_swap:" ^ a);
    Hashtbl.remove ctx.flags ("kwapi_swap:" ^ b)
  | Kernel_boot_race, Cluster cluster ->
    List.iter (fun n -> n.Node.behaviour.Node.boot_race <- false)
      (cluster_nodes ctx cluster)
  | Ofed_flaky, Cluster cluster ->
    List.iter (fun n -> n.Node.behaviour.Node.ofed_flaky <- false)
      (cluster_nodes ctx cluster)
  | Service_outage, Site_service (site, service) ->
    Services.repair ctx.services ~site service
  | Env_image_corrupt, Global key -> Hashtbl.remove ctx.flags key
  | (Ci_outage | Build_hang | Queue_loss | Serve_crash), Global key ->
    Hashtbl.remove ctx.flags key
  | Site_outage, Site site ->
    (* Power restored: everything at the site boots back up.  Nodes that
       were dead for unrelated reasons come back too — restoring power
       reboots the whole room. *)
    revive_nodes (site_nodes ctx site);
    repair_site_services ctx site
  | Network_partition, Site site ->
    revive_nodes (site_nodes ctx site);
    repair_site_services ctx site;
    Hashtbl.remove ctx.flags (partition_flag site)
  | Pdu_failure, Rack (cluster, rack) -> revive_nodes (rack_nodes ctx cluster rack)
  | _ -> ()

let repair t ~now fault =
  if fault.repaired_at = None then begin
    revert t fault;
    fault.repaired_at <- Some now
  end

let mark_detected _t ~now fault =
  match fault.detected_at with
  | Some earlier when earlier <= now -> ()
  | _ -> fault.detected_at <- Some now

let active t = List.rev (List.filter (fun f -> f.repaired_at = None) t.faults)
let history t = List.rev t.faults

let active_on_host t host =
  active t
  |> List.filter (fun f ->
         match f.target with
         | Host h -> String.equal h host
         | Host_pair (a, b) -> String.equal a host || String.equal b host
         | Cluster c -> (
           match node_of t.ctx host with
           | Some node -> String.equal node.Node.cluster_name c
           | None -> false)
         | Rack (c, r) -> (
           match node_of t.ctx host with
           | Some node ->
             String.equal node.Node.cluster_name c
             && rack_of_index node.Node.index = r
           | None -> false)
         | Site s -> (
           match node_of t.ctx host with
           | Some node -> String.equal node.Node.site_name s
           | None -> false)
         | Site_service _ | Global _ -> false)
