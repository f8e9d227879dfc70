type family =
  | Refapi
  | Oarproperties
  | Dellbios
  | Oarstate
  | Cmdline
  | Sidapi
  | Environments
  | Stdenv
  | Paralleldeploy
  | Multireboot
  | Multideploy
  | Console
  | Kavlan
  | Kwapi
  | Mpigraph
  | Disk

type resource_need = No_nodes | One_node | Two_nodes | Site_spread | Whole_cluster

type config = {
  family : family;
  cluster : string option;
  site : string option;
  image : string option;
  vlan : int option;
  config_id : string;
}

let all_families =
  [ Refapi; Oarproperties; Dellbios; Oarstate; Cmdline; Sidapi; Environments;
    Stdenv; Paralleldeploy; Multireboot; Multideploy; Console; Kavlan; Kwapi;
    Mpigraph; Disk ]

let family_to_string = function
  | Refapi -> "refapi"
  | Oarproperties -> "oarproperties"
  | Dellbios -> "dellbios"
  | Oarstate -> "oarstate"
  | Cmdline -> "cmdline"
  | Sidapi -> "sidapi"
  | Environments -> "environments"
  | Stdenv -> "stdenv"
  | Paralleldeploy -> "paralleldeploy"
  | Multireboot -> "multireboot"
  | Multideploy -> "multideploy"
  | Console -> "console"
  | Kavlan -> "kavlan"
  | Kwapi -> "kwapi"
  | Mpigraph -> "mpigraph"
  | Disk -> "disk"

let need = function
  | Refapi | Oarproperties | Dellbios | Oarstate | Cmdline | Sidapi -> No_nodes
  | Stdenv | Environments | Console | Kwapi -> One_node
  | Kavlan -> Two_nodes
  | Paralleldeploy -> Site_spread
  | Multireboot | Multideploy | Disk | Mpigraph -> Whole_cluster

let is_hardware_centric family = need family = Whole_cluster

let category = function
  | Refapi | Oarproperties | Dellbios -> "description"
  | Oarstate -> "status"
  | Cmdline | Sidapi -> "tooling"
  | Environments | Stdenv -> "images"
  | Paralleldeploy | Multireboot | Multideploy -> "reliability"
  | Console | Kavlan | Kwapi -> "services"
  | Mpigraph | Disk -> "hardware"

let cluster_names = List.map (fun c -> c.Testbed.Inventory.cluster) Testbed.Inventory.clusters

let dell_clusters =
  Testbed.Inventory.clusters
  |> List.filter (fun c -> c.Testbed.Inventory.vendor = Testbed.Hardware.Dell)
  |> List.map (fun c -> c.Testbed.Inventory.cluster)

let ib_clusters =
  Testbed.Inventory.clusters
  |> List.filter (fun c -> c.Testbed.Inventory.has_ib)
  |> List.map (fun c -> c.Testbed.Inventory.cluster)

let site_of cluster =
  match Testbed.Inventory.find_cluster cluster with
  | Some spec -> spec.Testbed.Inventory.site
  | None -> invalid_arg ("Testdef: unknown cluster " ^ cluster)

let image_names = List.map (fun img -> img.Kadeploy.Image.name) Kadeploy.Image.standard

let per_cluster family clusters =
  List.map
    (fun cluster ->
      {
        family;
        cluster = Some cluster;
        site = Some (site_of cluster);
        image = None;
        vlan = None;
        config_id = Printf.sprintf "%s:%s" (family_to_string family) cluster;
      })
    clusters

let per_site family =
  List.map
    (fun site ->
      {
        family;
        cluster = None;
        site = Some site;
        image = None;
        vlan = None;
        config_id = Printf.sprintf "%s:%s" (family_to_string family) site;
      })
    Testbed.Inventory.sites

let expand_family family =
  match family with
  | Environments ->
    List.concat_map
      (fun image ->
        List.map
          (fun cluster ->
            {
              family;
              cluster = Some cluster;
              site = Some (site_of cluster);
              image = Some image;
              vlan = None;
              config_id = Printf.sprintf "environments:%s:%s" image cluster;
            })
          cluster_names)
      image_names
  | Stdenv | Refapi | Oarproperties | Multireboot | Multideploy | Console | Disk ->
    per_cluster family cluster_names
  | Dellbios -> per_cluster family dell_clusters
  | Mpigraph -> per_cluster family ib_clusters
  | Oarstate | Cmdline | Sidapi | Paralleldeploy -> per_site family
  | Kwapi ->
    List.map
      (fun site ->
        {
          family;
          cluster = None;
          site = Some site;
          image = None;
          vlan = None;
          config_id = Printf.sprintf "kwapi:%s" site;
        })
      Testbed.Inventory.wattmeter_sites
  | Kavlan ->
    List.map
      (fun vlan ->
        {
          family;
          cluster = None;
          site = vlan.Kavlan.vlan_site;
          image = None;
          vlan = Some vlan.Kavlan.vlan_id;
          config_id = Printf.sprintf "kavlan:%d" vlan.Kavlan.vlan_id;
        })
      Kavlan.standard_vlans

(* Expanded once at module initialisation and read-only afterwards, so
   every domain can share it. *)
let expansions = List.map (fun f -> (f, expand_family f)) all_families

let expand family = List.assq family expansions

let catalog () = List.concat_map expand all_families

let axes_of_config config =
  match config.family with
  | Environments ->
    [ ("image", Option.value ~default:"" config.image);
      ("cluster", Option.value ~default:"" config.cluster) ]
  | Stdenv | Refapi | Oarproperties | Multireboot | Multideploy | Console | Disk
  | Dellbios | Mpigraph ->
    [ ("cluster", Option.value ~default:"" config.cluster) ]
  | Oarstate | Cmdline | Sidapi | Paralleldeploy | Kwapi ->
    [ ("site", Option.value ~default:"" config.site) ]
  | Kavlan -> [ ("vlan", string_of_int (Option.value ~default:0 config.vlan)) ]

let matrix_axes family =
  match family with
  | Environments -> [ ("image", image_names); ("cluster", cluster_names) ]
  | Stdenv | Refapi | Oarproperties | Multireboot | Multideploy | Console | Disk ->
    [ ("cluster", cluster_names) ]
  | Dellbios -> [ ("cluster", dell_clusters) ]
  | Mpigraph -> [ ("cluster", ib_clusters) ]
  | Oarstate | Cmdline | Sidapi | Paralleldeploy -> [ ("site", Testbed.Inventory.sites) ]
  | Kwapi -> [ ("site", Testbed.Inventory.wattmeter_sites) ]
  | Kavlan ->
    [ ( "vlan",
        List.map
          (fun v -> string_of_int v.Kavlan.vlan_id)
          Kavlan.standard_vlans ) ]

(* [config_of_axes]: one level per axis of [matrix_axes], in that order,
   down to a precomputed [Some config]; the vlan level is keyed by the
   parsed int.  Built once and read-only afterwards, like [expansions]. *)
type lookup =
  | Found of config option
  | By_name of string * (string, lookup) Hashtbl.t
  | By_int of string * (int, lookup) Hashtbl.t

(* [entries] pairs each configuration, in catalog order, with its
   values of [axes]; a repeated key keeps its first configuration. *)
let rec build axes entries =
  match axes with
  | [] -> Found (match entries with (_, config) :: _ -> Some config | [] -> None)
  | axis :: rest ->
    let level key_of =
      let groups = Hashtbl.create 64 in
      List.iter
        (fun (values, config) ->
          let key = key_of (List.hd values) in
          let group = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key ((List.tl values, config) :: group))
        (List.rev entries);
      Hashtbl.of_seq (Seq.map (fun (key, group) -> (key, build rest group)) (Hashtbl.to_seq groups))
    in
    if axis = "vlan" then By_int (axis, level int_of_string) else By_name (axis, level Fun.id)

let lookups =
  List.map
    (fun family ->
      let axes = List.map fst (matrix_axes family) in
      let values config = List.map (fun axis -> List.assoc axis (axes_of_config config)) axes in
      (family, build axes (List.map (fun config -> (values config, config)) (expand family))))
    all_families

let rec find axes = function
  | Found config -> config
  | By_name (axis, tbl) -> (
    match Hashtbl.find tbl (List.assoc axis axes) with
    | next -> find axes next
    | exception Not_found -> None)
  | By_int (axis, tbl) -> (
    match Hashtbl.find tbl (int_of_string (List.assoc axis axes)) with
    | next -> find axes next
    | exception (Not_found | Failure _) -> None)

let config_of_axes family axes = find axes (List.assq family lookups)

let effective_site config =
  match config.site with
  | Some _ as site -> site
  | None -> (
    (* Site-less two-node configs (the global kavlan vlan) always draw
       their pair from the first site; resolving it here once keeps the
       resource precheck and the anti-affinity accounting in agreement. *)
    match need config.family with
    | Two_nodes -> (
      match Testbed.Inventory.sites with [] -> None | site :: _ -> Some site)
    | No_nodes | One_node | Site_spread | Whole_cluster -> None)

let oar_filter config =
  match (config.cluster, config.site) with
  | Some cluster, _ -> Printf.sprintf "cluster='%s'" cluster
  | None, Some site -> Printf.sprintf "site='%s'" site
  | None, None -> ""

let base_period family =
  let day = Simkit.Calendar.day in
  match family with
  | Refapi | Oarproperties | Oarstate | Cmdline | Sidapi | Dellbios -> 1.0 *. day
  | Stdenv | Console | Kwapi | Kavlan -> 2.0 *. day
  | Environments -> 4.0 *. day
  | Paralleldeploy -> 3.0 *. day
  | Multireboot | Multideploy | Disk | Mpigraph -> 7.0 *. day

let nominal_duration family =
  match family with
  | Refapi | Oarproperties | Dellbios | Oarstate | Cmdline | Sidapi -> 120.0
  | Stdenv -> 600.0
  | Environments -> 900.0
  | Console -> 300.0
  | Kavlan -> 600.0
  | Kwapi -> 300.0
  | Paralleldeploy -> 1200.0
  | Multireboot -> 1500.0
  | Multideploy -> 1800.0
  | Disk -> 1200.0
  | Mpigraph -> 1200.0
