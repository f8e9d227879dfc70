type t = {
  engine : Simkit.Engine.t;
  nodes : Node.t array;
  by_host : (string, Node.t) Hashtbl.t;
  network : Network.t;
  services : Services.t;
  refapi : Refapi.t;
  faults : Faults.t;
  console : Console.t;
  by_cluster : (string, Node.t list) Hashtbl.t;
  by_site : (string, Node.t list) Hashtbl.t;
}

let now t = Simkit.Engine.now t.engine

let reboot t node ~on_done =
  if node.Node.state = Node.Down then on_done ~ok:false
  else begin
    node.Node.state <- Node.Rebooting;
    let duration = Node.boot_duration node in
    ignore
      (Simkit.Engine.schedule t.engine ~delay:duration (fun _ ->
           node.Node.boot_count <- node.Node.boot_count + 1;
           if Node.boot_fails node then begin
             node.Node.state <- Node.Down;
             on_done ~ok:false
           end
           else begin
             node.Node.state <- Node.Alive;
             Console.log_boot t.console node;
             on_done ~ok:true
           end))
  end

(* Spontaneous reboots for nodes carrying the random-reboot fault.  One
   periodic sweep (every 10 min) samples per-node hazards, which keeps
   the event count independent of the fleet size. *)
let start_reboot_process t =
  let period = 600.0 in
  Simkit.Engine.every t.engine ~period (fun engine ->
      Array.iter
        (fun node ->
          match node.Node.behaviour.Node.random_reboot_mtbf with
          | Some mtbf when node.Node.state = Node.Alive ->
            let p = 1.0 -. exp (-.period /. mtbf) in
            if Simkit.Prng.chance node.Node.rng p then begin
              node.Node.unexpected_reboots <- node.Node.unexpected_reboots + 1;
              reboot t node ~on_done:(fun ~ok:_ -> ())
            end
          | _ -> ())
        t.nodes;
      ignore engine;
      true)

let build ?(seed = 42L) () =
  let engine = Simkit.Engine.create ~seed () in
  let master = Simkit.Engine.rng engine in
  let node_stream = Simkit.Prng.split master in
  let nodes =
    Inventory.clusters
    |> List.concat_map (fun spec ->
           let hw = Inventory.node_hardware spec in
           List.init spec.Inventory.nodes (fun i ->
               Node.make
                 ~rng:(Simkit.Prng.split node_stream)
                 ~site:spec.Inventory.site ~cluster:spec.Inventory.cluster
                 ~index:(i + 1) hw))
    |> Array.of_list
  in
  let by_host = Hashtbl.create (Array.length nodes) in
  Array.iter (fun n -> Hashtbl.replace by_host n.Node.host n) nodes;
  let network = Network.build ~rng:(Simkit.Prng.split master) (Array.to_list nodes) in
  let services =
    Services.create ~rng:(Simkit.Prng.split master) ~sites:Inventory.sites
  in
  let refapi = Refapi.create () in
  Refapi.publish_all refapi ~now:0.0 (Array.to_list nodes);
  let ctx =
    { Faults.nodes; by_host; network; services; refapi; flags = Hashtbl.create 64 }
  in
  let faults = Faults.create ~rng:(Simkit.Prng.split master) ctx in
  let console = Console.create () in
  Array.iter (Console.log_boot console) nodes;
  (* Walking the array backwards and prepending keeps each list in array
     order, which within a cluster is index order: a cluster's nodes are
     built together, numbered from 1. *)
  let by_cluster = Hashtbl.create 64 and by_site = Hashtbl.create 16 in
  let prepend tbl key n =
    Hashtbl.replace tbl key (n :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  for i = Array.length nodes - 1 downto 0 do
    let n = nodes.(i) in
    prepend by_cluster n.Node.cluster_name n;
    prepend by_site n.Node.site_name n
  done;
  let t =
    { engine; nodes; by_host; network; services; refapi; faults; console; by_cluster; by_site }
  in
  start_reboot_process t;
  t

let node t host = Hashtbl.find t.by_host host
let find_node t host = Hashtbl.find_opt t.by_host host

let lookup tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)
let nodes_of_cluster t cluster = lookup t.by_cluster cluster
let nodes_of_site t site = lookup t.by_site site

let pp_summary ppf t =
  let cores =
    Array.fold_left (fun acc n -> acc + Hardware.total_cores n.Node.reference) 0 t.nodes
  in
  Format.fprintf ppf "%d sites, %d clusters, %d nodes, %d cores"
    (List.length Inventory.sites)
    (List.length Inventory.clusters)
    (Array.length t.nodes) cores
