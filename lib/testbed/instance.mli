(** A fully built testbed instance: nodes, network, services, Reference
    API, fault engine, and the physical-event processes (spontaneous
    reboots) wired into a simulation engine. *)

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
      (** Built once by {!build}; read them through {!nodes_of_cluster}
          and {!nodes_of_site}. *)
  reboot_set : Node.reboot_set;
      (** Shared by {!field-nodes}, made in array order: the nodes the
          spontaneous-reboot sweep visits. *)
}

val build : ?seed:int64 -> unit -> t
(** Construct the Grid'5000-2017 instance from {!Inventory.clusters},
    publish the Reference API, and start the background reboot process.
    All nodes start healthy, in the standard environment. *)

val node : t -> string -> Node.t
(** @raise Not_found for unknown hosts. *)

val find_node : t -> string -> Node.t option

val nodes_of_cluster : t -> string -> Node.t list
(** The cluster's nodes in index order; [[]] for an unknown cluster.  The
    list is computed once by {!build} and shared between calls. *)

val nodes_of_site : t -> string -> Node.t list
(** The site's nodes in {!field-nodes} order; [[]] for an unknown site.
    Precomputed and shared like {!nodes_of_cluster}. *)

val now : t -> float

val reboot : t -> Node.t -> on_done:(ok:bool -> unit) -> unit
(** Take the node through a reboot: unavailable while {!Node.Rebooting},
    then either Alive (callback [ok:true]) or Down ([ok:false]). *)

val pp_summary : Format.formatter -> t -> unit
(** One-line inventory summary (the paper's "8 sites, 32 clusters,
    894 nodes, 8490 cores"). *)
