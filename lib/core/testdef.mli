(** The test catalog: 16 families, 751 configurations (the paper's
    coverage slide).

    Families and per-family cardinalities:
    - environments: 14 images x 32 clusters = 448
    - stdenv, refapi, oarproperties, multireboot, multideploy, console,
      disk: one per cluster (32 each)
    - dellbios: one per Dell cluster (18)
    - oarstate, cmdline, sidapi, paralleldeploy: one per site (8 each)
    - kavlan: one per reconfigurable VLAN (13)
    - kwapi: one per wattmeter site (6)
    - mpigraph: one per InfiniBand cluster (10) *)

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

(** What the test needs from OAR before it can run — the distinction
    driving the external scheduler ("software-centric: one node per
    cluster; hardware-centric: all nodes of a given cluster"). *)
type resource_need =
  | No_nodes  (** API / frontend only *)
  | One_node
  | Two_nodes
  | Site_spread  (** one node on each cluster of a site, simultaneously *)
  | Whole_cluster

type config = {
  family : family;
  cluster : string option;
  site : string option;
  image : string option;  (** environments family *)
  vlan : int option;  (** kavlan family *)
  config_id : string;  (** unique, e.g. ["environments:debian8-x64-min:graphene"] *)
}

val all_families : family list
val family_to_string : family -> string

val need : family -> resource_need
val is_hardware_centric : family -> bool
(** {!Whole_cluster} need. *)

val category : family -> string
(** Coverage grouping as on the paper's slide (description / status /
    tooling / images / reliability / services / hardware). *)

val expand : family -> config list
(** All configurations of a family. *)

val catalog : unit -> config list
(** All 751 configurations, families in declaration order. *)

val axes_of_config : config -> (string * string) list
(** CI matrix coordinates identifying the configuration inside its
    family's matrix job. *)

val config_of_axes : family -> (string * string) list -> config option
(** Inverse of {!axes_of_config}; the vlan is compared as an int, so
    ["07"] finds vlan 7.  Cost: one hash lookup per axis in immutable
    tables built at module initialisation; allocates nothing. *)

val matrix_axes : family -> (string * string list) list
(** Axis declaration for the family's CI matrix job (may be [[]] for a
    freestyle-like single configuration... never happens here: every
    family has at least one axis). *)

val oar_filter : config -> string
(** OAR property filter selecting this configuration's resources. *)

val effective_site : config -> string option
(** The site a node-consuming run of this configuration lands on, used
    both for the resource precheck and for same-site anti-affinity.
    Equal to [site] when set; site-less {!Two_nodes} configurations (the
    global kavlan VLAN) resolve to the first inventory site — the same
    site their resource precheck draws the node pair from. *)

val base_period : family -> float
(** Target period between runs of one configuration (seconds). *)

val nominal_duration : family -> float
(** Rough expected run time of one configuration, used for walltimes. *)
