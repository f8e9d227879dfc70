(** A testbed node: identity, reference vs actual hardware, physical
    state machine and probe-visible measurements.

    Resource allocation (who reserved the node) lives in the OAR library;
    this module only models the machine itself. *)

type state =
  | Alive  (** booted into some environment, reachable *)
  | Rebooting
  | Deploying
  | Down  (** failed; needs operator action *)

(** Administrative health, orthogonal to the physical {!state}: the
    self-healing loop's per-node state machine (the real platform's
    suspected/dead resource states).  OAR only hands out {!Healthy}
    nodes; everything else is sidelined until re-verification passes. *)
type health =
  | Healthy
  | Suspected  (** suspicion accumulated; pulled out pending decay or escalation *)
  | Quarantined  (** over the quarantine threshold; awaiting an operator *)
  | Repairing  (** operator working on it (MTTR running) *)
  | Reverifying  (** repaired; must pass the verification test to rejoin *)
  | Retired  (** gave up after repeated repair failures; terminal *)

type behaviour = {
  mutable boot_race : bool;  (** kernel race ⇒ occasional long boot delays *)
  mutable ofed_flaky : bool;  (** IB stack randomly fails to start apps *)
  mutable console_broken : bool;  (** serial console service unusable *)
}

type t = {
  name : string;  (** e.g. ["graphene-12"] *)
  host : string;  (** fully qualified, e.g. ["graphene-12.nancy"] *)
  site_name : string;
  cluster_name : string;
  index : int;  (** 1-based index within the cluster *)
  reference : Hardware.t;  (** what the Reference API describes *)
  mutable actual : Hardware.t;  (** ground truth, mutated by faults *)
  mutable state : state;
  mutable health : health;  (** administrative state; {!Healthy} at build *)
  mutable deployed_env : string;  (** currently installed environment *)
  mutable vlan : int;  (** 0 = default production VLAN *)
  behaviour : behaviour;
  rng : Simkit.Prng.t;  (** per-node noise stream *)
  mutable boot_count : int;
  mutable unexpected_reboots : int;
  reboot : reboot;
}

and reboot
(** The node's random-reboot MTBF ({!random_reboot_mtbf}) and its place
    in its {!reboot_set}. *)

and reboot_set
(** The nodes of one fleet that have a random-reboot MTBF, so that the
    spontaneous-reboot sweep visits those nodes only. *)

val create_reboot_set : unit -> reboot_set

val make :
  rng:Simkit.Prng.t ->
  reboot_set:reboot_set ->
  site:string ->
  cluster:string ->
  index:int ->
  Hardware.t ->
  t
(** A healthy node whose actual hardware equals the reference and which
    runs the standard environment ["std"] in the default VLAN.  It
    belongs to [reboot_set], in which nodes are ordered as they were
    made. *)

val random_reboot_mtbf : t -> float option
(** Spontaneous reboots with this exponential MTBF (seconds); [None] at
    {!make}. *)

val set_random_reboot_mtbf : t -> float option -> unit
(** The one writer of {!random_reboot_mtbf}: the node joins or leaves
    its {!reboot_set} with it. *)

val reboot_prone : reboot_set -> t list
(** The members whose {!random_reboot_mtbf} is set, in the order they
    were made.  O(1): the list is kept by {!set_random_reboot_mtbf}. *)

val state_to_string : state -> string
val health_to_string : health -> string

val is_available : t -> bool
(** Alive — the only state in which OAR may hand the node to a job. *)

val in_service : t -> bool
(** {!Healthy} — not sidelined by the self-healing loop.  Nodes start in
    service and stay there unless a health supervisor is attached, so
    callers may gate on this unconditionally. *)

val boot_duration : t -> float
(** Sample one boot duration (seconds): normal around 120 s, plus a heavy
    delay tail when the kernel boot-race fault is active, as in the
    paper's "race condition in the Linux kernel caused boot delays". *)

val boot_fails : t -> bool
(** Sample whether this boot attempt leaves the node {!Down}. *)

val cpu_benchmark : t -> float
(** Measured compute score (arbitrary units, nominal 1000 for mandated
    settings at 2.0 GHz per-core-GHz product), including drifted-settings
    effects and ±1% measurement noise. *)

val disk_benchmark : t -> float
(** Measured sequential disk bandwidth (MB/s) of the first disk, with
    ±2% noise.  @raise Invalid_argument if the node has no disk. *)

val ib_start_ok : t -> bool
(** Whether an InfiniBand application manages to start (the OFED bug makes
    this random on affected nodes); [true] when the node has no IB. *)

val reset_to_reference : t -> unit
(** Operator repair: actual hardware snaps back to the reference
    description and behaviour flags clear. *)

val pp : Format.formatter -> t -> unit
