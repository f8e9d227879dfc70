(** The Reference API: the machine-parsable (JSON) description of the
    testbed, with archived versions ("state of the testbed 6 months
    ago?").

    Published documents are derived from each node's {e reference}
    hardware.  They can drift from reality in two ways: the node's actual
    hardware changes (fault injection) or the published document itself is
    corrupted (description error after maintenance).  g5k-checks compares
    acquired reality against these documents. *)

type t

val create : unit -> t

val describe : Node.t -> Simkit.Json.t
(** Canonical description of a node from its reference hardware, including
    identity and network cabling-free fields. *)

val publish_node : t -> Node.t -> unit
(** Refresh one node's published document from its reference hardware. *)

val publish_all : t -> now:float -> Node.t list -> unit
(** Re-publish every node and archive a new version. *)

val get : t -> string -> Simkit.Json.t option
(** Currently published document for a host. *)

val iter : t -> (string -> Simkit.Json.t -> unit) -> unit
(** Visit every host and its current document, in no particular order.
    Documents are immutable and replaced on every change, so a caller
    may detect a change by physical inequality. *)

val version : t -> int

val snapshot : t -> int -> (float * (string * Simkit.Json.t) list) option
(** Archived version: publication time and all documents. *)

val corrupt : t -> rng:Simkit.Prng.t -> host:string -> string option
(** Introduce a plausible description error in the host's published
    document (wrong RAM size, wrong disk firmware, wrong NIC rate...).
    Returns a human-readable description of the error, or [None] if the
    host is unknown. *)

val hosts : t -> string list
