(** Imperative binary min-heap, the priority queue behind the event
    engine and the schedulers.

    Elements are ordered by a float key; ties are broken by insertion
    order so that iteration is deterministic. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val push : 'a t -> key:float -> 'a -> unit
(** Insert an element with priority [key] (lower pops first). *)

val peek : 'a t -> (float * 'a) option
(** Smallest (key, element) without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the smallest (key, element). *)

val to_list : 'a t -> (float * 'a) list
(** Snapshot in ascending key order (cost O(n log n); for tests and
    status displays, not hot paths). *)
