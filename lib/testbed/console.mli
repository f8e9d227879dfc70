(** Serial console service (conman substitute).

    Every node's serial output is captured in a bounded ring: boot
    banners, kernel lines, login prompt.  The [console] test family reads
    the tail through the site service and checks that a freshly written
    marker echoes back — a broken console (node-side fault or site
    service outage) fails that round-trip. *)

type t

val create : unit -> t

val log_line : t -> host:string -> string -> unit
(** Append one line to the host's ring, which keeps the last 200 lines.
    The ring is an array written in place: it starts at 8 slots and
    doubles up to 200, then overwrites the oldest line, so once grown a
    line costs no allocation beyond its string. *)

val log_boot : t -> Node.t -> unit
(** Append the canonical boot banner of the node's current environment. *)

val tail : t -> host:string -> int -> string list
(** Last [n] captured lines (oldest first), at most 200; empty for
    unknown hosts and for [n <= 0]. *)

val roundtrip :
  t -> services:Services.t -> Node.t -> marker:string -> bool
(** Write [marker] through the console and read it back: [false] when
    the site console service is unusable, the node's console hardware is
    broken, or the node is down. *)
