(** Environment images.

    The matrix job of the paper tests 14 system images on all 32 clusters
    (448 configurations).  Images are produced by Kameleon-like recipes
    for traceability; a corrupt image (fault injection) makes every
    deployment of it fail at postinstall. *)

type t = {
  name : string;
  index : int;  (** stable index 0..13, used by fault flags *)
  size_mb : int;
  recipe : Kameleon.recipe;
  checksum : string;
}

val standard : t list
(** The 14 standard environments (min/base/std/big/nfs variants of two
    Debian releases plus CentOS and Ubuntu minimal images). *)

val count : int
val find : string -> t option
val std_env : t
(** The default production environment ("std"). *)

type registry

val registry : Testbed.Faults.ctx -> registry
(** A registry serving the standard images, accepting user-registered
    ones, and consulting the fault flags for corruption. *)

val is_corrupt : registry -> t -> bool

val get : registry -> string -> t option
(** Standard images first, then user registrations. *)

val all : registry -> t list

val register :
  registry ->
  name:string ->
  base:string ->
  size_mb:int ->
  string list ->
  (t, string) result
(** Register a user image built from a Kameleon-like recipe (the paper's
    "enable users to deploy their own software stack").  Rejects
    duplicate names and non-positive sizes.  The new image gets a fresh
    index (so fault flags can target it) and a recipe checksum for
    traceability. *)
