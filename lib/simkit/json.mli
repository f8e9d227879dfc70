(** Minimal JSON implementation.

    The Grid'5000 Reference API publishes the testbed description as JSON;
    the paper stresses that a machine-parsable description is what makes
    automated verification possible.  The sealed build environment has no
    yojson, so this module provides the value type, a printer, and a
    recursive-descent parser sufficient for the Reference API documents
    exchanged in this repository. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool
(** Structural equality; object member order is significant (the Reference
    API emits members in canonical order).  Allocates nothing. *)

val to_string : ?indent:int -> t -> string
(** Serialise; [indent > 0] pretty-prints.  JSON has no literal for a
    non-finite number, so a [Float] that is nan or infinite is written
    as [null] (read back as [Null]). *)

val of_string : string -> (t, string) result
(** Parse.  Accepts the JSON subset produced by [to_string] (no unicode
    escapes beyond [\uXXXX] for the BMP, no exponents with '+'... actually
    standard numbers are accepted). *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse errors (like every other [_exn]
    in the repo). *)

(** Accessors, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val string_member : string -> t -> string option
val int_member : string -> t -> int option
val float_member : string -> t -> float option
val bool_member : string -> t -> bool option
val list_member : string -> t -> t list option

val diff : t -> t -> (string * t option * t option) list
(** [diff reference actual] lists JSON-pointer-like paths whose values
    differ, with the value on each side ([None] = absent).  This is the
    comparison primitive used by the g5k-checks reimplementation.

    A pair of subtrees that are {!equal} is skipped without walking it:
    no key union is sorted and no path is built, so diffing two equal
    documents costs one {!equal} and allocates next to nothing.  The
    output is the same as a full walk, which records nothing under an
    equal pair. *)
