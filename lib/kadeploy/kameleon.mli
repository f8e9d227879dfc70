(** Kameleon-style recipes: a deterministic build description for each
    environment image, giving traceability ("images generated using
    Kameleon for traceability"). *)

type step = {
  section : string;  (** bootstrap / setup / export *)
  action : string;
}

type recipe = {
  recipe_name : string;
  base : string;  (** parent distribution or recipe *)
  steps : step list;
}

val make : name:string -> base:string -> string list -> recipe
(** Build a recipe from setup actions, with canonical bootstrap and
    export steps added around them. *)

val checksum : recipe -> string
(** Deterministic hex digest of the full recipe content. *)

val step_count : recipe -> int
