(** Full [oarsub -l] resource requests.

    Syntax (as in the paper's example):
    {v <filter>/nodes=<n> [+ <filter>/nodes=<n> ...] [,walltime=<hours>] v}

    [nodes=ALL] requests every matching node (the hardware-centric test
    scope).  [walltime] accepts [h], [h:mm] or [h:mm:ss]. *)

type group = {
  filter : Expr.t;
  count : [ `N of int | `All ];
}

type t = {
  groups : group list;
  walltime : float;  (** seconds *)
}

val parse : string -> (t, string) result
val parse_exn : string -> t

val nodes : ?filter:string -> [ `N of int | `All ] -> walltime:float -> t
(** Programmatic construction; [filter] is an {!Expr} source string
    (default: match everything), [walltime] in seconds. *)

val to_string : t -> string
