(** ASCII table rendering for the benchmark harness and the status page. *)

type align = Left | Right | Center

val render :
  ?align:align list ->
  header:string list ->
  string list list ->
  string
(** [render ~header rows] draws a boxed table.  Rows shorter than the
    header are padded with empty cells; longer rows are truncated.
    [align] gives per-column alignment (default all [Left]). *)

val fmt_float : ?decimals:int -> float -> string
(** Locale-free float formatting ([nan] renders as ["-"]). *)

val fmt_pct : float -> string
(** Format a ratio in [\[0,1\]] as a percentage with one decimal. *)
