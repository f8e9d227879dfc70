(** HTML rendering of the status page.

    The real dashboard (slides 18-19) is a web page served next to
    Jenkins; this module renders the page's views as a self-contained
    HTML document (inline CSS, no external assets) that can be written
    to disk and opened in a browser. *)

val html_escape : string -> string

val cell_class : Statuspage.cell -> string
(** CSS class: ["ok"], ["ko"], ["unstable"], ["missing"]. *)

type t
(** A renderer bound to one page: it reuses one output buffer and keeps
    the sections that read only the latest cells (the matrix and the
    confidence ranking) as text stamped with the page's
    {!Statuspage.cells_generation}. *)

val create : Statuspage.t -> t

val refresh : t -> string
(** The full document, in this order: per-test x per-site matrix with
    coloured cells, per-family summary (ok / ko / unstable counts and
    success ratio), per-cluster confidence ranking, and monthly history.
    Always equal to [render page] at the time of the call.

    Cost: the summary and history change with every completion, so they
    are written every time (16 summary rows, one history row per month).
    The matrix (16 families x 8 sites, each cell folding only its own
    (family, site) scopes) and the confidence ranking (one row per
    cluster) are re-rendered only when [cells_generation] moved since
    the last call, which on a campaign is about one completion in nine;
    otherwise their stamped text is copied.  Fixed markup is precomputed
    strings appended to the buffer, so nothing is formatted per cell. *)

val render : Statuspage.t -> string
(** [refresh] of a fresh renderer: every section rendered once. *)
