(** HTML rendering of the status page.

    The real dashboard (slides 18-19) is a web page served next to
    Jenkins; this module renders the page's views as a self-contained
    HTML document (inline CSS, no external assets) that can be written
    to disk and opened in a browser. *)

val html_escape : string -> string

val cell_class : Statuspage.cell -> string
(** CSS class: ["ok"], ["ko"], ["unstable"], ["missing"]. *)

val render : Statuspage.t -> string
(** The full document, in this order: per-test x per-site matrix with
    coloured cells, per-family summary (ok / ko / unstable counts and
    success ratio), per-cluster confidence ranking, and monthly history.
    One render costs O(cells on the page): each matrix cell folds only
    its own (family, site) scopes, and each cluster's applicable
    families are precomputed. *)
