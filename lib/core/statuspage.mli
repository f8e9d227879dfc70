(** The external status page.

    Jenkins shows one job at a time; operators need "per test status for
    all sites/clusters, per site or per cluster status for all tests, and
    a historical perspective".  This module aggregates build completions
    (observed through the CI server's API, like the real page used
    Jenkins' REST API) into exactly those three views, rendered as ASCII
    matrices. *)

type cell = Ok_ | Ko | Unst | Missing

type t

val create : Env.t -> t
(** Subscribes to build completions.  Records are timestamped with each
    build's [finished_at], so re-applying the same completion stream
    (see {!apply}) reproduces the aggregates exactly. *)

val apply : t -> Ci.Build.t -> unit
(** Feed one completed build directly, exactly as the subscription
    would.  The serving layer's crash recovery replays a journal of
    completions through this after {!reset}; applying a build twice
    double-counts it. *)

val reset : t -> unit
(** Wipe every aggregate (cells, site cells, months, per-family
    counters) — the serving layer's [Serve_crash] drill.  Neither
    generation counter is rewound: both are monotonic for the lifetime
    of the value, so snapshot caches keyed on a generation can never
    confuse a rebuilt page with the one they stamped.  [reset] bumps
    {!cells_generation}: every cell just went back to [Missing], and a
    cell rendering stamped before the wipe must not outlive it. *)

val generation : t -> int
(** Bumped once per recorded completion; a cached rendering of any view
    is current iff its stamped generation still matches. *)

val cells_generation : t -> int
(** Bumped only when a completion changes a latest cell's value — a new
    scope, or a change such as OK -> KO — in the per-scope or per-site
    cells, and by {!reset}.  {!site_status}, {!latest} and so the
    confidence ranking read nothing else, so a rendering of them is
    current iff its stamped [cells_generation] still matches.  Cost:
    one compare per recorded completion. *)

val cell_to_string : cell -> string

val fmt_ratio : float -> string
(** {!Simkit.Table.fmt_pct}, except that a [nan] ratio (empty store)
    renders as the ["--"] placeholder used for {!Missing} cells. *)

val latest : t -> family:Testdef.family -> scope:string -> cell
(** Latest result of a family on a scope key (site, cluster or vlan id,
    depending on the family's axes). *)

val site_status : t -> family:Testdef.family -> site:string -> cell
(** Aggregated over the family's configurations belonging to the site
    (worst of the latest results; Missing if none ran).  Cells are
    indexed by (family, site), so this folds only that pair's scopes. *)

val per_test_matrix : t -> string
(** Rows = test families, columns = sites. *)

val per_cluster_matrix : t -> site:string -> string
(** Rows = families applicable per cluster, columns = the site's
    clusters. *)

val summary_rows : t -> (string * int * int * int * float) list
(** Per family: name, ok, ko, unstable, success ratio over all recorded
    completions. *)

val monthly_success : t -> (int * int * int * float) list
(** (month index, completed builds, successful builds, ratio) — the
    "85% ⇒ 93%" series. *)

val render_overview : t -> string
(** The whole page: per-test matrix, per-family summary, job weather
    (Jenkins-style stability icons) and history. *)
