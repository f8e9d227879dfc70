(** Performance-regression gate over the checked-in benchmark baselines.

    The bench scenarios write [BENCH_<bench>.json] documents (see
    {!file}); the engine, serve, federation and lint copies are checked
    into the repository as baselines.  This module compares a fresh run
    against them through one {!table} of rows, so every gated figure goes
    through the same path lookup and the same limit.

    A gating numeric row fails when its current value crosses
    [max floor (baseline * (1 +/- threshold))] — [+] for lower-is-better
    figures, [-] for higher-is-better ones.  A must-be-true row fails when
    the current value is not [true], whatever the threshold: a fast run
    that breaks a correctness bit is a broken optimization.
    Informational rows are printed next to the gating ones but never
    fail; throughput, for example, varies with runner load far more than
    a latency percentile does. *)

type direction =
  | Lower  (** lower is better *)
  | Higher  (** higher is better *)
  | Must_be_true  (** a boolean that must read [true] *)

type row = {
  bench : string;  (** read from [file bench] *)
  path : string;  (** dot-separated members, e.g. ["step_latency_us.p95"] *)
  direction : direction;
  gating : bool;  (** [false] = informational *)
  floor : float;  (** absolute floor of a numeric row's limit *)
}

val lint_floor_s : float
(** [0.25] — the floor of the lint wall-time row.  The deep analysis
    finishes in milliseconds, far below runner noise, so a purely
    relative threshold would flap. *)

val table : row list
(** Every row the gate reads, grouped by bench:
    - engine: [step_latency_us.p95] (lower, gating); [events_per_s] and
      [minor_words_per_event] (informational);
    - serve: [staleness_s.p99] (lower, gating — simulation-deterministic,
      so a zero baseline tolerates only zero) and [conservation_ok]
      (must be true); [reads_per_s] and [hit_ratio] (informational);
    - federation: [identical_across_shards] (must be true) and [speedup]
      (higher, gating); the raw throughputs (informational);
    - lint: [lint.wall_s] (lower, floor {!lint_floor_s}) and
      [audit.reports_identical] (must be true); the configuration and
      diagnostic counts (informational). *)

val file : string -> string
(** [file bench] is ["BENCH_" ^ bench ^ ".json"]. *)

type docs = (string * Simkit.Json.t) list
(** Benchmark documents keyed by bench name. *)

val load : string -> (docs, string) result
(** Read and parse [file bench] from the directory for every bench in
    {!table}; [Error] names the file that is missing or unparsable. *)

type verdict = {
  ok : bool;  (** [false] = some gating row failed *)
  lines : string list;  (** one line per row, then the overall verdict *)
}

val default_threshold_pct : float
(** [20.] — the CI gate's allowance. *)

val check :
  ?threshold_pct:float -> baseline:docs -> current:docs -> unit -> (verdict, string) result
(** Judge every row of {!table}.  [Error] when [threshold_pct] (default
    {!default_threshold_pct}) is not finite or lies outside [\[0, 100)],
    or when a row's bench document or field is missing or of the wrong
    type, in either run. *)
