(** Performance-regression gate over the checked-in perfbench baselines.

    [perfbench/run.py --workload W --seed 0 --trace 1 --seconds 0] ends
    with one JSON document: [correct] (every report matched its
    reference digest and every count repeated exactly), and [metrics], a
    map from metric name to [{"value": v, "unit": u}].  One such document
    per workload, [BENCH_<workload>.json] (see {!file}), is checked into
    the repository root as that workload's baseline.  This module
    compares a fresh run against them through one {!table} of rows.

    The gating rows are exact for a fixed seed and binary — per-label
    event counts and minor words per event, and a staleness percentile
    in simulated time — so the default threshold is small and a failure
    is a real change, not runner noise. *)

type kind =
  | Must_be_true
      (** a boolean that must read [true], whatever the threshold: a fast
          run that breaks a correctness bit is a broken optimization *)
  | Lower
      (** lower is better; fails above [baseline * (1 + threshold)], so a
          zero baseline tolerates only zero *)
  | Informational  (** printed next to the gating rows, never fails *)

type row = {
  workload : string;  (** read from [file workload] *)
  metric : string;
      (** a perfbench metric name such as ["serve.words_per_event"], read
          as [metrics.<metric>.value]; the name contains dots, so it is
          one key, not a path.  A {!Must_be_true} row names a top-level
          member instead (["correct"]). *)
  kind : kind;
}

val table : row list
(** Every row the gate reads, for [campaign-default] then
    [campaign-attached]:
    - [correct] (must be true);
    - for every engine label (["unlabelled"] standing for events
      scheduled without one): [<label>.events] and
      [<label>.words_per_event] (lower), [<label>.host_ms]
      (informational);
    - [serve.staleness_p99_s] (lower; simulated seconds);
    - [engine.step_p50_us], [engine.step_p99_us], [engine.step_max_us]
      and [lint.ms] (informational);
    - on [campaign-default] only, whose traced run adds a federation:
      [federation.seq_s], [federation.par_s] and
      [federation.parallel_efficiency] (informational). *)

val file : string -> string
(** [file workload] is ["BENCH_" ^ workload ^ ".json"]. *)

type docs = (string * Simkit.Json.t) list
(** perfbench documents keyed by workload name. *)

val load : string -> (docs, string) result
(** Read and parse [file workload] from the directory for every workload
    in {!table}; [Error] names the file that is missing or unparsable. *)

type verdict = {
  ok : bool;  (** [false] = some gating row failed *)
  lines : string list;  (** one line per row, then the overall verdict *)
}

val default_threshold_pct : float
(** [5.] — every gating row is exact for a fixed seed and binary. *)

val check :
  ?threshold_pct:float -> baseline:docs -> current:docs -> unit -> (verdict, string) result
(** Judge every row of {!table}.  [Error] when [threshold_pct] (default
    {!default_threshold_pct}) is not finite or lies outside [\[0, 100)],
    or when a row's document or metric is missing or of the wrong type,
    in either run. *)
