(** The status page as a long-lived serving layer.

    The paper's status page is not just a report: it is a service that
    operators and users hit continuously, including while the testbed
    (and the testing infrastructure itself) is misbehaving.  This module
    simulates that service in front of a {!Statuspage} aggregate and
    makes it robust along four axes:

    - {b Generation-stamped snapshots}: rendered pages are cached and
      stamped with the page's {!Statuspage.generation}; a read after a
      build completion re-renders at most once (single flight), every
      other read is a cache hit, and conditional reads carrying the
      current ETag are answered [Not_modified] without any body.  The
      service owns one {!Webstatus.t}, so a re-render rewrites only the
      summary and history unless the completion changed a cell's value
      (see {!Webstatus.refresh}).
    - {b Load shedding}: admission goes through a token bucket
      ([rate_limit]/[burst]) backed by a bounded queue ([queue_limit]);
      demand beyond both is {e explicitly} shed and counted, never
      silently dropped — every read resolves as fresh, not-modified,
      stale, fallback or shed.
    - {b Graceful degradation}: under queue pressure the service walks a
      [Fresh -> Stale -> Static_fallback] ladder (stale-while-revalidate
      in the middle rung), fires a {!Monitoring.Alerts.Serving_degraded}
      alert while off the top rung, and only climbs back after
      [hysteresis_s] of calm so it cannot flap.
    - {b Crash recovery}: a {!Testbed.Faults.Serve_crash} fault wipes
      the in-memory aggregates and snapshot cache mid-campaign; the
      service rebuilds by replaying its build-completion journal through
      {!Statuspage.apply}, serving the static fallback for 300 s,
      and converges to pages byte-identical to a run that never crashed.

    Cost: each service tick resolves its admitted reads one call per
    read; that call updates the outcome counters and allocates nothing
    (it builds no {!response}), and at most one render per tick is paid
    on top.

    The synthetic read workload (Poisson arrivals with deterministic
    daily flash crowds) is driven by engine events but draws from a
    dedicated PRNG seeded by [workload_seed], so attaching the service
    leaves every other subsystem's random sequence — and therefore the
    campaign's decisions and report — byte-for-byte unchanged. *)

type mode = Fresh | Stale | Static_fallback

val mode_to_string : mode -> string

type config = {
  rate_limit : float;  (** admitted reads per second (token refill rate) *)
  burst : float;  (** token bucket capacity *)
  queue_limit : int;  (** reads parked when the bucket is empty *)
  stale_queue : int;  (** queue depth at which serving degrades to [Stale] *)
  fallback_queue : int;
      (** queue depth at which serving degrades to [Static_fallback];
          must exceed [stale_queue] (Trustlint L014) *)
  hysteresis_s : float;
      (** seconds of calm required before climbing back up the ladder *)
  tick_period : float;  (** service loop period, seconds *)
  readers_per_s : float;  (** offered load (mean Poisson arrival rate) *)
  flash_every : float;
      (** period of deterministic flash crowds ([0.] disables them) *)
  flash_duration : float;  (** seconds each flash crowd lasts *)
  flash_multiplier : float;  (** offered-load multiplier during a flash *)
  workload_seed : int64;
      (** dedicated PRNG seed — the workload never touches the engine's
          master stream, so serving is invisible to the campaign *)
}

val default_config : config
(** Modest defaults: 2 readers/s against a 20 reads/s admission rate,
    with a daily 50x flash crowd that overwhelms admission and exercises
    the full shed/degrade/recover ladder.  Fixed, not configurable: 60%
    of admitted reads are conditional (they carry the ETag of the
    previously served page). *)

(** One admitted read's outcome ([Shed] when admission refused it). *)
type response =
  | Page of { body : string; etag : string; mode : mode; staleness : float }
  | Not_modified of string  (** the matching ETag *)
  | Shed

type summary = {
  reads : int;  (** resolved reads: served + shed *)
  fresh : int;
  not_modified : int;
  stale : int;
  fallback : int;
  shed : int;
  queued_now : int;  (** still parked when the campaign ended *)
  queued_peak : int;
  renders : int;  (** full page renders actually performed *)
  renders_saved : int;  (** served reads answered without rendering *)
  crashes : int;
  recoveries : int;
  degraded_seconds : float;  (** time spent off the [Fresh] rung *)
  alerts_fired : int;
  staleness_p50 : float;
  staleness_p99 : float;
  staleness_max : float;
  hit_ratio : float;  (** renders_saved / served *)
}

type t

val attach :
  alerts:Monitoring.Alerts.t -> config:config -> Env.t -> Statuspage.t -> t
(** Start the service: subscribes a journal listener to build
    completions, schedules the (jitter-free) service loop on the
    environment's engine, and begins draining the synthetic workload.
    Leaving fresh serving fires a
    [Monitoring.Alerts.Serving_degraded "statuspage"] alert on [alerts];
    returning to it resolves the alert. *)

val read : t -> ?if_none_match:string -> unit -> response
(** One on-demand read through the same admission, cache and
    degradation path as the synthetic workload (used by tests and the
    [g5ktest serve] command).  Unlike a synthetic read, it allocates the
    response it returns. *)

val mode : t -> mode
val etag : t -> string option
(** ETag of the cached snapshot, [None] before the first render. *)

val summary : t -> summary
val render : summary -> string
(** ASCII table for the campaign status page's serving section. *)

val summary_line : summary -> string
(** One line for {!Campaign.pp_report}. *)

val summary_to_json : summary -> Simkit.Json.t
