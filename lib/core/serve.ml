type mode = Fresh | Stale | Static_fallback

let mode_to_string = function
  | Fresh -> "fresh"
  | Stale -> "stale"
  | Static_fallback -> "static-fallback"

let severity = function Fresh -> 0 | Stale -> 1 | Static_fallback -> 2

type config = {
  rate_limit : float;
  burst : float;
  queue_limit : int;
  stale_queue : int;
  fallback_queue : int;
  hysteresis_s : float;
  tick_period : float;
  readers_per_s : float;
  flash_every : float;
  flash_duration : float;
  flash_multiplier : float;
  workload_seed : int64;
}

let default_config =
  {
    rate_limit = 20.0;
    burst = 1000.0;
    queue_limit = 2000;
    stale_queue = 100;
    fallback_queue = 1000;
    hysteresis_s = 120.0;
    tick_period = 30.0;
    readers_per_s = 2.0;
    flash_every = Simkit.Calendar.day;
    flash_duration = 600.0;
    flash_multiplier = 50.0;
    workload_seed = 77L;
  }

type response =
  | Page of { body : string; etag : string; mode : mode; staleness : float }
  | Not_modified of string
  | Shed

type summary = {
  reads : int;
  fresh : int;
  not_modified : int;
  stale : int;
  fallback : int;
  shed : int;
  queued_now : int;
  queued_peak : int;
  renders : int;
  renders_saved : int;
  crashes : int;
  recoveries : int;
  degraded_seconds : float;
  alerts_fired : int;
  staleness_p50 : float;
  staleness_p99 : float;
  staleness_max : float;
  hit_ratio : float;
}

let rebuild_s = 300.0

(* Share of admitted reads carrying an [If-None-Match] with the ETag of
   the previously served page. *)
let conditional_fraction = 0.6

let degraded = Monitoring.Alerts.Serving_degraded "statuspage"

type t = {
  env : Env.t;
  page : Statuspage.t;
  cfg : config;
  alerts : Monitoring.Alerts.t;
  rng : Simkit.Prng.t;  (* dedicated stream: never the engine master *)
  journal : Ci.Build.t list ref;  (* newest first; replayed reversed *)
  (* snapshot cache *)
  renderer : Webstatus.t;
  mutable cached_gen : int;  (* -1 = nothing cached *)
  mutable body : string;
  mutable cached_etag : string;
  mutable fallback_body : string;
  mutable dirty_since : float option;
      (* first un-rendered mutation; staleness of a degraded serve *)
  (* admission *)
  mutable tokens : float;
  mutable last_refill : float;
  mutable queued : int;
  (* degradation ladder *)
  mutable current_mode : mode;
  mutable calm_since : float option;
  mutable rebuild_until : float;
  mutable crash_seen : bool;
  (* counters *)
  mutable reads : int;
  mutable fresh_n : int;
  mutable not_modified_n : int;
  mutable stale_n : int;
  mutable fallback_n : int;
  mutable shed_n : int;
  mutable queued_peak : int;
  mutable renders : int;
  mutable crashes : int;
  mutable recoveries : int;
  mutable degraded_s : float;
  mutable alerts_fired : int;
  mutable staleness_zero : int;  (* weight of every zero-staleness serve *)
  mutable staleness_samples : (float * int) list;  (* value > 0, weight *)
  mutable staleness_max : float;
}

(* ---- snapshot cache ----------------------------------------------------- *)

let etag_of_generation gen = Printf.sprintf "W/\"g%d\"" gen

let render_fallback t =
  (* Deliberately computed from nothing but static text: the fallback
     must survive the aggregates being wiped mid-recovery. *)
  ignore t;
  String.concat "\n"
    [ "<!DOCTYPE html><html><head><meta charset=\"utf-8\">";
      "<title>Grid'5000 testing status</title></head><body>";
      "<h1>Testbed testing status</h1>";
      "<p>The status service is under heavy load or rebuilding; this is a \
       static placeholder. Recent results will reappear shortly.</p>";
      "</body></html>" ]

(* Single flight: one render brings the cache up to the page's current
   generation; every read that arrives before the next mutation is a hit. *)
let ensure_current t =
  let gen = Statuspage.generation t.page in
  if t.cached_gen <> gen then begin
    t.body <- Webstatus.refresh t.renderer;
    t.cached_etag <- etag_of_generation gen;
    t.cached_gen <- gen;
    t.dirty_since <- None;
    t.renders <- t.renders + 1
  end

let staleness_now t now =
  match t.dirty_since with Some since -> now -. since | None -> 0.0

(* Most ticks serve at zero staleness; they share one counter, so the
   sample list grows only with degraded ticks. *)
let sample_staleness t value weight =
  if weight > 0 then
    if value = 0.0 then t.staleness_zero <- t.staleness_zero + weight
    else begin
      t.staleness_samples <- (value, weight) :: t.staleness_samples;
      if value > t.staleness_max then t.staleness_max <- value
    end

(* ---- admission ---------------------------------------------------------- *)

let refill t now =
  let dt = now -. t.last_refill in
  if dt > 0.0 then begin
    t.tokens <- Float.min t.cfg.burst (t.tokens +. (t.cfg.rate_limit *. dt));
    t.last_refill <- now
  end

(* ---- degradation ladder ------------------------------------------------- *)

let target_mode t now =
  if now < t.rebuild_until then Static_fallback
  else if t.queued >= t.cfg.fallback_queue then Static_fallback
  else if t.queued >= t.cfg.stale_queue then Stale
  else Fresh

let update_mode t now =
  let target = target_mode t now in
  if severity target > severity t.current_mode then begin
    (* Escalate immediately; only the first departure from Fresh pages. *)
    if t.current_mode = Fresh then begin
      ignore
        (Monitoring.Alerts.fire t.alerts ~now degraded
           ~reason:
             (Printf.sprintf "serving %s (queue %d)" (mode_to_string target)
                t.queued));
      t.alerts_fired <- t.alerts_fired + 1
    end;
    t.current_mode <- target;
    t.calm_since <- None
  end
  else if severity target < severity t.current_mode then begin
    (* De-escalate only after a full hysteresis window of calm. *)
    match t.calm_since with
    | None -> t.calm_since <- Some now
    | Some since ->
      if now -. since >= t.cfg.hysteresis_s then begin
        t.current_mode <- target;
        t.calm_since <- None;
        if target = Fresh then Monitoring.Alerts.resolve t.alerts ~now degraded
      end
  end
  else t.calm_since <- None

(* ---- crash recovery ----------------------------------------------------- *)

let check_crash t now =
  let crashed =
    Testbed.Faults.flag (Env.fault_ctx t.env) Testbed.Faults.serve_crash_flag
    <> None
  in
  if crashed && not t.crash_seen then begin
    t.crash_seen <- true;
    t.crashes <- t.crashes + 1;
    (* Everything in memory is gone: snapshot cache and aggregates.  The
       renderer's cell sections need no wipe: [Statuspage.reset] bumps
       the cells generation they are stamped with. *)
    t.cached_gen <- -1;
    t.body <- "";
    t.cached_etag <- "";
    Statuspage.reset t.page;
    (* Rebuild from the build-completion journal.  [Statuspage.apply]
       timestamps with each build's own [finished_at], so the replayed
       aggregates are byte-identical to the pre-crash ones. *)
    List.iter (Statuspage.apply t.page) (List.rev !(t.journal));
    t.recoveries <- t.recoveries + 1;
    t.rebuild_until <- now +. rebuild_s;
    t.dirty_since <- Some now
  end
  else if not crashed then t.crash_seen <- false

(* ---- serving ------------------------------------------------------------ *)

(* Resolve one admitted read on the current rung and count its outcome;
   [true] when it is answered [Not_modified].  [conditional] = the reader
   sent the ETag it got last time (modeled as the cache's ETag at the
   start of the batch).  Allocates nothing, so the synthetic workload
   pays it once per admitted read without building a response. *)
let resolve t ~held_etag ~conditional =
  t.reads <- t.reads + 1;
  match t.current_mode with
  | Fresh ->
    ensure_current t;
    if conditional && String.equal held_etag t.cached_etag then begin
      t.not_modified_n <- t.not_modified_n + 1;
      true
    end
    else begin
      t.fresh_n <- t.fresh_n + 1;
      false
    end
  | Stale ->
    (* Serve whatever is cached without rendering; if nothing ever was,
       bootstrap with one render (a read must never fail outright). *)
    if t.cached_gen < 0 then ensure_current t;
    t.stale_n <- t.stale_n + 1;
    false
  | Static_fallback ->
    t.fallback_n <- t.fallback_n + 1;
    false

(* [resolve], then the response it counted. *)
let serve_one t now ~held_etag ~conditional =
  if resolve t ~held_etag ~conditional then Not_modified t.cached_etag
  else
    match t.current_mode with
    | Fresh -> Page { body = t.body; etag = t.cached_etag; mode = Fresh; staleness = 0.0 }
    | Stale ->
      Page
        { body = t.body; etag = t.cached_etag; mode = Stale;
          staleness = staleness_now t now }
    | Static_fallback ->
      Page
        { body = t.fallback_body; etag = ""; mode = Static_fallback;
          staleness = staleness_now t now }

let shed t n =
  t.reads <- t.reads + n;
  t.shed_n <- t.shed_n + n

(* ---- the service loop --------------------------------------------------- *)

let flash_active cfg now =
  cfg.flash_every > 0.0
  && Float.rem now cfg.flash_every >= cfg.flash_every -. cfg.flash_duration

let tick t eng =
  let now = Simkit.Engine.now eng in
  refill t now;
  check_crash t now;
  (* Offered load this tick (dedicated PRNG stream). *)
  let multiplier = if flash_active t.cfg now then t.cfg.flash_multiplier else 1.0 in
  let mean = t.cfg.readers_per_s *. t.cfg.tick_period *. multiplier in
  let offered = if mean > 0.0 then Simkit.Dist.poisson t.rng ~mean else 0 in
  (* Admission: the parked queue drains first, then new arrivals. *)
  let demand = t.queued + offered in
  let admitted = min demand (int_of_float t.tokens) in
  t.tokens <- t.tokens -. float_of_int admitted;
  let leftover = demand - admitted in
  let parked = min leftover t.cfg.queue_limit in
  shed t (leftover - parked);
  t.queued <- parked;
  if parked > t.queued_peak then t.queued_peak <- parked;
  update_mode t now;
  (* Resolve the admitted batch read by read (honest per-read cost for
     the benchmark) without building the responses nobody reads; the
     conditional share is a deterministic integer split. *)
  if admitted > 0 then begin
    let held_etag = t.cached_etag in
    let conditional_n =
      int_of_float (float_of_int admitted *. conditional_fraction)
    in
    let degraded_staleness =
      match t.current_mode with
      | Fresh -> 0.0
      | Stale | Static_fallback ->
        if t.current_mode = Stale && t.cached_gen < 0 then 0.0
        else staleness_now t now
    in
    for i = 1 to admitted do
      ignore (resolve t ~held_etag ~conditional:(i <= conditional_n))
    done;
    (* Fresh/not-modified serves have zero staleness; degraded serves
       all share this tick's value, recorded as one weighted sample. *)
    (match t.current_mode with
     | Fresh -> sample_staleness t 0.0 admitted
     | Stale | Static_fallback -> sample_staleness t degraded_staleness admitted);
    (* Stale-while-revalidate: the batch was served from the old
       snapshot, then a single background render freshens it. *)
    if t.current_mode = Stale && t.cached_gen <> Statuspage.generation t.page
    then ensure_current t
  end;
  if t.current_mode <> Fresh then
    t.degraded_s <- t.degraded_s +. t.cfg.tick_period;
  true

(* ---- public API --------------------------------------------------------- *)

let attach ~alerts ~config env page =
  let engine = Env.engine env in
  let t =
    {
      env;
      page;
      cfg = config;
      alerts;
      rng = Simkit.Prng.create config.workload_seed;
      journal = ref [];
      renderer = Webstatus.create page;
      cached_gen = -1;
      body = "";
      cached_etag = "";
      fallback_body = "";
      dirty_since = None;
      tokens = config.burst;
      last_refill = Simkit.Engine.now engine;
      queued = 0;
      current_mode = Fresh;
      calm_since = None;
      rebuild_until = neg_infinity;
      crash_seen = false;
      reads = 0;
      fresh_n = 0;
      not_modified_n = 0;
      stale_n = 0;
      fallback_n = 0;
      shed_n = 0;
      queued_peak = 0;
      renders = 0;
      crashes = 0;
      recoveries = 0;
      degraded_s = 0.0;
      alerts_fired = 0;
      staleness_zero = 0;
      staleness_samples = [];
      staleness_max = 0.0;
    }
  in
  t.fallback_body <- render_fallback t;
  (* The service's own journal of completions: the CI server's build
     history is retention-trimmed, so recovery needs an unbounded log.
     The listener also pins [dirty_since] to the mutation time, which is
     what degraded reads report as staleness. *)
  Ci.Server.on_build_complete env.Env.ci (fun build ->
      t.journal := build :: !(t.journal);
      if t.dirty_since = None then t.dirty_since <- Some (Env.now env));
  Simkit.Engine.every engine ~label:"serve" ~period:config.tick_period (tick t);
  t

let read t ?if_none_match () =
  let now = Env.now t.env in
  refill t now;
  if t.tokens < 1.0 then begin
    shed t 1;
    Shed
  end
  else begin
    t.tokens <- t.tokens -. 1.0;
    let held_etag = Option.value ~default:"" if_none_match in
    serve_one t now ~held_etag ~conditional:(if_none_match <> None)
  end

let mode t = t.current_mode
let etag t = if t.cached_gen < 0 then None else Some t.cached_etag

(* [sorted] ascending by value; samples of equal value may be split or
   merged freely without changing the result. *)
let weighted_percentile sorted p =
  match sorted with
  | [] -> 0.0
  | sorted ->
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 sorted in
    let target = p *. float_of_int total in
    let rec pick cumulative = function
      | [] -> 0.0
      | [ (value, _) ] -> value
      | (value, n) :: rest ->
        let cumulative = cumulative + n in
        if float_of_int cumulative >= target then value else pick cumulative rest
    in
    pick 0 sorted

let summary t =
  let served = t.fresh_n + t.not_modified_n + t.stale_n + t.fallback_n in
  let staleness =
    (if t.staleness_zero > 0 then [ (0.0, t.staleness_zero) ] else [])
    @ t.staleness_samples
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  {
    reads = t.reads;
    fresh = t.fresh_n;
    not_modified = t.not_modified_n;
    stale = t.stale_n;
    fallback = t.fallback_n;
    shed = t.shed_n;
    queued_now = t.queued;
    queued_peak = t.queued_peak;
    renders = t.renders;
    renders_saved = served - t.renders;
    crashes = t.crashes;
    recoveries = t.recoveries;
    degraded_seconds = t.degraded_s;
    alerts_fired = t.alerts_fired;
    staleness_p50 = weighted_percentile staleness 0.50;
    staleness_p99 = weighted_percentile staleness 0.99;
    staleness_max = t.staleness_max;
    hit_ratio =
      (if served = 0 then nan
       else float_of_int (served - t.renders) /. float_of_int served);
  }

let render (s : summary) =
  Simkit.Table.render
    ~header:[ "serving counter"; "value" ]
    [ [ "reads resolved"; string_of_int s.reads ];
      [ "served fresh"; string_of_int s.fresh ];
      [ "304 not modified"; string_of_int s.not_modified ];
      [ "served stale"; string_of_int s.stale ];
      [ "served fallback"; string_of_int s.fallback ];
      [ "shed"; string_of_int s.shed ];
      [ "queued at end"; string_of_int s.queued_now ];
      [ "queue peak"; string_of_int s.queued_peak ];
      [ "renders"; string_of_int s.renders ];
      [ "renders saved"; string_of_int s.renders_saved ];
      [ "cache hit ratio"; Statuspage.fmt_ratio s.hit_ratio ];
      [ "crashes"; string_of_int s.crashes ];
      [ "recoveries"; string_of_int s.recoveries ];
      [ "degraded seconds"; Simkit.Table.fmt_float s.degraded_seconds ];
      [ "alerts fired"; string_of_int s.alerts_fired ];
      [ "staleness p50 (s)"; Simkit.Table.fmt_float s.staleness_p50 ];
      [ "staleness p99 (s)"; Simkit.Table.fmt_float s.staleness_p99 ];
      [ "staleness max (s)"; Simkit.Table.fmt_float s.staleness_max ] ]

let summary_line (s : summary) =
  Printf.sprintf "serving: %d reads (%d shed), %d renders, %d crashes, p99 staleness %.1f s"
    s.reads s.shed s.renders s.crashes s.staleness_p99

let summary_to_json (s : summary) =
  let open Simkit.Json in
  Obj
    [ ("reads", Int s.reads);
      ("fresh", Int s.fresh);
      ("not_modified", Int s.not_modified);
      ("stale", Int s.stale);
      ("fallback", Int s.fallback);
      ("shed", Int s.shed);
      ("queued_now", Int s.queued_now);
      ("queued_peak", Int s.queued_peak);
      ("renders", Int s.renders);
      ("renders_saved", Int s.renders_saved);
      ("crashes", Int s.crashes);
      ("recoveries", Int s.recoveries);
      ("degraded_seconds", Float s.degraded_seconds);
      ("alerts_fired", Int s.alerts_fired);
      ("staleness_p50", Float s.staleness_p50);
      ("staleness_p99", Float s.staleness_p99);
      ("staleness_max", Float s.staleness_max);
      ("hit_ratio", Float s.hit_ratio) ]
