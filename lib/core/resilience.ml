module Retry = struct
  type config = {
    initial : float;
    max_delay : float;
    multiplier : float;
    jitter : float;
    budget : int;
  }

  let default =
    {
      initial = 3600.0;
      max_delay = 4.0 *. Simkit.Calendar.day;
      multiplier = 2.0;
      jitter = 0.0;
      budget = max_int;
    }

  type t = {
    cfg : config;
    rng : Simkit.Prng.t;
    mutable backoff : float;
    mutable spent : int;
    mutable total_spent : int;
  }

  let create ?(seed = 7L) cfg =
    {
      cfg;
      rng = Simkit.Prng.create seed;
      backoff = cfg.initial;
      spent = 0;
      total_spent = 0;
    }

  let next_delay t =
    if t.spent >= t.cfg.budget then None
    else begin
      t.spent <- t.spent + 1;
      t.total_spent <- t.total_spent + 1;
      let delay =
        if t.cfg.jitter <= 0.0 then begin
          (* Legacy deterministic exponential: hand out the current
             backoff, then grow it. *)
          let d = t.backoff in
          t.backoff <- Float.min t.cfg.max_delay (t.backoff *. t.cfg.multiplier);
          d
        end
        else begin
          (* Decorrelated jitter: draw from [initial, 3 x previous],
             width scaled by the jitter knob, capped. *)
          let hi = Float.max t.cfg.initial (t.backoff *. 3.0) in
          let u = Simkit.Prng.float t.rng *. t.cfg.jitter in
          let d =
            Float.min t.cfg.max_delay (t.cfg.initial +. (u *. (hi -. t.cfg.initial)))
          in
          t.backoff <- Float.max t.cfg.initial d;
          d
        end
      in
      Some delay
    end

  let reset t =
    t.backoff <- t.cfg.initial;
    t.spent <- 0

  let spent t = t.spent
  let total_spent t = t.total_spent
  let budget t = t.cfg.budget
  let exhausted t = t.spent >= t.cfg.budget
end

module Breaker = struct
  type config = { failure_threshold : int; cooldown : float }

  let default = { failure_threshold = 5; cooldown = 12.0 *. 3600.0 }

  type state = Closed | Open | Half_open

  type t = {
    cfg : config;
    mutable state : state;
    mutable consecutive : int;
    mutable opened_at : float;
    mutable trips : int;
  }

  let create cfg = { cfg; state = Closed; consecutive = 0; opened_at = 0.0; trips = 0 }
  let state t = t.state

  let trip t ~now =
    t.state <- Open;
    t.opened_at <- now;
    t.consecutive <- 0;
    t.trips <- t.trips + 1

  let allow t ~now =
    match t.state with
    | Closed -> true
    | Half_open -> false
    | Open ->
      if now >= t.opened_at +. t.cfg.cooldown then begin
        t.state <- Half_open;
        true
      end
      else false

  let record_success t =
    t.state <- Closed;
    t.consecutive <- 0

  let record_failure t ~now =
    match t.state with
    | Half_open -> trip t ~now
    | Closed ->
      t.consecutive <- t.consecutive + 1;
      if t.consecutive >= t.cfg.failure_threshold then trip t ~now
    | Open -> ()  (* late completion of a build in flight when we opened *)

  let trips t = t.trips
end

module Watchdog = struct
  type status = Armed | Fired | Disarmed

  type handle = {
    mutable status : status;
    mutable event : Simkit.Engine.handle option;
  }

  type t = {
    engine : Simkit.Engine.t;
    mutable n_fired : int;
    mutable n_armed : int;
  }

  let create engine = { engine; n_fired = 0; n_armed = 0 }

  let arm t ~delay f =
    let h = { status = Armed; event = None } in
    h.event <-
      Some
        (Simkit.Engine.schedule t.engine ~delay (fun _ ->
             if h.status = Armed then begin
               h.status <- Fired;
               t.n_armed <- t.n_armed - 1;
               t.n_fired <- t.n_fired + 1;
               f ()
             end));
    t.n_armed <- t.n_armed + 1;
    h

  let disarm t h =
    if h.status = Armed then begin
      h.status <- Disarmed;
      (match h.event with
       | Some event -> Simkit.Engine.cancel t.engine event
       | None -> ());
      t.n_armed <- t.n_armed - 1
    end

  let fired t = t.n_fired
  let armed t = t.n_armed
end

type summary = {
  watchdog_aborts : int;
  breaker_trips : int;
  skipped_breaker_open : int;
  retries_spent : int;
  retry_budget : int;
  retries_exhausted : int;
  ci_outages : int;
  queue_drops : int;
  dropped_builds : int;
  deferred_triggers : int;
}

module Infra = struct
  type config = {
    check_period : float;
    deadline_of : Ci.Build.t -> float option;
  }

  let default_deadline build =
    match Jobs.config_of_build build with
    | Some config ->
      Some
        (Float.max (2.0 *. 3600.0)
           (8.0 *. Testdef.nominal_duration config.Testdef.family))
    | None -> Some (4.0 *. 3600.0)

  let default_config = { check_period = 300.0; deadline_of = default_deadline }

  type t = {
    env : Env.t;
    cfg : config;
    wd : Watchdog.t;
    handles : (string * int, Watchdog.handle) Hashtbl.t;
    mutable n_ci_outages : int;
    mutable n_queue_drops : int;
    mutable n_dropped_builds : int;
    mutable queue_loss_handled : bool;
  }

  let key build = (build.Ci.Build.job_name, build.Ci.Build.number)

  let on_start t build =
    match t.cfg.deadline_of build with
    | None -> ()
    | Some delay ->
      let handle =
        Watchdog.arm t.wd ~delay (fun () ->
            Hashtbl.remove t.handles (key build);
            ignore (Ci.Server.interrupt t.env.Env.ci build))
      in
      Hashtbl.replace t.handles (key build) handle

  let on_complete t build =
    match Hashtbl.find_opt t.handles (key build) with
    | Some handle ->
      Watchdog.disarm t.wd handle;
      Hashtbl.remove t.handles (key build)
    | None -> ()

  let sync t =
    let ci = t.env.Env.ci in
    let ctx = Env.fault_ctx t.env in
    let flag key = Testbed.Faults.flag ctx key <> None in
    let outage = flag Testbed.Faults.ci_outage_flag in
    if outage && not (Ci.Server.outage ci) then begin
      t.n_ci_outages <- t.n_ci_outages + 1;
      Ci.Server.set_outage ci true
    end
    else if (not outage) && Ci.Server.outage ci then Ci.Server.set_outage ci false;
    Ci.Server.set_hang ci (flag Testbed.Faults.build_hang_flag);
    if flag Testbed.Faults.queue_loss_flag then begin
      if not t.queue_loss_handled then begin
        t.queue_loss_handled <- true;
        let n = Ci.Server.drop_queue ci in
        t.n_queue_drops <- t.n_queue_drops + 1;
        t.n_dropped_builds <- t.n_dropped_builds + n
      end
    end
    else t.queue_loss_handled <- false

  let attach ?(config = default_config) env =
    let t =
      {
        env;
        cfg = config;
        wd = Watchdog.create (Env.engine env);
        handles = Hashtbl.create 64;
        n_ci_outages = 0;
        n_queue_drops = 0;
        n_dropped_builds = 0;
        queue_loss_handled = false;
      }
    in
    Ci.Server.on_build_start env.Env.ci (fun build -> on_start t build);
    Ci.Server.on_build_complete env.Env.ci (fun build -> on_complete t build);
    Simkit.Engine.every (Env.engine env) ~period:config.check_period (fun _ ->
        sync t;
        true);
    t

  let watchdog_aborts t = Watchdog.fired t.wd
  let ci_outages t = t.n_ci_outages
  let queue_drops t = t.n_queue_drops
  let dropped_builds t = t.n_dropped_builds

  let summary t ~scheduler =
    let breaker_trips, skipped_breaker_open, retries_spent, retries_exhausted,
        retry_budget =
      match scheduler with
      | Some (trips, skipped, spent, exhausted, budget) ->
        (trips, skipped, spent, exhausted, budget)
      | None -> (0, 0, 0, 0, max_int)
    in
    {
      watchdog_aborts = watchdog_aborts t;
      breaker_trips;
      skipped_breaker_open;
      retries_spent;
      retry_budget;
      retries_exhausted;
      ci_outages = ci_outages t;
      queue_drops = queue_drops t;
      dropped_builds = dropped_builds t;
      deferred_triggers = Ci.Server.deferred_triggers t.env.Env.ci;
    }
end

let summary_to_json s =
  let open Simkit.Json in
  Obj
    [ ("watchdog_aborts", Int s.watchdog_aborts);
      ("breaker_trips", Int s.breaker_trips);
      ("skipped_breaker_open", Int s.skipped_breaker_open);
      ("retries_spent", Int s.retries_spent);
      ( "retry_budget",
        if s.retry_budget = max_int then Null else Int s.retry_budget );
      ("retries_exhausted", Int s.retries_exhausted);
      ("ci_outages", Int s.ci_outages);
      ("queue_drops", Int s.queue_drops);
      ("dropped_builds", Int s.dropped_builds);
      ("deferred_triggers", Int s.deferred_triggers) ]

let render s =
  let budget =
    if s.retry_budget = max_int then "unlimited" else string_of_int s.retry_budget
  in
  Simkit.Table.render
    ~header:[ "resilience counter"; "value" ]
    [ [ "watchdog aborts"; string_of_int s.watchdog_aborts ];
      [ "breaker trips"; string_of_int s.breaker_trips ];
      [ "skipped (breaker open)"; string_of_int s.skipped_breaker_open ];
      [ "retries spent"; string_of_int s.retries_spent ];
      [ "retry budget"; budget ];
      [ "retries exhausted"; string_of_int s.retries_exhausted ];
      [ "CI outages weathered"; string_of_int s.ci_outages ];
      [ "queue drops"; string_of_int s.queue_drops ];
      [ "builds dropped"; string_of_int s.dropped_builds ];
      [ "deferred triggers"; string_of_int s.deferred_triggers ] ]

let summary_line s =
  Printf.sprintf
    "resilience: %d watchdog aborts, %d breaker trips, %d CI outages, %d builds \
     dropped"
    s.watchdog_aborts s.breaker_trips s.ci_outages s.dropped_builds
