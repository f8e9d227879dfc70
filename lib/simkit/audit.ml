type violation = { at : float; check : string; detail : string }

type check = { check_name : string; run : unit -> (unit, string) result }

type probe = {
  probe_name : string;
  digest : unit -> int;
  mutable last_digest : int;
}

(* Most recent executed event that changed at least one probe digest:
   (time, source label, names of the probes it changed). *)
type last_change = { lc_time : float; lc_label : string option; lc_probes : string list }

type t = {
  engine : Engine.t;
  period : float;
  mutable checks : check list;  (* registration order *)
  mutable probes : probe list;
  mutable probe_arr : probe array;  (* probes snapshot for the hot path *)
  mutable changed_buf : string array;  (* scratch, length = #probes *)
  mutable violations : violation list;  (* newest first *)
  mutable checks_run : int;
  mutable events_observed : int;
  mutable races : int;
  mutable last_change : last_change option;
  race_seen : (string, unit) Hashtbl.t;
      (* "<time>:<probe>" already flagged, so a burst of same-time events
         yields one violation per (instant, probe) *)
  mutable started : bool;
}

let create ?(period = 6.0 *. 3600.0) engine =
  if period <= 0.0 then invalid_arg "Audit.create: period must be positive";
  {
    engine;
    period;
    checks = [];
    probes = [];
    probe_arr = [||];
    changed_buf = [||];
    violations = [];
    checks_run = 0;
    events_observed = 0;
    races = 0;
    last_change = None;
    race_seen = Hashtbl.create 64;
    started = false;
  }

let record t ~check ~detail =
  t.violations <- { at = Engine.now t.engine; check; detail } :: t.violations

let register t ~name run =
  if List.exists (fun c -> String.equal c.check_name name) t.checks then
    invalid_arg ("Audit.register: duplicate check " ^ name);
  t.checks <- t.checks @ [ { check_name = name; run } ]

let watch t ~name digest =
  if List.exists (fun p -> String.equal p.probe_name name) t.probes then
    invalid_arg ("Audit.watch: duplicate probe " ^ name);
  t.probes <- t.probes @ [ { probe_name = name; digest; last_digest = digest () } ];
  t.probe_arr <- Array.of_list t.probes;
  t.changed_buf <- Array.make (Array.length t.probe_arr) ""

let run_checks t =
  List.iter
    (fun c ->
      t.checks_run <- t.checks_run + 1;
      match c.run () with
      | Ok () -> ()
      | Error detail -> record t ~check:c.check_name ~detail
      | exception exn ->
        record t ~check:c.check_name
          ~detail:("check raised " ^ Printexc.to_string exn))
    t.checks

(* Same-timestamp race detection.  Two time-tied events from distinct
   labelled sources that both mutate the same watched state digest do not
   commute: swapping their execution order would change the state an
   observer sees between them.  The engine's tie-break (scheduling order)
   makes runs reproducible, but such pairs are exactly where a real
   (wall-clock) deployment could order events either way — flag them. *)
let observe t ~time ~label =
  t.events_observed <- t.events_observed + 1;
  (* Hot path: runs after every executed event when probes exist.  Scan
     the probe array into a preallocated scratch so the common
     nothing-changed case allocates nothing. *)
  let probes = t.probe_arr in
  let nchanged = ref 0 in
  for i = 0 to Array.length probes - 1 do
    let p = probes.(i) in
    let d = p.digest () in
    if d <> p.last_digest then begin
      p.last_digest <- d;
      t.changed_buf.(!nchanged) <- p.probe_name;
      incr nchanged
    end
  done;
  if !nchanged > 0 then begin
    let changed = Array.to_list (Array.sub t.changed_buf 0 !nchanged) in
    (match t.last_change with
     | Some prev when prev.lc_time = time -> (
       match (prev.lc_label, label) with
       | Some a, Some b when not (String.equal a b) ->
         List.iter
           (fun probe ->
             if List.mem probe prev.lc_probes then begin
               let key = Printf.sprintf "%h:%s" time probe in
               if not (Hashtbl.mem t.race_seen key) then begin
                 Hashtbl.replace t.race_seen key ();
                 t.races <- t.races + 1;
                 record t ~check:"event-order-race"
                   ~detail:
                     (Printf.sprintf
                        "time-tied events from sources '%s' and '%s' both \
                         changed watched state '%s' at t=%.3f"
                        a b probe time)
               end
             end)
           changed
       | _ -> ())
     | _ -> ());
    t.last_change <- Some { lc_time = time; lc_label = label; lc_probes = changed }
  end

let start t =
  if not t.started then begin
    t.started <- true;
    if t.probes <> [] then
      Engine.set_observer t.engine (Some (fun ~time ~label -> observe t ~time ~label));
    (* No jitter: the audit loop must not consume engine randomness, so
       an audited campaign replays the unaudited one's decisions. *)
    Engine.every t.engine ~label:"audit" ~period:t.period (fun _ ->
        run_checks t;
        true)
  end

let violations t = List.rev t.violations
let checks_run t = t.checks_run
let events_observed t = t.events_observed
let races_flagged t = t.races

type summary = {
  checks_run : int;
  violations : violation list;
  races_flagged : int;
  events_observed : int;
}

let summary (a : t) =
  {
    checks_run = a.checks_run;
    violations = violations a;
    races_flagged = a.races;
    events_observed = a.events_observed;
  }

let violation_to_json v =
  Json.Obj
    [ ("at", Json.Float v.at);
      ("check", Json.String v.check);
      ("detail", Json.String v.detail) ]

let summary_to_json s =
  Json.Obj
    [ ("checks_run", Json.Int s.checks_run);
      ("violations", Json.List (List.map violation_to_json s.violations));
      ("races_flagged", Json.Int s.races_flagged);
      ("events_observed", Json.Int s.events_observed) ]
