type aggregation = Mean | Max | Min

type condition = Above of float | Below of float | Absent

type rule = {
  rule_name : string;
  host : string;
  metric : Collector.metric;
  window : float;
  aggregation : aggregation;
  condition : condition;
}

type source =
  | Metric of rule
  | Healthy_floor of string  (* site *)
  | Quarantine of string  (* host *)
  | Flapping of int  (* bug id *)
  | Serving_degraded of string  (* service *)

type alert = {
  source : source;
  fired_at : float;
  value : float option;
  reason : string;
  mutable resolved_at : float option;
}

type t = {
  collector : Collector.t;
  mutable rule_list : rule list;
  mutable floors : (string * float) list;  (* site -> healthy fraction floor *)
  mutable alerts : alert list;  (* newest first *)
}

let create collector =
  { collector; rule_list = []; floors = []; alerts = [] }

let add_rule t rule = t.rule_list <- t.rule_list @ [ rule ]
let rules t = t.rule_list
let firing t = List.rev (List.filter (fun a -> a.resolved_at = None) t.alerts)
let history t = List.rev t.alerts

let aggregate aggregation values =
  match values with
  | [||] -> None
  | values ->
    Some
      (match aggregation with
       | Mean ->
         Array.fold_left ( +. ) 0.0 values /. float_of_int (Array.length values)
       | Max -> Array.fold_left Float.max neg_infinity values
       | Min -> Array.fold_left Float.min infinity values)

let currently_firing t source =
  List.find_opt (fun a -> a.resolved_at = None && a.source = source) t.alerts

let push t ~now source ~value ~reason =
  let alert = { source; fired_at = now; value; reason; resolved_at = None } in
  t.alerts <- alert :: t.alerts;
  alert

let fire t ~now source ~reason =
  match currently_firing t source with
  | Some alert -> alert
  | None -> push t ~now source ~value:None ~reason

let resolve t ~now source =
  match currently_firing t source with
  | Some alert -> alert.resolved_at <- Some now
  | None -> ()

(* Level-triggered sources fire once while [holds] and resolve when it
   stops; [reason] is only built for a new alert. *)
let observe t ~now source ~holds ~value ~reason =
  if holds then
    match currently_firing t source with
    | Some _ -> None
    | None -> Some (push t ~now source ~value ~reason:(reason ()))
  else begin
    resolve t ~now source;
    None
  end

let condition_to_string = function
  | Above v -> Printf.sprintf "> %.1f" v
  | Below v -> Printf.sprintf "< %.1f" v
  | Absent -> "absent"

let evaluate t ~now =
  List.filter_map
    (fun rule ->
      let lo = Float.max 0.0 (now -. rule.window) in
      let series =
        Collector.sample_window t.collector ~host:rule.host rule.metric ~lo ~hi:now
      in
      let values = Simkit.Timeseries.values_between series ~lo ~hi:now in
      let aggregated = aggregate rule.aggregation values in
      let holds =
        match (rule.condition, aggregated) with
        | Absent, None -> true
        | Absent, Some _ -> false
        | (Above _ | Below _), None -> false
        | Above threshold, Some v -> v > threshold
        | Below threshold, Some v -> v < threshold
      in
      observe t ~now (Metric rule) ~holds ~value:aggregated ~reason:(fun () ->
          Printf.sprintf "%s %s on %s"
            (Collector.metric_to_string rule.metric)
            (condition_to_string rule.condition)
            rule.host))
    t.rule_list

let set_healthy_floor t ~site ~floor =
  t.floors <- (site, floor) :: List.remove_assoc site t.floors

let observe_site_health t ~now ~site ~healthy_fraction =
  match List.assoc_opt site t.floors with
  | None -> None
  | Some floor ->
    observe t ~now (Healthy_floor site) ~holds:(healthy_fraction < floor)
      ~value:(Some healthy_fraction) ~reason:(fun () ->
        Printf.sprintf "healthy fraction of %s at %.0f%% (floor %.0f%%)" site
          (100.0 *. healthy_fraction) (100.0 *. floor))

let source_to_strings = function
  | Metric rule ->
    ( rule.rule_name,
      rule.host,
      Collector.metric_to_string rule.metric,
      condition_to_string rule.condition )
  | Healthy_floor site -> ("healthy-floor", site, "healthy_fraction", "below floor")
  | Quarantine host -> ("quarantine", host, "node_health", "quarantined")
  | Flapping bug ->
    ("flapping", Printf.sprintf "bug #%d" bug, "bugtracker", "fixed<->reopened")
  | Serving_degraded service ->
    ("serving-degraded", service, "serve_mode", "not fresh")

let render t =
  Simkit.Table.render ~header:[ "alert"; "subject"; "metric"; "condition"; "since"; "value" ]
    (List.map
       (fun a ->
         let name, subject, metric, condition = source_to_strings a.source in
         [ name; subject; metric; condition;
           Simkit.Calendar.to_string a.fired_at;
           (match a.value with Some v -> Simkit.Table.fmt_float v | None -> "-") ])
       (firing t))
