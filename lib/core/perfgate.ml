type kind = Must_be_true | Lower | Informational

type row = {
  workload : string;
  metric : string;
  kind : kind;
}

(* The engine event labels perfbench charges events to. *)
let labels =
  [ "scheduler"; "workload"; "oar"; "oar-refresh"; "deploy"; "faults"; "serve"; "audit";
    "health"; "triage-delay"; "ci-cron"; "unlabelled" ]

let workloads = [ "campaign-default"; "campaign-attached" ]

let rows workload =
  let row kind metric = { workload; metric; kind } in
  let per_label label =
    [ row Lower (label ^ ".events");
      row Lower (label ^ ".words_per_event");
      row Informational (label ^ ".host_ms") ]
  in
  let federation =
    if workload = "campaign-default" then
      List.map (row Informational)
        [ "federation.seq_s"; "federation.par_s"; "federation.parallel_efficiency" ]
    else []
  in
  (row Must_be_true "correct" :: List.concat_map per_label labels)
  @ (row Lower "serve.staleness_p99_s"
    :: List.map (row Informational)
         [ "engine.step_p50_us"; "engine.step_p99_us"; "engine.step_max_us"; "lint.ms" ])
  @ federation

let table = List.concat_map rows workloads

let file workload = "BENCH_" ^ workload ^ ".json"

type docs = (string * Simkit.Json.t) list

let ( let* ) = Result.bind

(* [f] over [xs], in order, stopping at the first error. *)
let map_result f xs =
  let step acc x =
    let* ys = acc in
    let* y = f x in
    Ok (y :: ys)
  in
  Result.map List.rev (List.fold_left step (Ok []) xs)

let load dir =
  map_result
    (fun workload ->
      let path = Filename.concat dir (file workload) in
      let* text =
        try Ok (In_channel.with_open_bin path In_channel.input_all)
        with Sys_error e -> Error e
      in
      match Simkit.Json.of_string text with
      | Ok doc -> Ok (workload, doc)
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
    workloads

type verdict = {
  ok : bool;
  lines : string list;
}

let default_threshold_pct = 5.0

(* The row's value in one run's documents, converted by [convert]: a
   top-level member for a boolean row, [metrics.<metric>.value] for a
   numeric one. *)
let field role docs r (what, convert) =
  let missing = Printf.sprintf "%s %s: missing %s %S" role (file r.workload) what r.metric in
  let value doc =
    match r.kind with
    | Must_be_true -> Simkit.Json.member r.metric doc
    | Lower | Informational ->
      Option.bind (Simkit.Json.member "metrics" doc) (fun metrics ->
          Option.bind (Simkit.Json.member r.metric metrics) (Simkit.Json.member "value"))
  in
  Option.to_result ~none:missing
    (Option.bind (Option.bind (List.assoc_opt r.workload docs) value) convert)

let boolean = ("boolean", function Simkit.Json.Bool b -> Some b | _ -> None)

let numeric =
  ( "numeric metric",
    function
    | Simkit.Json.Float f -> Some f
    | Simkit.Json.Int i -> Some (float_of_int i)
    | _ -> None )

(* One row: whether it holds, and its report line. *)
let judge t ~baseline ~current r =
  let verdict ok rule =
    let tag = if r.kind = Informational then "informational" else if ok then "ok" else "FAIL" in
    (ok, Printf.sprintf "%-48s %s; %s" (r.workload ^ " " ^ r.metric) rule tag)
  in
  match r.kind with
  | Must_be_true ->
    let* b = field "baseline" baseline r boolean in
    let* c = field "current" current r boolean in
    Ok (verdict c (Printf.sprintf "baseline %b, current %b, must be true" b c))
  | Lower | Informational ->
    let* b = field "baseline" baseline r numeric in
    let* c = field "current" current r numeric in
    let delta = if b = 0.0 then 0.0 else (c -. b) /. b *. 100.0 in
    let shown = Printf.sprintf "baseline %g, current %g (%+.1f%%)" b c delta in
    if r.kind = Informational then Ok (verdict true shown)
    else
      let limit = b *. (1.0 +. t) in
      Ok (verdict (c <= limit) (Printf.sprintf "%s, limit <= %g" shown limit))

let check ?(threshold_pct = default_threshold_pct) ~baseline ~current () =
  if not (Float.is_finite threshold_pct && threshold_pct >= 0.0 && threshold_pct < 100.0)
  then Error (Printf.sprintf "threshold %g%% is not a percentage in [0, 100)" threshold_pct)
  else
    let t = threshold_pct /. 100.0 in
    let* judged = map_result (judge t ~baseline ~current) table in
    let failed =
      List.filter_map
        (fun (r, (ok, _)) -> if ok then None else Some (r.workload ^ " " ^ r.metric))
        (List.combine table judged)
    in
    let summary =
      match failed with
      | [] -> Printf.sprintf "perfgate: PASS (threshold %g%%)" threshold_pct
      | _ -> Printf.sprintf "perfgate: FAIL (%s)" (String.concat ", " failed)
    in
    Ok { ok = failed = []; lines = List.map snd judged @ [ summary ] }
