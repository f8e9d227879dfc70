type direction = Lower | Higher | Must_be_true

type row = {
  bench : string;
  path : string;
  direction : direction;
  gating : bool;
  floor : float;
}

let lint_floor_s = 0.25

let gate ?(floor = 0.0) bench path direction =
  { bench; path; direction; gating = true; floor }

let info bench path direction = { (gate bench path direction) with gating = false }

let table =
  [ gate "engine" "step_latency_us.p95" Lower;
    info "engine" "events_per_s" Higher;
    info "engine" "minor_words_per_event" Lower;
    gate "serve" "staleness_s.p99" Lower;
    gate "serve" "conservation_ok" Must_be_true;
    info "serve" "reads_per_s" Higher;
    info "serve" "hit_ratio" Higher;
    gate "federation" "identical_across_shards" Must_be_true;
    gate "federation" "speedup" Higher;
    info "federation" "sharded_events_per_s" Higher;
    info "federation" "reference_events_per_s" Higher;
    gate ~floor:lint_floor_s "lint" "lint.wall_s" Lower;
    gate "lint" "audit.reports_identical" Must_be_true;
    info "lint" "lint.configurations" Higher;
    info "lint" "lint.diagnostics" Lower ]

let benches =
  List.fold_left
    (fun acc r -> if List.mem r.bench acc then acc else acc @ [ r.bench ])
    [] table

let file bench = "BENCH_" ^ bench ^ ".json"

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
    (fun bench ->
      let path = Filename.concat dir (file bench) in
      let* text =
        try Ok (In_channel.with_open_bin path In_channel.input_all)
        with Sys_error e -> Error e
      in
      match Simkit.Json.of_string text with
      | Ok doc -> Ok (bench, doc)
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
    benches

type verdict = {
  ok : bool;
  lines : string list;
}

let default_threshold_pct = 20.0

(* The row's field in one run's documents, converted by [kind]. *)
let field role docs r (kind, convert) =
  let missing = Printf.sprintf "%s %s: missing %s field %S" role (file r.bench) kind r.path in
  let member acc key = Option.bind acc (Simkit.Json.member key) in
  let doc = List.assoc_opt r.bench docs in
  Option.to_result ~none:missing
    (Option.bind (List.fold_left member doc (String.split_on_char '.' r.path)) convert)

let boolean = ("boolean", function Simkit.Json.Bool b -> Some b | _ -> None)

let numeric =
  ( "numeric",
    function
    | Simkit.Json.Float f -> Some f
    | Simkit.Json.Int i -> Some (float_of_int i)
    | _ -> None )

(* One row: whether it holds, and its report line. *)
let judge t ~baseline ~current r =
  let verdict ok rule =
    let tag = if not r.gating then "informational" else if ok then "ok" else "FAIL" in
    (ok || not r.gating, Printf.sprintf "%-36s %s; %s" (r.bench ^ " " ^ r.path) rule tag)
  in
  match r.direction with
  | Must_be_true ->
    let* b = field "baseline" baseline r boolean in
    let* c = field "current" current r boolean in
    Ok (verdict c (Printf.sprintf "baseline %b, current %b, must be true" b c))
  | Lower | Higher ->
    let* b = field "baseline" baseline r numeric in
    let* c = field "current" current r numeric in
    let delta = if b = 0.0 then 0.0 else (c -. b) /. b *. 100.0 in
    let shown = Printf.sprintf "baseline %g, current %g (%+.1f%%)" b c delta in
    if not r.gating then Ok (verdict true shown)
    else if r.direction = Lower then
      let limit = Float.max r.floor (b *. (1.0 +. t)) in
      Ok (verdict (c <= limit) (Printf.sprintf "%s, limit <= %g" shown limit))
    else
      let limit = Float.max r.floor (b *. (1.0 -. t)) in
      Ok (verdict (c >= limit) (Printf.sprintf "%s, limit >= %g" shown limit))

let check ?(threshold_pct = default_threshold_pct) ~baseline ~current () =
  if not (Float.is_finite threshold_pct && threshold_pct >= 0.0 && threshold_pct < 100.0)
  then Error (Printf.sprintf "threshold %g%% is not a percentage in [0, 100)" threshold_pct)
  else
    let t = threshold_pct /. 100.0 in
    let* judged = map_result (judge t ~baseline ~current) table in
    let failed =
      List.filter_map
        (fun (r, (ok, _)) -> if ok then None else Some (r.bench ^ " " ^ r.path))
        (List.combine table judged)
    in
    let summary =
      match failed with
      | [] -> Printf.sprintf "perfgate: PASS (threshold %g%%)" threshold_pct
      | _ -> Printf.sprintf "perfgate: FAIL (%s)" (String.concat ", " failed)
    in
    Ok { ok = failed = []; lines = List.map snd judged @ [ summary ] }
