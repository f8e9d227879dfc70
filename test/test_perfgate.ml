(* The perf gate over the checked-in perfbench baselines: it must fail on
   a real change of a gating row or a broken correctness bit, never on a
   host time, and reject unreadable documents rather than wave them
   through.  Every case starts from the real baselines and edits one
   metric. *)

module P = Framework.Perfgate
module J = Simkit.Json

let checkb = Alcotest.(check bool)

(* The test's dune rule copies the baselines one level above the test
   executable. *)
let baseline_dir = Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name

let baseline =
  lazy
    (match P.load baseline_dir with
     | Ok d -> d
     | Error e -> Alcotest.failf "loading the checked-in baselines: %s" e)

let update key f = function
  | J.Obj members -> J.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) members)
  | doc -> doc

let number = function
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> Alcotest.fail "metric value is not a number"

(* The baselines with [workload]'s document passed through [f]. *)
let edit workload f =
  List.map (fun (w, doc) -> if w = workload then (w, f doc) else (w, doc)) (Lazy.force baseline)

let edit_metric workload metric f =
  edit workload (update "metrics" (update metric (update "value" f)))

(* The baselines with one metric's value multiplied by [k]. *)
let scaled workload metric k = edit_metric workload metric (fun v -> J.Float (number v *. k))

let value workload metric =
  match
    Option.bind
      (J.member "metrics" (List.assoc workload (Lazy.force baseline)))
      (fun m -> Option.bind (J.member metric m) (J.member "value"))
  with
  | Some v -> number v
  | None -> Alcotest.failf "baseline %s lacks %s" workload metric

let gate ?threshold_pct current =
  match P.check ?threshold_pct ~baseline:(Lazy.force baseline) ~current () with
  | Ok v -> v
  | Error e -> Alcotest.failf "check failed: %s" e

let starts_with prefix line =
  String.length line >= String.length prefix
  && String.sub line 0 (String.length prefix) = prefix

let ends_with suffix line =
  let n = String.length line and k = String.length suffix in
  n >= k && String.sub line (n - k) k = suffix

let contains sub line =
  let n = String.length sub in
  let rec from i = i + n <= String.length line && (String.sub line i n = sub || from (i + 1)) in
  from 0

(* The report line of [workload]'s [metric] row. *)
let row_line v workload metric =
  let prefix = workload ^ " " ^ metric ^ " " in
  match List.find_opt (starts_with prefix) v.P.lines with
  | Some line -> line
  | None -> Alcotest.failf "no row for %s %s" workload metric

let row_tagged v workload metric tag = ends_with ("; " ^ tag) (row_line v workload metric)

let summary v = List.nth v.P.lines (List.length v.P.lines - 1)

(* ---- gating rows ------------------------------------------------------------------ *)

let test_pass_within_threshold () =
  let v = gate (scaled "campaign-attached" "scheduler.words_per_event" 1.04) in
  checkb "+4% words per event passes at the 5% default" true v.P.ok

let test_exact_limit_passes () =
  let k = 1.0 +. (P.default_threshold_pct /. 100.0) in
  let v = gate (scaled "campaign-default" "workload.words_per_event" k) in
  checkb "exactly the limit still passes" true v.P.ok

let test_fail_beyond_threshold () =
  (* The acceptance scenario: one layer allocating 10% more per event
     must break CI, and the verdict must say which layer. *)
  let v = gate (scaled "campaign-attached" "serve.words_per_event" 1.10) in
  checkb "+10% words per event fails" false v.P.ok;
  checkb "the row is tagged FAIL" true
    (row_tagged v "campaign-attached" "serve.words_per_event" "FAIL");
  checkb "the verdict names the row" true
    (summary v = "perfgate: FAIL (campaign-attached serve.words_per_event)");
  let v = gate (scaled "campaign-default" "oar.events" 1.10) in
  checkb "+10% events in one layer fails" false v.P.ok

let test_host_time_informational () =
  let v = gate (scaled "campaign-default" "workload.host_ms" 3.0) in
  checkb "a host time x3 passes" true v.P.ok;
  checkb "and is reported as informational" true
    (row_tagged v "campaign-default" "workload.host_ms" "informational");
  checkb "a step latency x3 passes" true
    (gate (scaled "campaign-attached" "engine.step_p99_us" 3.0)).P.ok

let test_custom_threshold () =
  let current = scaled "campaign-attached" "audit.words_per_event" 1.08 in
  checkb "+8% fails at the 5% default" false (gate current).P.ok;
  checkb "+8% passes at 10%" true (gate ~threshold_pct:10.0 current).P.ok

(* ---- documents on disk ------------------------------------------------------------- *)

let test_baselines_pass_against_themselves () =
  let v = gate (Lazy.force baseline) in
  checkb "the baselines pass against themselves" true v.P.ok;
  checkb "both are correct" true
    (row_tagged v "campaign-default" "correct" "ok"
    && row_tagged v "campaign-attached" "correct" "ok");
  checkb "a dotted metric name is one key of [metrics]" true
    (contains
       (Printf.sprintf "baseline %g," (value "campaign-attached" "serve.staleness_p99_s"))
       (row_line v "campaign-attached" "serve.staleness_p99_s"))

(* [P.load] on a directory holding the baselines, with the [texts] given
   in place of some of them. *)
let load_texts texts =
  let dir = Filename.temp_dir "perfgate" "" in
  let paths =
    List.map
      (fun (workload, doc) ->
        let path = Filename.concat dir (P.file workload) in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc
              (Option.value (List.assoc_opt workload texts) ~default:(J.to_string doc)));
        path)
      (Lazy.force baseline)
  in
  let loaded = P.load dir in
  List.iter Sys.remove paths;
  Sys.rmdir dir;
  loaded

let rejected current =
  Result.is_error (P.check ~baseline:(Lazy.force baseline) ~current ())

let drop_metric workload metric =
  edit workload
    (update "metrics" (function
      | J.Obj members -> J.Obj (List.remove_assoc metric members)
      | doc -> doc))

let test_rejects_garbage () =
  checkb "a written copy of the baselines loads" true (Result.is_ok (load_texts []));
  checkb "syntax error rejected" true
    (Result.is_error (load_texts [ ("campaign-attached", "not json") ]));
  checkb "missing directory rejected" true
    (Result.is_error (P.load (Filename.concat (Filename.get_temp_dir_name ()) "perfgate-absent")));
  checkb "a missing gating metric is an error" true
    (rejected (drop_metric "campaign-default" "deploy.words_per_event"));
  checkb "a missing correctness bit is an error" true
    (rejected
       (edit "campaign-attached" (function
         | J.Obj members -> J.Obj (List.remove_assoc "correct" members)
         | doc -> doc)));
  checkb "a document without metrics is an error" true
    (rejected (edit "campaign-default" (fun _ -> J.Obj [ ("correct", J.Bool true) ])))

(* ---- serve ------------------------------------------------------------------------- *)

let test_serve_p99_regression () =
  checkb "the attached baseline has stale reads" true
    (value "campaign-attached" "serve.staleness_p99_s" > 0.0);
  checkb "+4% passes" true (gate (scaled "campaign-attached" "serve.staleness_p99_s" 1.04)).P.ok;
  checkb "+10% fails" false (gate (scaled "campaign-attached" "serve.staleness_p99_s" 1.10)).P.ok

let test_serve_zero_baseline () =
  (* The default campaign serves nothing: zero stays zero, and a layer
     that appears where the baseline had none is a change. *)
  checkb "no staleness in the default baseline" true
    (value "campaign-default" "serve.staleness_p99_s" = 0.0);
  checkb "zero stays zero" true (gate (Lazy.force baseline)).P.ok;
  let set v = edit_metric "campaign-default" "serve.staleness_p99_s" (fun _ -> J.Float v) in
  checkb "any staleness fails" false (gate (set 0.01)).P.ok;
  checkb "any serve event fails" false
    (gate (edit_metric "campaign-default" "serve.events" (fun _ -> J.Int 1))).P.ok

(* ---- correctness and the federation ----------------------------------------------- *)

let test_correct_required () =
  (* perfbench's [correct] folds in the federation's Parallel and
     Sequential report digests: a run that diverges fails the gate even
     when every layer got cheaper. *)
  let current =
    List.map
      (fun (w, doc) ->
        (w, if w = "campaign-default" then update "correct" (fun _ -> J.Bool false) doc else doc))
      (scaled "campaign-default" "scheduler.words_per_event" 0.5)
  in
  let v = gate current in
  checkb "correct: false fails despite the saving" false v.P.ok;
  checkb "the verdict names the row" true (summary v = "perfgate: FAIL (campaign-default correct)")

let test_federation_efficiency_informational () =
  let slower =
    edit_metric "campaign-default" "federation.parallel_efficiency" (fun v ->
        J.Float (number v /. 3.0))
  in
  let v = gate slower in
  checkb "a third of the efficiency passes" true v.P.ok;
  checkb "and is reported as informational" true
    (row_tagged v "campaign-default" "federation.parallel_efficiency" "informational");
  checkb "a federation wall time x3 passes" true
    (gate (scaled "campaign-default" "federation.par_s" 3.0)).P.ok

(* ---- lint -------------------------------------------------------------------------- *)

let test_lint_document () =
  let v = gate (Lazy.force baseline) in
  List.iter
    (fun w ->
      checkb (w ^ " lint.ms read from its document") true
        (contains (Printf.sprintf "baseline %g," (value w "lint.ms")) (row_line v w "lint.ms")))
    [ "campaign-default"; "campaign-attached" ]

let test_lint_ms_noise_informational () =
  (* The analysis takes milliseconds, far below runner noise. *)
  let v = gate (scaled "campaign-attached" "lint.ms" 4.0) in
  checkb "lint.ms x4 passes" true v.P.ok;
  checkb "and is reported as informational" true
    (row_tagged v "campaign-attached" "lint.ms" "informational")

let test_lint_rejects_garbage () =
  checkb "a non-numeric lint.ms is an error" true
    (rejected (edit_metric "campaign-default" "lint.ms" (fun _ -> J.String "fast")));
  checkb "a missing lint.ms is an error" true (rejected (drop_metric "campaign-attached" "lint.ms"))

(* ---- threshold ----------------------------------------------------------------- *)

let test_threshold_validated () =
  let accepts pct =
    Result.is_ok
      (P.check ~threshold_pct:pct ~baseline:(Lazy.force baseline) ~current:(Lazy.force baseline)
         ())
  in
  List.iter
    (fun pct -> checkb (Printf.sprintf "%g rejected" pct) false (accepts pct))
    [ 150.0; 100.0; -1.0; Float.nan; Float.infinity ];
  List.iter
    (fun pct -> checkb (Printf.sprintf "%g accepted" pct) true (accepts pct))
    [ 0.0; 20.0; 99.0 ]

let () =
  Alcotest.run "perfgate"
    [
      ( "gate",
        [ Alcotest.test_case "pass within threshold" `Quick test_pass_within_threshold;
          Alcotest.test_case "exact limit passes" `Quick test_exact_limit_passes;
          Alcotest.test_case "fail beyond threshold" `Quick test_fail_beyond_threshold;
          Alcotest.test_case "throughput informational" `Quick test_host_time_informational;
          Alcotest.test_case "custom threshold" `Quick test_custom_threshold ] );
      ( "parse",
        [ Alcotest.test_case "bench document" `Quick test_baselines_pass_against_themselves;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage ] );
      ( "lint gate",
        [ Alcotest.test_case "bench document" `Quick test_lint_document;
          Alcotest.test_case "ms noise informational" `Quick test_lint_ms_noise_informational;
          Alcotest.test_case "rejects garbage" `Quick test_lint_rejects_garbage ] );
      ( "serve gate",
        [ Alcotest.test_case "p99 regression" `Quick test_serve_p99_regression;
          Alcotest.test_case "zero baseline" `Quick test_serve_zero_baseline ] );
      ( "federation gate",
        [ Alcotest.test_case "identical required" `Quick test_correct_required;
          Alcotest.test_case "efficiency informational" `Quick
            test_federation_efficiency_informational ] );
      ( "threshold",
        [ Alcotest.test_case "validated" `Quick test_threshold_validated ] );
    ]
