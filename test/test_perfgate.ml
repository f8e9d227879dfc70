(* The CI perf gate: must fail on a real slow-down or a broken
   correctness bit, pass on run-to-run jitter within the threshold, and
   reject unreadable benchmark documents rather than waving them
   through. *)

module P = Framework.Perfgate
module J = Simkit.Json

let checkb = Alcotest.(check bool)

let engine ?(events_per_s = 50000.0) ?(p95 = 100.0) () =
  J.Obj
    [ ("events_per_s", J.Float events_per_s);
      ("minor_words_per_event", J.Float 3000.0);
      ("step_latency_us", J.Obj [ ("p95", J.Float p95) ]) ]

let serve ?(p99 = 400.0) ?(conservation_ok = true) () =
  J.Obj
    [ ("reads_per_s", J.Float 1.9e6);
      ("hit_ratio", J.Float 0.9996);
      ("conservation_ok", J.Bool conservation_ok);
      ("staleness_s", J.Obj [ ("p50", J.Float 0.0); ("p99", J.Float p99) ]) ]

let federation ?(speedup = 3.6) ?(identical = true) () =
  J.Obj
    [ ("sharded_events_per_s", J.Float 41000.0);
      ("reference_events_per_s", J.Float 11000.0);
      ("speedup", J.Float speedup);
      ("identical_across_shards", J.Bool identical) ]

let lint ?(wall_s = 0.05) ?(diagnostics = 0) ?(reports_identical = true) () =
  J.Obj
    [ ( "lint",
        J.Obj
          [ ("configurations", J.Int 751);
            ("wall_s", J.Float wall_s);
            ("diagnostics", J.Int diagnostics) ] );
      ("audit", J.Obj [ ("reports_identical", J.Bool reports_identical) ]) ]

let docs ?(engine = engine ()) ?(serve = serve ()) ?(federation = federation ())
    ?(lint = lint ()) () =
  [ ("engine", engine); ("serve", serve); ("federation", federation); ("lint", lint) ]

let gate ?threshold_pct ?(baseline = docs ()) current =
  match P.check ?threshold_pct ~baseline ~current () with
  | Ok v -> v
  | Error e -> Alcotest.failf "check failed: %s" e

let starts_with prefix line =
  String.length line >= String.length prefix
  && String.sub line 0 (String.length prefix) = prefix

let contains sub line =
  let n = String.length sub in
  let rec from i = i + n <= String.length line && (String.sub line i n = sub || from (i + 1)) in
  from 0

(* The report line of one row holds [shown]. *)
let row_shows v row shown =
  List.exists (fun line -> starts_with row line && contains shown line) v.P.lines

(* ---- engine gate ------------------------------------------------------------- *)

let test_pass_within_threshold () =
  let v = gate (docs ~engine:(engine ~p95:115.0 ()) ()) in
  checkb "15% regression passes at 20% threshold" true v.P.ok

let test_exact_limit_passes () =
  let v = gate (docs ~engine:(engine ~p95:120.0 ()) ()) in
  checkb "exactly the limit still passes" true v.P.ok

let test_fail_beyond_threshold () =
  (* The acceptance scenario: an injected >=25% slow-down must break CI. *)
  let v = gate (docs ~engine:(engine ~p95:125.0 ()) ()) in
  checkb "25% regression fails" false v.P.ok;
  checkb "verdict says FAIL" true (List.exists (starts_with "perfgate: FAIL") v.P.lines)

let test_throughput_does_not_gate () =
  let v = gate (docs ~engine:(engine ~events_per_s:10000.0 ~p95:100.0 ()) ()) in
  checkb "events/s drop alone is informational" true v.P.ok

let test_custom_threshold () =
  let v = gate ~threshold_pct:10.0 (docs ~engine:(engine ~p95:115.0 ()) ()) in
  checkb "15% regression fails at 10% threshold" false v.P.ok

(* ---- documents on disk --------------------------------------------------------- *)

let bench_json =
  {|{
  "scenario": "engine",
  "months": 2,
  "events_executed": 183842,
  "wall_s": 3.8,
  "events_per_s": 48211.9,
  "minor_words_per_event": 2937.7,
  "step_latency_us": { "p50": 2.1, "p95": 64.8, "p99": 416.0, "max": 6837.8 },
  "anchor_events_per_s": 6500.0
}|}

(* [P.load] on a directory holding one BENCH_<bench>.json per bench:
   the [texts] given, the defaults above for the others. *)
let load_texts texts =
  let dir = Filename.temp_dir "perfgate" "" in
  let paths =
    List.map
      (fun (bench, doc) ->
        let path = Filename.concat dir (P.file bench) in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc
              (Option.value (List.assoc_opt bench texts) ~default:(J.to_string doc)));
        path)
      (docs ())
  in
  let loaded = P.load dir in
  List.iter Sys.remove paths;
  Sys.rmdir dir;
  loaded

let load_ok texts =
  match load_texts texts with Ok d -> d | Error e -> Alcotest.failf "load failed: %s" e

let test_parse_bench_document () =
  let d = load_ok [ ("engine", bench_json) ] in
  let v = gate ~baseline:d d in
  checkb "document against itself passes" true v.P.ok;
  checkb "p95 read from the nested path" true
    (row_shows v "engine step_latency_us.p95" "baseline 64.8,")

let test_parse_rejects_garbage () =
  checkb "syntax error rejected" true
    (Result.is_error (load_texts [ ("engine", "not json") ]));
  checkb "missing directory rejected" true
    (Result.is_error (P.load (Filename.concat (Filename.get_temp_dir_name ()) "perfgate-absent")));
  let rejects doc =
    Result.is_error (P.check ~baseline:(docs ()) ~current:(docs ~engine:doc ()) ())
  in
  checkb "missing p95 rejected" true
    (rejects
       (J.of_string_exn
          {|{"events_per_s": 1.0, "minor_words_per_event": 2.0, "step_latency_us": {}}|}));
  checkb "missing events/s rejected" true
    (rejects (J.of_string_exn {|{"step_latency_us": {"p95": 1.0}}|}))

(* ---- lint gate --------------------------------------------------------------- *)

let test_lint_floor_absorbs_ms_noise () =
  (* A 4x regression on a millisecond-scale wall stays under the
     absolute floor and must not flap the gate. *)
  let v = gate (docs ~lint:(lint ~wall_s:0.2 ()) ()) in
  checkb "under the floor passes" true v.P.ok

let test_lint_fails_beyond_floor_and_threshold () =
  let v = gate (docs ~lint:(lint ~wall_s:(P.lint_floor_s +. 0.01) ()) ()) in
  checkb "beyond floor and threshold fails" false v.P.ok

let test_lint_relative_threshold_above_floor () =
  (* Once the baseline itself clears the floor, the relative allowance
     takes over: +15% passes, +25% fails at the default 20%. *)
  let baseline = docs ~lint:(lint ~wall_s:1.0 ()) () in
  let v_ok = gate ~baseline (docs ~lint:(lint ~wall_s:1.15 ()) ()) in
  let v_bad = gate ~baseline (docs ~lint:(lint ~wall_s:1.25 ()) ()) in
  checkb "+15%% passes" true v_ok.P.ok;
  checkb "+25%% fails" false v_bad.P.ok

let test_lint_diagnostics_do_not_gate () =
  let v = gate (docs ~lint:(lint ~diagnostics:7 ()) ()) in
  checkb "diagnostic count is informational" true v.P.ok

let test_lint_parse_bench_document () =
  let doc =
    {|{"scenario": "lint",
       "lint": {"configurations": 751, "presets": 7, "wall_s": 0.042, "diagnostics": 0},
       "audit": {"campaigns": 2, "reports_identical": true}}|}
  in
  let d = load_ok [ ("lint", doc) ] in
  let v = gate ~baseline:d d in
  checkb "document against itself passes" true v.P.ok;
  checkb "wall read from the nested path" true
    (row_shows v "lint lint.wall_s" "baseline 0.042,")

let test_lint_parse_rejects_garbage () =
  let rejects text =
    Result.is_error
      (P.check ~baseline:(docs ()) ~current:(docs ~lint:(J.of_string_exn text) ()) ())
  in
  checkb "missing lint object rejected" true
    (rejects {|{"wall_s": 1.0, "audit": {"reports_identical": true}}|});
  checkb "missing wall rejected" true
    (rejects
       {|{"lint": {"configurations": 1, "diagnostics": 0},
          "audit": {"reports_identical": true}}|})

let test_lint_reports_identical_gates () =
  let v = gate (docs ~lint:(lint ~reports_identical:false ()) ()) in
  checkb "audited reports that differ fail" false v.P.ok

(* ---- serve gate -------------------------------------------------------------- *)

let test_serve_p99_regression () =
  checkb "+15% passes" true (gate (docs ~serve:(serve ~p99:460.0 ()) ())).P.ok;
  checkb "+25% fails" false (gate (docs ~serve:(serve ~p99:500.0 ()) ())).P.ok

let test_serve_zero_baseline () =
  let baseline = docs ~serve:(serve ~p99:0.0 ()) () in
  checkb "zero stays zero" true (gate ~baseline (docs ~serve:(serve ~p99:0.0 ()) ())).P.ok;
  checkb "any staleness fails" false
    (gate ~baseline (docs ~serve:(serve ~p99:0.01 ()) ())).P.ok

let test_serve_conservation_gates () =
  let v = gate (docs ~serve:(serve ~conservation_ok:false ()) ()) in
  checkb "lost reads fail" false v.P.ok

(* ---- federation gate ----------------------------------------------------------- *)

let test_federation_speedup () =
  checkb "-15% passes" true (gate (docs ~federation:(federation ~speedup:3.06 ()) ())).P.ok;
  checkb "-25% fails" false (gate (docs ~federation:(federation ~speedup:2.7 ()) ())).P.ok

let test_federation_identical_required () =
  (* A faster federation that no longer replays byte-identically is a
     broken optimization, whatever its speedup. *)
  let v = gate (docs ~federation:(federation ~speedup:5.0 ~identical:false ()) ()) in
  checkb "not identical fails despite the speedup" false v.P.ok

(* ---- threshold ----------------------------------------------------------------- *)

let test_threshold_validated () =
  let accepts pct =
    Result.is_ok (P.check ~threshold_pct:pct ~baseline:(docs ()) ~current:(docs ()) ())
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
          Alcotest.test_case "throughput informational" `Quick
            test_throughput_does_not_gate;
          Alcotest.test_case "custom threshold" `Quick test_custom_threshold ] );
      ( "parse",
        [ Alcotest.test_case "bench document" `Quick test_parse_bench_document;
          Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage ] );
      ( "lint gate",
        [ Alcotest.test_case "floor absorbs ms noise" `Quick
            test_lint_floor_absorbs_ms_noise;
          Alcotest.test_case "fails beyond floor and threshold" `Quick
            test_lint_fails_beyond_floor_and_threshold;
          Alcotest.test_case "relative threshold above floor" `Quick
            test_lint_relative_threshold_above_floor;
          Alcotest.test_case "diagnostics informational" `Quick
            test_lint_diagnostics_do_not_gate;
          Alcotest.test_case "bench document" `Quick test_lint_parse_bench_document;
          Alcotest.test_case "rejects garbage" `Quick
            test_lint_parse_rejects_garbage;
          Alcotest.test_case "reports identical required" `Quick
            test_lint_reports_identical_gates ] );
      ( "serve gate",
        [ Alcotest.test_case "p99 regression" `Quick test_serve_p99_regression;
          Alcotest.test_case "zero baseline" `Quick test_serve_zero_baseline;
          Alcotest.test_case "conservation required" `Quick
            test_serve_conservation_gates ] );
      ( "federation gate",
        [ Alcotest.test_case "speedup threshold" `Quick test_federation_speedup;
          Alcotest.test_case "identical required" `Quick
            test_federation_identical_required ] );
      ( "threshold",
        [ Alcotest.test_case "validated" `Quick test_threshold_validated ] );
    ]
