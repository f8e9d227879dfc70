(* Tests for the Jenkins substitute: builds, cron, matrix projects, queue,
   executors, history, access control, REST. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let mk ?(executors = 2) () =
  let engine = Simkit.Engine.create ~seed:31L () in
  (engine, Ci.Server.create ~executors engine)

let instant_job ?(result = Ci.Build.Success) name =
  Ci.Jobdef.freestyle ~name (fun ~engine ~build:_ ~finish ->
      ignore (Simkit.Engine.schedule engine ~delay:1.0 (fun _ -> finish result)))

let timed_job ~duration ?(result = Ci.Build.Success) name =
  Ci.Jobdef.freestyle ~name (fun ~engine ~build:_ ~finish ->
      ignore (Simkit.Engine.schedule engine ~delay:duration (fun _ -> finish result)))

(* ---- Build records ------------------------------------------------------------ *)

let test_result_ordering () =
  checkb "failure worst" true
    (Ci.Build.worse Ci.Build.Failure Ci.Build.Unstable = Ci.Build.Failure);
  checkb "unstable over success" true
    (Ci.Build.worse Ci.Build.Success Ci.Build.Unstable = Ci.Build.Unstable);
  checkb "symmetric" true (Ci.Build.worse Ci.Build.Unstable Ci.Build.Failure = Ci.Build.Failure)

let test_axes_to_string () =
  checks "rendering" "image=debian8,cluster=graphene"
    (Ci.Build.axes_to_string [ ("image", "debian8"); ("cluster", "graphene") ]);
  checks "empty" "" (Ci.Build.axes_to_string [])

(* ---- Cron ----------------------------------------------------------------------- *)

let test_cron_parse_errors () =
  List.iter
    (fun bad ->
      match Ci.Cron.parse bad with
      | Ok _ -> Alcotest.failf "should not parse: %s" bad
      | Error _ -> ())
    [ "* * * *"; "61 * * * *"; "* 25 * * *"; "x * * * *"; "*/0 * * * *" ]

let test_cron_hourly () =
  let cron = Ci.Cron.parse_exn "30 * * * *" in
  let fire = Ci.Cron.next_fire cron ~after:0.0 in
  Alcotest.(check (float 1e-6)) "first fire at minute 30" 1800.0 fire;
  let second = Ci.Cron.next_fire cron ~after:fire in
  Alcotest.(check (float 1e-6)) "next an hour later" 5400.0 second

let test_cron_daily_at_3 () =
  let cron = Ci.Cron.parse_exn "0 3 * * *" in
  let fire = Ci.Cron.next_fire cron ~after:0.0 in
  Alcotest.(check (float 1e-6)) "03:00 day 0" (3.0 *. 3600.0) fire

let test_cron_weekday_field () =
  (* 0 = Sunday in cron; the simulated epoch is a Monday. *)
  let sunday = Ci.Cron.parse_exn "0 0 * * 0" in
  let fire = Ci.Cron.next_fire sunday ~after:0.0 in
  checki "fires on day 6 (first Sunday)" 6 (Simkit.Calendar.day_index fire)

let test_cron_steps_and_ranges () =
  let cron = Ci.Cron.parse_exn "*/15 8-10 * * 1-5" in
  checkb "matches 08:15 Monday" true (Ci.Cron.matches cron ((8.0 *. 3600.0) +. 900.0));
  checkb "rejects 11:00" false (Ci.Cron.matches cron (11.0 *. 3600.0));
  checkb "rejects Saturday" false
    (Ci.Cron.matches cron ((5.0 *. Simkit.Calendar.day) +. (9.0 *. 3600.0)))

(* ---- Trigger and executors ------------------------------------------------------- *)

let test_freestyle_trigger_and_history () =
  let engine, ci = mk () in
  Ci.Server.define ci (instant_job "smoke");
  (match Ci.Server.trigger ci "smoke" with
   | Ci.Server.Queued [ 1 ] -> ()
   | _ -> Alcotest.fail "expected build #1");
  Simkit.Engine.run engine;
  (match Ci.Server.last_completed ci "smoke" with
   | Some b ->
     checkb "succeeded" true (b.Ci.Build.result = Some Ci.Build.Success);
     checkb "finished" true (Ci.Build.is_finished b)
   | None -> Alcotest.fail "no completed build");
  ignore (Ci.Server.trigger ci "smoke");
  Simkit.Engine.run engine;
  checki "two builds in history" 2 (List.length (Ci.Server.builds ci "smoke"));
  checki "executed count" 2 (Ci.Server.builds_executed ci)

let test_unknown_and_disabled () =
  let _, ci = mk () in
  checkb "unknown" true (Ci.Server.trigger ci "nope" = Ci.Server.Not_found);
  Ci.Server.define ci (instant_job "j");
  Ci.Server.disable ci "j";
  checkb "disabled" true (Ci.Server.trigger ci "j" = Ci.Server.Disabled);
  Ci.Server.enable ci "j";
  checkb "re-enabled" true (Ci.Server.trigger ci "j" <> Ci.Server.Disabled)

let test_executor_pool_limits_parallelism () =
  let engine, ci = mk ~executors:2 () in
  Ci.Server.define ci (timed_job ~duration:100.0 "long");
  ignore (Ci.Server.trigger ci "long");
  ignore (Ci.Server.trigger ci "long");
  ignore (Ci.Server.trigger ci "long");
  checki "two running" 2 (Ci.Server.busy_executors ci);
  checki "one queued" 1 (Ci.Server.queue_length ci);
  Simkit.Engine.run_until engine 150.0;
  checki "third started after a slot freed" 1 (Ci.Server.busy_executors ci);
  Simkit.Engine.run engine;
  checki "all done" 0 (Ci.Server.busy_executors ci);
  checki "queue drained" 0 (Ci.Server.queue_length ci)

let test_build_durations_recorded () =
  let engine, ci = mk () in
  Ci.Server.define ci (timed_job ~duration:42.0 "timed");
  ignore (Ci.Server.trigger ci "timed");
  Simkit.Engine.run engine;
  match Ci.Server.last_completed ci "timed" with
  | Some b ->
    (match Ci.Build.duration b with
     | Some d -> Alcotest.(check (float 1e-6)) "42 s" 42.0 d
     | None -> Alcotest.fail "no duration")
  | None -> Alcotest.fail "no build"

let test_body_exception_is_failure () =
  let engine, ci = mk () in
  Ci.Server.define ci (Ci.Jobdef.freestyle ~name:"boom" (fun ~engine:_ ~build:_ ~finish:_ ->
      failwith "kaboom"));
  ignore (Ci.Server.trigger ci "boom");
  Simkit.Engine.run engine;
  match Ci.Server.last_completed ci "boom" with
  | Some b -> checkb "failure recorded" true (b.Ci.Build.result = Some Ci.Build.Failure)
  | None -> Alcotest.fail "no build"

let test_abort_queued_build () =
  let engine, ci = mk ~executors:1 () in
  Ci.Server.define ci (timed_job ~duration:50.0 "serial");
  ignore (Ci.Server.trigger ci "serial");
  ignore (Ci.Server.trigger ci "serial");
  (match Ci.Server.build ci "serial" 2 with
   | Some b -> Ci.Server.abort_build ci b
   | None -> Alcotest.fail "queued build missing");
  Simkit.Engine.run engine;
  (match Ci.Server.build ci "serial" 2 with
   | Some b -> checkb "aborted" true (b.Ci.Build.result = Some Ci.Build.Aborted)
   | None -> Alcotest.fail "build 2 missing");
  checki "only one executed" 1 (Ci.Server.builds_executed ci)

let test_retention_trims_history () =
  let engine, ci = mk () in
  Ci.Server.define ci
    (Ci.Jobdef.freestyle ~retention:5 ~name:"talkative" (fun ~engine ~build:_ ~finish ->
         ignore (Simkit.Engine.schedule engine ~delay:1.0 (fun _ -> finish Ci.Build.Success))));
  for _ = 1 to 12 do
    ignore (Ci.Server.trigger ci "talkative");
    Simkit.Engine.run engine
  done;
  checki "history trimmed to retention" 5 (List.length (Ci.Server.builds ci "talkative"));
  match Ci.Server.last_build ci "talkative" with
  | Some b -> checki "numbers keep increasing" 12 b.Ci.Build.number
  | None -> Alcotest.fail "no last build"

(* ---- Matrix projects ---------------------------------------------------------------- *)

let matrix_axes = [ ("image", [ "a"; "b"; "c" ]); ("cluster", [ "x"; "y" ]) ]

let matrix_job ?(fail_on = []) name =
  Ci.Jobdef.matrix ~name ~axes:matrix_axes (fun ~engine ~build ~finish ->
      let result =
        if List.mem build.Ci.Build.axes fail_on then Ci.Build.Failure else Ci.Build.Success
      in
      ignore (Simkit.Engine.schedule engine ~delay:1.0 (fun _ -> finish result)))

let test_matrix_expansion () =
  checki "cartesian product" 6 (List.length (Ci.Jobdef.combinations matrix_axes));
  checki "combination count" 6 (Ci.Jobdef.combination_count (matrix_job "m"))

let test_matrix_trigger_all_combinations () =
  let engine, ci = mk ~executors:6 () in
  Ci.Server.define ci (matrix_job "m");
  (match Ci.Server.trigger ci "m" with
   | Ci.Server.Queued numbers -> checki "six children" 6 (List.length numbers)
   | _ -> Alcotest.fail "trigger failed");
  Simkit.Engine.run engine;
  checki "six builds stored" 6 (List.length (Ci.Server.builds ci "m"))

let test_matrix_last_of_axes () =
  let engine, ci = mk ~executors:6 () in
  Ci.Server.define ci (matrix_job "m" ~fail_on:[ [ ("image", "b"); ("cluster", "y") ] ]);
  ignore (Ci.Server.trigger ci "m");
  Simkit.Engine.run engine;
  (match Ci.Server.last_of_axes ci "m" ~axes:[ ("image", "b"); ("cluster", "y") ] with
   | Some b -> checkb "failing combination" true (b.Ci.Build.result = Some Ci.Build.Failure)
   | None -> Alcotest.fail "missing combination");
  match Ci.Server.last_of_axes ci "m" ~axes:[ ("image", "a"); ("cluster", "x") ] with
  | Some b -> checkb "passing combination" true (b.Ci.Build.result = Some Ci.Build.Success)
  | None -> Alcotest.fail "missing combination"

let test_matrix_reloaded_retries_only_failures () =
  let engine, ci = mk ~executors:6 () in
  let failing = [ [ ("image", "a"); ("cluster", "y") ]; [ ("image", "c"); ("cluster", "x") ] ] in
  Ci.Server.define ci (matrix_job "m" ~fail_on:failing);
  ignore (Ci.Server.trigger ci "m");
  Simkit.Engine.run engine;
  (* Matrix Reloaded: only the two failed combinations run again. *)
  (match Ci.Server.retry_failed ci "m" with
   | Ci.Server.Queued numbers -> checki "two retries" 2 (List.length numbers)
   | _ -> Alcotest.fail "retry failed");
  Simkit.Engine.run engine;
  checki "8 builds total" 8 (List.length (Ci.Server.builds ci "m"));
  (* Everything green now?  No: the job body still fails those axes. *)
  match Ci.Server.retry_failed ci "m" with
  | Ci.Server.Queued numbers -> checki "still two failing" 2 (List.length numbers)
  | _ -> Alcotest.fail "retry failed"

let test_matrix_subset_trigger () =
  let engine, ci = mk ~executors:6 () in
  Ci.Server.define ci (matrix_job "m");
  (match
     Ci.Server.trigger_subset ci "m" ~axes:[ [ ("image", "a"); ("cluster", "x") ] ]
   with
   | Ci.Server.Queued [ _ ] -> ()
   | _ -> Alcotest.fail "subset trigger failed");
  Simkit.Engine.run engine;
  checki "single build" 1 (List.length (Ci.Server.builds ci "m"))

(* ---- Cron-armed jobs ------------------------------------------------------------------ *)

let test_cron_triggered_job () =
  let engine, ci = mk () in
  Ci.Server.define ci
    (Ci.Jobdef.freestyle ~trigger:(Ci.Cron.parse_exn "0 * * * *") ~name:"nightly"
       (fun ~engine ~build:_ ~finish ->
         ignore (Simkit.Engine.schedule engine ~delay:10.0 (fun _ -> finish Ci.Build.Success))));
  Simkit.Engine.run_until engine (3.5 *. 3600.0);
  checki "three hourly builds" 3 (List.length (Ci.Server.builds ci "nightly"));
  List.iter
    (fun b -> checks "timer cause" "timer" b.Ci.Build.cause)
    (Ci.Server.builds ci "nightly")

(* ---- Access control --------------------------------------------------------------------- *)

let test_access_control () =
  let engine, ci = mk () in
  Ci.Server.define ci (instant_job "secure");
  checkb "anonymous denied" true (Ci.Server.trigger_as ci ~user:"eve" "secure" = Ci.Server.Denied);
  Ci.Server.grant ci ~user:"reader" Ci.Server.Read;
  checkb "reader denied" true
    (Ci.Server.trigger_as ci ~user:"reader" "secure" = Ci.Server.Denied);
  Ci.Server.grant ci ~user:"op" Ci.Server.Trigger;
  (match Ci.Server.trigger_as ci ~user:"op" "secure" with
   | Ci.Server.Queued _ -> ()
   | _ -> Alcotest.fail "operator should trigger");
  Simkit.Engine.run engine;
  match Ci.Server.last_completed ci "secure" with
  | Some b -> checks "cause names the user" "user:op" b.Ci.Build.cause
  | None -> Alcotest.fail "no build"

(* ---- REST --------------------------------------------------------------------------------- *)

let test_rest_endpoints () =
  let engine, ci = mk () in
  Ci.Server.define ci (instant_job "api-job");
  ignore (Ci.Server.trigger ci "api-job");
  Simkit.Engine.run engine;
  (match Ci.Server.rest ci "/api/json" with
   | Ok doc ->
     (match Simkit.Json.list_member "jobs" doc with
      | Some jobs -> checki "one job" 1 (List.length jobs)
      | None -> Alcotest.fail "no jobs member")
   | Error e -> Alcotest.fail e);
  (match Ci.Server.rest ci "/job/api-job/api/json" with
   | Ok doc ->
     (match Simkit.Json.list_member "builds" doc with
      | Some builds -> checki "one build" 1 (List.length builds)
      | None -> Alcotest.fail "no builds member")
   | Error e -> Alcotest.fail e);
  (match Ci.Server.rest ci "/job/api-job/1/api/json" with
   | Ok doc ->
     Alcotest.(check (option string))
       "result serialised" (Some "SUCCESS")
       (Simkit.Json.string_member "result" doc)
   | Error e -> Alcotest.fail e);
  (match Ci.Server.rest ci "/job/nosuch/api/json" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown job should error")

let test_listener_fires () =
  let engine, ci = mk () in
  let seen = ref [] in
  Ci.Server.on_build_complete ci (fun b -> seen := b.Ci.Build.job_name :: !seen);
  Ci.Server.define ci (instant_job "observed");
  ignore (Ci.Server.trigger ci "observed");
  Simkit.Engine.run engine;
  Alcotest.(check (list string)) "listener saw the build" [ "observed" ] !seen

(* ---- History ring ------------------------------------------------------------------ *)

type history_op = Trigger of int list | Advance | Redefine of int

let show_history_op = function
  | Trigger combos -> "trigger [" ^ String.concat "," (List.map string_of_int combos) ^ "]"
  | Advance -> "advance"
  | Redefine retention -> Printf.sprintf "redefine retention=%d" retention

(* Oracle: the history as a newest-first list trimmed to the retention on
   every record, and the lookups as searches of that list. *)
let prop_history_ring =
  let combos = Ci.Jobdef.combinations matrix_axes in
  let gen =
    QCheck.Gen.(
      pair (int_range 1 6)
        (list_size (int_range 1 40)
           (frequency
              [ (5, map (fun l -> Trigger l) (list_size (int_range 1 4) (int_bound 5)));
                (3, return Advance);
                (1, map (fun r -> Redefine r) (int_bound 8)) ])))
  in
  QCheck.Test.make ~name:"history ring matches a trimmed list" ~count:300
    (QCheck.make
       ~print:(fun (r, ops) ->
         Printf.sprintf "retention=%d; %s" r (String.concat "; " (List.map show_history_op ops)))
       gen)
    (fun (retention, ops) ->
      let engine, ci = mk () in
      let define retention =
        Ci.Server.define ci
          (Ci.Jobdef.matrix ~retention ~name:"m" ~axes:matrix_axes (fun ~engine ~build:_ ~finish ->
               ignore (Simkit.Engine.schedule engine ~delay:1.0 (fun _ -> finish Ci.Build.Success))))
      in
      define retention;
      let retention = ref retention in
      let model = ref [] in
      let number b = b.Ci.Build.number in
      let consistent () =
        let builds = Ci.Server.builds ci "m" in
        let max_number = match !model with (n, _) :: _ -> n | [] -> 0 in
        List.map (fun b -> (number b, b.Ci.Build.axes)) builds = !model
        && Option.map number (Ci.Server.last_build ci "m")
           = Option.map fst (List.nth_opt !model 0)
        && Option.map number (Ci.Server.last_completed ci "m")
           = Option.map number (List.find_opt Ci.Build.is_finished builds)
        && List.for_all
             (fun axes ->
               Option.map number (Ci.Server.last_of_axes ci "m" ~axes)
               = Option.map number (List.find_opt (fun b -> b.Ci.Build.axes = axes) builds))
             combos
        && List.for_all
             (fun n ->
               Option.map number (Ci.Server.build ci "m" n)
               = if List.mem_assoc n !model then Some n else None)
             (List.init (max_number + 2) Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
           | Trigger picks ->
             let axes = List.map (List.nth combos) picks in
             (match Ci.Server.trigger_subset ci "m" ~axes with
              | Ci.Server.Queued numbers ->
                List.iter2
                  (fun n a ->
                    model := List.filteri (fun i _ -> i < !retention) ((n, a) :: !model))
                  numbers axes
              | _ -> ())
           | Advance -> Simkit.Engine.run_until engine (Simkit.Engine.now engine +. 1.5)
           | Redefine r ->
             define r;
             retention := r);
          consistent ())
        ops)

let () =
  Alcotest.run "ci"
    [
      ( "build",
        [ Alcotest.test_case "result ordering" `Quick test_result_ordering;
          Alcotest.test_case "axes rendering" `Quick test_axes_to_string ] );
      ( "cron",
        [ Alcotest.test_case "parse errors" `Quick test_cron_parse_errors;
          Alcotest.test_case "hourly" `Quick test_cron_hourly;
          Alcotest.test_case "daily" `Quick test_cron_daily_at_3;
          Alcotest.test_case "weekday field" `Quick test_cron_weekday_field;
          Alcotest.test_case "steps and ranges" `Quick test_cron_steps_and_ranges ] );
      ( "server",
        [ Alcotest.test_case "trigger + history" `Quick test_freestyle_trigger_and_history;
          Alcotest.test_case "unknown/disabled" `Quick test_unknown_and_disabled;
          Alcotest.test_case "executor pool" `Quick test_executor_pool_limits_parallelism;
          Alcotest.test_case "durations" `Quick test_build_durations_recorded;
          Alcotest.test_case "body exception" `Quick test_body_exception_is_failure;
          Alcotest.test_case "abort queued" `Quick test_abort_queued_build;
          Alcotest.test_case "retention" `Quick test_retention_trims_history;
          Qc.to_alcotest prop_history_ring;
          Alcotest.test_case "listener" `Quick test_listener_fires ] );
      ( "matrix",
        [ Alcotest.test_case "expansion" `Quick test_matrix_expansion;
          Alcotest.test_case "trigger all" `Quick test_matrix_trigger_all_combinations;
          Alcotest.test_case "last of axes" `Quick test_matrix_last_of_axes;
          Alcotest.test_case "matrix reloaded" `Quick
            test_matrix_reloaded_retries_only_failures;
          Alcotest.test_case "subset trigger" `Quick test_matrix_subset_trigger ] );
      ( "automation",
        [ Alcotest.test_case "cron job" `Quick test_cron_triggered_job;
          Alcotest.test_case "access control" `Quick test_access_control;
          Alcotest.test_case "rest" `Quick test_rest_endpoints ] );
    ]
