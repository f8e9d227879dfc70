(* Cross-cutting property-based tests (qcheck): invariants that must hold
   for arbitrary inputs, complementing the per-module example tests. *)

let qc = Qc.to_alcotest

(* ---- Cron: next_fire is sound and minimal-ish -------------------------------- *)

let cron_gen =
  (* Random but syntactically valid 5-field expressions. *)
  let open QCheck.Gen in
  let field lo hi =
    oneof
      [ return "*";
        map (fun n -> Printf.sprintf "*/%d" (1 + n)) (int_bound 10);
        map (fun v -> string_of_int (lo + (v mod (hi - lo + 1)))) (int_bound 1000);
        map2
          (fun a b ->
            let a = lo + (a mod (hi - lo + 1)) and b = lo + (b mod (hi - lo + 1)) in
            Printf.sprintf "%d-%d" (Stdlib.min a b) (Stdlib.max a b))
          (int_bound 1000) (int_bound 1000) ]
  in
  map
    (fun (m, h, dom, (mon, dow)) -> String.concat " " [ m; h; dom; mon; dow ])
    (tup4 (field 0 59) (field 0 23) (field 1 30) (tup2 (field 1 12) (field 0 6)))

let prop_cron_next_fire_matches =
  QCheck.Test.make ~name:"cron: next_fire lands on a matching minute" ~count:150
    (QCheck.make cron_gen)
    (fun source ->
      match Ci.Cron.parse source with
      | Error _ -> QCheck.assume_fail ()
      | Ok cron -> (
        match Ci.Cron.next_fire cron ~after:12345.0 with
        | fire -> fire > 12345.0 && Ci.Cron.matches cron fire
        | exception Failure _ -> true (* contradictory expression: accepted *)))

let prop_cron_no_match_between =
  QCheck.Test.make ~name:"cron: no matching minute before next_fire" ~count:50
    (QCheck.make cron_gen)
    (fun source ->
      match Ci.Cron.parse source with
      | Error _ -> QCheck.assume_fail ()
      | Ok cron -> (
        match Ci.Cron.next_fire cron ~after:0.0 with
        | exception Failure _ -> true
        | fire ->
          (* Check a sample of minutes strictly between. *)
          let minutes = int_of_float (fire /. 60.0) in
          let ok = ref true in
          let step = Stdlib.max 1 (minutes / 50) in
          let m = ref 1 in
          while !m < minutes do
            if Ci.Cron.matches cron (float_of_int !m *. 60.0) then ok := false;
            m := !m + step
          done;
          !ok))

(* ---- Calendar: structural identities ------------------------------------------ *)

let prop_calendar_day_decomposition =
  QCheck.Test.make ~name:"calendar: day/hour decomposition consistent" ~count:500
    QCheck.(float_bound_exclusive 1e8)
    (fun time ->
      let time = Float.abs time in
      let day = Simkit.Calendar.day_index time in
      let hour = Simkit.Calendar.hour_of_day time in
      let reconstructed = (float_of_int day *. 86400.0) +. (float_of_int hour *. 3600.0) in
      reconstructed <= time +. 1e-6
      && time -. reconstructed < 86400.0
      && hour >= 0 && hour < 24
      && Simkit.Calendar.day_of_week time = day mod 7)

let prop_calendar_peak_subset_of_weekday =
  QCheck.Test.make ~name:"calendar: peak hours only on working days" ~count:500
    QCheck.(float_bound_exclusive 1e8)
    (fun time ->
      let time = Float.abs time in
      (not (Simkit.Calendar.is_peak_hours time)) || not (Simkit.Calendar.is_weekend time))

(* ---- Engine: event ordering under random schedules ------------------------------ *)

let prop_engine_monotonic_execution =
  QCheck.Test.make ~name:"engine: callbacks observe non-decreasing time" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 50) (float_bound_exclusive 1000.0))
    (fun delays ->
      let e = Simkit.Engine.create () in
      let last = ref neg_infinity in
      let ok = ref true in
      List.iter
        (fun delay ->
          ignore
            (Simkit.Engine.schedule e ~delay (fun e ->
                 let now = Simkit.Engine.now e in
                 if now < !last then ok := false;
                 last := now)))
        delays;
      Simkit.Engine.run e;
      !ok)

let prop_engine_cancel_subset =
  QCheck.Test.make ~name:"engine: cancelled events never fire" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 30) (pair (float_bound_exclusive 100.0) bool))
    (fun specs ->
      let e = Simkit.Engine.create () in
      let fired = Hashtbl.create 16 in
      let handles =
        List.mapi
          (fun i (delay, cancel) ->
            let h =
              Simkit.Engine.schedule e ~delay (fun _ -> Hashtbl.replace fired i ())
            in
            (i, h, cancel))
          specs
      in
      List.iter (fun (_, h, cancel) -> if cancel then Simkit.Engine.cancel e h) handles;
      Simkit.Engine.run e;
      List.for_all
        (fun (i, _, cancel) -> if cancel then not (Hashtbl.mem fired i) else Hashtbl.mem fired i)
        handles)

(* ---- Timeseries: window queries agree with a naive model ------------------------- *)

let prop_timeseries_between_model =
  QCheck.Test.make ~name:"timeseries: between = naive filter" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 50) (float_bound_exclusive 100.0))
        (pair (float_bound_exclusive 100.0) (float_bound_exclusive 100.0)))
    (fun (raw, (a, b)) ->
      let times = List.sort compare raw in
      let ts = Simkit.Timeseries.create ~name:"p" () in
      List.iteri (fun i time -> Simkit.Timeseries.add ts ~time (float_of_int i)) times;
      let lo = Float.min a b and hi = Float.max a b in
      let got = List.map fst (Simkit.Timeseries.between ts ~lo ~hi) in
      let expected = List.filter (fun t -> t >= lo && t <= hi) times in
      got = expected)

(* ---- Stats: percentile bounds ------------------------------------------------------ *)

let prop_percentile_within_range =
  QCheck.Test.make ~name:"stats: percentile within min/max" ~count:300
    QCheck.(
      pair
        (list_of_size QCheck.Gen.(map (fun n -> n + 1) (int_bound 80)) (float_bound_exclusive 1000.0))
        (float_bound_exclusive 1.0))
    (fun (values, p) ->
      let arr = Array.of_list values in
      let v = Simkit.Stats.percentile arr p in
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_online_mean_matches_naive =
  QCheck.Test.make ~name:"stats: online mean = naive mean" ~count:300
    QCheck.(list_of_size QCheck.Gen.(map (fun n -> n + 1) (int_bound 100)) (float_bound_exclusive 1000.0))
    (fun values ->
      let o = Simkit.Stats.Online.create () in
      List.iter (Simkit.Stats.Online.add o) values;
      let naive = List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values) in
      Float.abs (Simkit.Stats.Online.mean o -. naive) < 1e-6)

(* ---- OAR expressions: de Morgan-ish sanity ----------------------------------------- *)

let props_gen =
  QCheck.Gen.(
    map2
      (fun cluster gpu -> [ ("cluster", String.make 1 cluster); ("gpu", if gpu then "YES" else "NO") ])
      (char_range 'a' 'c')
      bool)

let prop_expr_not_involution =
  QCheck.Test.make ~name:"expr: not (not e) = e" ~count:300 (QCheck.make props_gen)
    (fun props ->
      let lookup key = List.assoc_opt key props in
      let e = Oar.Expr.parse_exn "cluster='a' and gpu='YES'" in
      Oar.Expr.eval (Oar.Expr.Not (Oar.Expr.Not e)) ~props:lookup
      = Oar.Expr.eval e ~props:lookup)

let prop_expr_demorgan =
  QCheck.Test.make ~name:"expr: de Morgan on and/or" ~count:300 (QCheck.make props_gen)
    (fun props ->
      let lookup key = List.assoc_opt key props in
      let a = Oar.Expr.parse_exn "cluster='a'" in
      let b = Oar.Expr.parse_exn "gpu='YES'" in
      Oar.Expr.eval (Oar.Expr.Not (Oar.Expr.And (a, b))) ~props:lookup
      = Oar.Expr.eval (Oar.Expr.Or (Oar.Expr.Not a, Oar.Expr.Not b)) ~props:lookup)

(* ---- Gantt: next_free_window is actually free --------------------------------------- *)

let prop_gantt_window_free =
  QCheck.Test.make ~name:"gantt: next_free_window returns a free slot" ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 15)
           (pair (float_bound_exclusive 200.0) (float_bound_exclusive 30.0)))
        (pair (float_bound_exclusive 200.0) (float_bound_exclusive 40.0)))
    (fun (intervals, (after, duration)) ->
      let duration = duration +. 0.1 in
      let g = Oar.Gantt.create () in
      List.iteri
        (fun i (start, len) ->
          try Oar.Gantt.reserve g ~host:"h" ~start ~stop:(start +. len +. 0.1) ~job:i
          with Invalid_argument _ -> ())
        intervals;
      let window = Oar.Gantt.next_free_window g ~host:"h" ~after ~duration in
      window >= after
      && Oar.Gantt.is_free g ~host:"h" ~start:window ~stop:(window +. duration))

(* ---- Request parser: programmatic requests round-trip -------------------------------- *)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request: to_string/parse round-trip" ~count:200
    QCheck.(pair (int_range 1 40) (int_range 1 24))
    (fun (nodes, hours) ->
      let r =
        Oar.Request.nodes ~filter:"cluster='graphene'" (`N nodes)
          ~walltime:(float_of_int hours *. 3600.0)
      in
      let r' = Oar.Request.parse_exn (Oar.Request.to_string r) in
      List.length r'.Oar.Request.groups = 1
      && Float.abs (r'.Oar.Request.walltime -. r.Oar.Request.walltime) < 1.0)

let () =
  Alcotest.run "properties"
    [
      ("cron", [ qc prop_cron_next_fire_matches; qc prop_cron_no_match_between ]);
      ( "calendar",
        [ qc prop_calendar_day_decomposition; qc prop_calendar_peak_subset_of_weekday ] );
      ("engine", [ qc prop_engine_monotonic_execution; qc prop_engine_cancel_subset ]);
      ("timeseries", [ qc prop_timeseries_between_model ]);
      ("stats", [ qc prop_percentile_within_range; qc prop_online_mean_matches_naive ]);
      ("expr", [ qc prop_expr_not_involution; qc prop_expr_demorgan ]);
      ("gantt", [ qc prop_gantt_window_free ]);
      ("request", [ qc prop_request_roundtrip ]);
    ]
