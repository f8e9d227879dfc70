(* Live state stays bounded over the horizon.  The words reachable from
   a default campaign's [sim] are counted at two points of one run; the
   growth per simulated month between them must stay under a recorded
   bound.  The count is exact for a fixed binary and seed, so the bounds
   are tight.  Measured on OCaml 5.1.1 (64-bit): 0.31 MB per month over
   months 4-6, while the CI history rings still fill, and 0.01 MB over
   months 12-24 (the fault history, DESIGN §9).  An OAR manager that
   kept every finished job grew by 5.10 and 3.48 MB per month.

   The quick case runs with the other tier-1 tests; the slow one runs
   without [-q], as CI does. *)

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* MB of live state gained per simulated month from month [from] to
   month [until] of one default campaign, driven to [until]. *)
let growth ~from ~until =
  let sim = Framework.Campaign.prepare { Framework.Campaign.default_config with months = until } in
  let engine = Framework.Campaign.sim_engine sim in
  let live_at month =
    Simkit.Engine.run_until engine (float_of_int month *. Simkit.Calendar.month);
    mb_of_words (Obj.reachable_words (Obj.repr sim))
  in
  let a = live_at from in
  let b = live_at until in
  Printf.printf "live state: %.2f MB at month %d, %.2f MB at month %d\n%!" a from b until;
  (b -. a) /. float_of_int (until - from)

(* [bound] is in MB per simulated month. *)
let check ~from ~until ~bound () =
  let g = growth ~from ~until in
  if g > bound then
    Alcotest.failf "live state grows by %.2f MB per month over months %d-%d (bound %.2f)" g
      from until bound

let () =
  Alcotest.run "livestate"
    [
      ( "live-state",
        [ Alcotest.test_case "months 4 to 6" `Quick (check ~from:4 ~until:6 ~bound:0.5);
          Alcotest.test_case "months 12 to 24" `Slow (check ~from:12 ~until:24 ~bound:0.1) ] );
    ]
