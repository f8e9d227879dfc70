(* Chaos drill: break the testing infrastructure itself and watch the
   resilience layer absorb it.

   Mid-campaign we take the CI server down, make builds hang, and wipe
   the build queue.  With the resilience layer attached the campaign
   still completes: triggers queue during the outage and replay on
   recovery, watchdogs abort the hung builds at their family deadline,
   circuit breakers stop piling work on failing families, and the
   scheduler's jittered retry budget bounds the backoff churn.

   Run with: dune exec examples/chaos_drill.exe *)

let day = Simkit.Calendar.day

let () =
  let config =
    {
      Framework.Campaign.default_config with
      Framework.Campaign.months = 1;
      seed = 2024L;
      resilience = true;
      infra_faults =
        [ (4.0 *. day, Testbed.Faults.Ci_outage);
          (11.0 *. day, Testbed.Faults.Build_hang);
          (19.0 *. day, Testbed.Faults.Queue_loss) ];
      policy =
        {
          Framework.Scheduler.smart_policy with
          Framework.Scheduler.retry_budget = 5;
          backoff_jitter = 0.3;
          breaker =
            Some
              {
                Framework.Resilience.Breaker.failure_threshold = 3;
                cooldown = 8.0 *. Simkit.Calendar.hour;
              };
        };
    }
  in
  Format.printf
    "injecting: CI outage (day 4), build hang (day 11), queue loss (day 19)@.";
  Format.printf "each repaired after %.0f h@.@."
    (config.Framework.Campaign.infra_fault_duration /. Simkit.Calendar.hour);

  let report = Framework.Campaign.run config in
  Format.printf "%a@." Framework.Campaign.pp_report report;

  match report.Framework.Campaign.resilience with
  | None -> failwith "resilience layer was not attached"
  | Some summary ->
    Format.printf "%s@." (Framework.Resilience.render summary);
    Format.printf "summary as JSON:@.%s@."
      (Simkit.Json.to_string ~indent:2
         (Framework.Resilience.summary_to_json summary))
