(* One measured process of the benchmark.

   perfbench/run.py starts a fresh process for every sample, so set-up
   (including the lazy Testdef expansion) and the peak heap are paid and
   measured the way a g5ktest user pays for them.  Each process prints one
   JSON object on stdout.  Every layer is measured from outside, through
   public APIs only: the traced modes drive the engine with
   [next_time]/[step] and charge each step to its event label through
   [Engine.set_observer].

   Usage: simbench.exe MODE --workload W --seed N
     setup        campaign only: lint + prepare
     run          one untraced run: set-up, drive, finalize
     run-seq      federation only: the same run under Sequential, K = 1
     members      federation only: every member campaign run standalone
     trace        campaign only: one traced run *)

open Framework

let day = Simkit.Calendar.day
let hour = 3600.0

(* {1 Workloads} *)

type workload = Default | Attached | Federation_par

let workload_of_string = function
  | "campaign-default" -> Default
  | "campaign-attached" -> Attached
  | "federation-par" -> Federation_par
  | w -> failwith ("unknown workload " ^ w)

(* Seed variant [n] offsets every seed the workload uses, so variant 0 is
   the byte-identical default seed path. *)
let offset seed n = Int64.add seed (Int64.of_int n)

let default_months = 3

(* Every opt-in subsystem at once: the union of the Lint presets, with the
   drill faults moved inside the one-month horizon so that each fires. *)
let attached_config n =
  {
    Campaign.default_config with
    Campaign.seed = offset Campaign.default_config.Campaign.seed n;
    months = 1;
    resilience = true;
    infra_faults =
      [ (5.0 *. day, Testbed.Faults.Ci_outage);
        (12.0 *. day, Testbed.Faults.Serve_crash);
        (15.0 *. day, Testbed.Faults.Build_hang);
        (24.0 *. day, Testbed.Faults.Queue_loss) ];
    infra_fault_duration = 6.0 *. hour;
    health = Some Health.default_config;
    health_faults =
      [ (10.0 *. day, Testbed.Faults.Site_outage, Testbed.Faults.Site "nancy");
        (20.0 *. day, Testbed.Faults.Pdu_failure, Testbed.Faults.Cluster "graphene") ];
    triage = Some Triage.default_config;
    serve =
      Some
        {
          Serve.default_config with
          Serve.workload_seed = offset Serve.default_config.Serve.workload_seed n;
        };
    audit = true;
  }

let campaign_config w n =
  match w with
  | Default ->
    {
      Campaign.default_config with
      Campaign.seed = offset Campaign.default_config.Campaign.seed n;
      months = default_months;
    }
  | Attached -> attached_config n
  | Federation_par -> invalid_arg "campaign_config"

(* K = the cores that exist, never more shards than members. *)
let federation_config n =
  let testbeds = 10 in
  {
    Federation.default_config with
    Federation.testbeds;
    shards = max 1 (min testbeds (Domain.recommended_domain_count ()));
    seed = offset Federation.default_config.Federation.seed n;
    backbone_faults_per_year = 36.0;
    base = { Federation.default_config.Federation.base with Campaign.months = 1 };
    driver = Federation.Parallel;
  }

let sequential cfg = { cfg with Federation.shards = 1; driver = Federation.Sequential }

(* {1 Measurement helpers} *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* [Gc.quick_stat] sums every domain, including finished ones, but its
   word counters only advance at minor collections; forcing one first
   makes the reading exact. *)
let gc_stat () =
  Gc.minor ();
  Gc.quick_stat ()

(* {1 Host-speed calibration}

   The host is shared: other tenants slow a process by tens of percent
   for minutes at a time, which no number of repeats within one run
   averages out.  A fixed kernel of random reads and writes over a 4 MB
   array is timed next to the measured work; [cal_ref_s] over its time is
   the host's speed, and run.py scales measured host times by it.  Of the
   kernels tried (random access over 4, 32 and 128 MB, a 32 MB pointer
   chase, short-lived allocation), the 4 MB one tracked the campaign
   drives best, with time proportional to theirs.  The array lives
   outside the OCaml heap and the kernel allocates nothing, so it does not
   depend on the simulation's heap and adds to the GC figures only the
   few words [calibrate] allocates per call, the same in every run. *)

let cal_buf : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 19) in
  Bigarray.Array1.fill a 0;
  a

(* Median seconds of one [kernel] call inside campaign runs on the host
   the bounds were set on (2-vCPU Xeon Sapphire Rapids KVM guest). *)
let cal_ref_s = 0.0061

let kernel () =
  let mask = Bigarray.Array1.dim cal_buf - 1 in
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to 600_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land mask in
    let v = Bigarray.Array1.unsafe_get cal_buf i in
    Bigarray.Array1.unsafe_set cal_buf i (v + !acc);
    acc := !acc + (v land 0xff) + 1
  done;
  !acc

type cal = { mutable cal_s : float; mutable calls : int }

let cal_create () = { cal_s = 0.0; calls = 0 }

let calibrate c n =
  for _ = 1 to n do
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    c.cal_s <- c.cal_s +. (now () -. t0);
    c.calls <- c.calls + 1
  done

let speed_field c = ("speed", Simkit.Json.Float (float_of_int c.calls *. cal_ref_s /. c.cal_s))

let digest s = Digest.to_hex (Digest.string s)

let campaign_fingerprint report = digest (Simkit.Json.to_string (Report.to_json report))

(* The engine has one observer slot: a traced drive takes it from the
   auditor, whose race detector then observes nothing.  Traced and
   untraced runs are compared with those two observer-fed counts zeroed. *)
let unobserved_fingerprint (report : Campaign.report) =
  campaign_fingerprint
    {
      report with
      Campaign.audit =
        Option.map
          (fun s -> { s with Simkit.Audit.events_observed = 0; races_flagged = 0 })
          report.Campaign.audit;
    }

(* Shard count and driver legitimately differ between equivalent runs. *)
let federation_fingerprint report =
  let normalized =
    { report with Federation.fed_cfg = sequential report.Federation.fed_cfg }
  in
  digest (Simkit.Json.to_string (Federation.report_to_json ~full:true normalized))

let lint_campaign cfg =
  match Lint.errors (Lint.run cfg) with
  | [] -> ()
  | errs -> failwith (Lint.render errs)

let lint_federation cfg =
  match Lint.errors (Lint.check_federation ~path:"federation" cfg) with
  | [] -> ()
  | errs -> failwith (Lint.render errs)

let ms s = Simkit.Json.Float (s *. 1e3)

let gc_fields (g0 : Gc.stat) (g1 : Gc.stat) =
  let open Simkit.Json in
  [ ("minor_words", Float (g1.Gc.minor_words -. g0.Gc.minor_words));
    ("top_heap_words", Int g1.Gc.top_heap_words);
    ("minor_collections", Int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    ("major_collections", Int (g1.Gc.major_collections - g0.Gc.major_collections)) ]

let stats_fields (s : Scheduler.stats option) =
  let open Simkit.Json in
  match s with
  | None -> []
  | Some s ->
    [ ("scheduler",
       Obj
         [ ("polls", Int s.Scheduler.polls);
           ("triggered", Int s.Scheduler.triggered);
           ("completed_success", Int s.Scheduler.completed_success);
           ("skipped_no_resources", Int s.Scheduler.skipped_no_resources) ]) ]

let summary_fields (r : Campaign.report) =
  let open Simkit.Json in
  let opt name f = function None -> [] | Some x -> [ (name, Obj (f x)) ] in
  stats_fields r.Campaign.scheduler_stats
  @ opt "serve"
      (fun (s : Serve.summary) ->
        [ ("reads", Int s.Serve.reads);
          ("shed", Int s.Serve.shed);
          ("renders", Int s.Serve.renders);
          ("hit_ratio", Float s.Serve.hit_ratio);
          ("staleness_p99", Float s.Serve.staleness_p99) ])
      r.Campaign.serve
  @ opt "triage"
      (fun (s : Triage.summary) ->
        [ ("bundles", Int s.Triage.bundles);
          ("filed", Int s.Triage.filed);
          ("dedup_ratio", Float s.Triage.dedup_ratio) ])
      r.Campaign.triage
  @ opt "health"
      (fun (s : Health.summary) ->
        [ ("suspected", Int s.Health.suspected);
          ("quarantined", Int s.Health.quarantined);
          ("released", Int s.Health.released) ])
      r.Campaign.health
  @ opt "audit"
      (fun (s : Simkit.Audit.summary) ->
        [ ("checks", Int s.Simkit.Audit.checks_run);
          ("violations", Int (List.length s.Simkit.Audit.violations)) ])
      r.Campaign.audit
  @ [ ("builds_total", Int r.Campaign.builds_total);
      ("bugs_filed", Int r.Campaign.bugs_filed) ]

(* {1 Traced drive}

   The step loop charges each executed event's host time and minor words
   to its label.  Words come from [Gc.minor_words], the one exact
   per-step counter: a traced drive runs on the main domain only, so it
   sees every word.  The clock is read outside the word interval and the
   observer only stores a pointer, so the probe itself allocates nothing
   that is charged to an event. *)

type acct = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable events : int array;
  mutable secs : float array;
  mutable words : float array;
  mutable max_s : float array;
  mutable samples : float array;
  mutable nsamples : int;
  mutable cancelled_s : float;
  mutable drive_s : float;
}

let acct_create () =
  {
    ids = Hashtbl.create 32;
    names = [||];
    events = [||];
    secs = [||];
    words = [||];
    max_s = [||];
    samples = Array.make 65536 0.0;
    nsamples = 0;
    cancelled_s = 0.0;
    drive_s = 0.0;
  }

let label_id a label =
  let name = match label with Some l -> l | None -> "unlabelled" in
  match Hashtbl.find_opt a.ids name with
  | Some i -> i
  | None ->
    let i = Array.length a.names in
    Hashtbl.replace a.ids name i;
    a.names <- Array.append a.names [| name |];
    a.events <- Array.append a.events [| 0 |];
    a.secs <- Array.append a.secs [| 0.0 |];
    a.words <- Array.append a.words [| 0.0 |];
    a.max_s <- Array.append a.max_s [| 0.0 |];
    i

let record_sample a dt =
  if a.nsamples = Array.length a.samples then begin
    let grown = Array.make (2 * a.nsamples) 0.0 in
    Array.blit a.samples 0 grown 0 a.nsamples;
    a.samples <- grown
  end;
  a.samples.(a.nsamples) <- dt;
  a.nsamples <- a.nsamples + 1

let traced_drive a engine horizon =
  let fired = ref false in
  let last = ref None in
  Simkit.Engine.set_observer engine
    (Some
       (fun ~time:_ ~label ->
         fired := true;
         last := label));
  let t_start = now () in
  let continue = ref true in
  while !continue do
    match Simkit.Engine.next_time engine with
    | Some t when t <= horizon ->
      fired := false;
      let t0 = Monotonic_clock.now () in
      let w0 = Gc.minor_words () in
      ignore (Simkit.Engine.step engine);
      let w1 = Gc.minor_words () in
      let t1 = Monotonic_clock.now () in
      let dt = Int64.to_float (Int64.sub t1 t0) *. 1e-9 in
      if !fired then begin
        let i = label_id a !last in
        a.events.(i) <- a.events.(i) + 1;
        a.secs.(i) <- a.secs.(i) +. dt;
        a.words.(i) <- a.words.(i) +. (w1 -. w0);
        if dt > a.max_s.(i) then a.max_s.(i) <- dt;
        record_sample a dt
      end
      else a.cancelled_s <- a.cancelled_s +. dt
    | _ -> continue := false
  done;
  a.drive_s <- a.drive_s +. (now () -. t_start);
  Simkit.Engine.set_observer engine None;
  (* Clamp the clock to the horizon exactly as [run_until] would. *)
  Simkit.Engine.run_until engine horizon

let percentile sorted n p =
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let acct_json a =
  let open Simkit.Json in
  let sorted = Array.sub a.samples 0 a.nsamples in
  Array.sort Float.compare sorted;
  let us p = Float (percentile sorted a.nsamples p *. 1e6) in
  Obj
    [ ("engine",
       Obj
         [ ("events", Int a.nsamples);
           ("step_p50_us", us 50.0);
           ("step_p99_us", us 99.0);
           ("step_max_us", us 100.0);
           ("drive_s", Float a.drive_s);
           ("cancelled_s", Float a.cancelled_s) ]);
      ("labels",
       Obj
         (Array.to_list
            (Array.mapi
               (fun i name ->
                 ( name,
                   Obj
                     [ ("events", Int a.events.(i));
                       ("host_s", Float a.secs.(i));
                       ("words", Float a.words.(i));
                       ("step_max_us", Float (a.max_s.(i) *. 1e6)) ] ))
               a.names))) ]

(* {1 Modes} *)

let campaign_setup cfg =
  let (), lint_s = timed (fun () -> lint_campaign cfg) in
  let sim, prepare_s = timed (fun () -> Campaign.prepare cfg) in
  (sim, lint_s, prepare_s)

(* Set-up takes tens of milliseconds, so the host's speed is taken just
   before and just after it. *)
let setup_mode cfg =
  let open Simkit.Json in
  let c = cal_create () in
  calibrate c 4;
  let _, lint_s, prepare_s = campaign_setup cfg in
  calibrate c 4;
  Obj
    [ speed_field c;
      ("setup_s", Float (lint_s +. prepare_s));
      ("lint_ms", ms lint_s);
      ("prepare_ms", ms prepare_s) ]

(* Host seconds of the drive, with the calibration kernel run before each
   simulated day.  Draining day by day executes exactly the events one
   [run_until] to the horizon would. *)
let drive_by_day c engine horizon =
  let days = int_of_float (Float.ceil (horizon /. day)) in
  let drive_s = ref 0.0 in
  for d = 1 to days do
    calibrate c 1;
    let until = Float.min horizon (float_of_int d *. day) in
    let (), dt = timed (fun () -> Simkit.Engine.run_until engine until) in
    drive_s := !drive_s +. dt
  done;
  !drive_s

let campaign_run cfg =
  let open Simkit.Json in
  let c = cal_create () in
  let g0 = gc_stat () in
  let t0 = now () in
  let sim, lint_s, prepare_s = campaign_setup cfg in
  let engine = Campaign.sim_engine sim in
  let horizon = Campaign.sim_horizon sim in
  let drive_s = drive_by_day c engine horizon in
  let report, finalize_s = timed (fun () -> Campaign.finalize sim) in
  let run_s = now () -. t0 -. c.cal_s in
  let g1 = gc_stat () in
  Obj
    ([ ("run_s", Float run_s);
       speed_field c;
       ("setup_s", Float (lint_s +. prepare_s));
       ("lint_ms", ms lint_s);
       ("prepare_ms", ms prepare_s);
       ("drive_s", Float drive_s);
       ("finalize_ms", ms finalize_s);
       ("sim_days", Float (horizon /. day));
       ("events", Int (Simkit.Engine.events_executed engine));
       ("fingerprint", String (campaign_fingerprint report));
       ("unobserved_fingerprint", String (unobserved_fingerprint report)) ]
    @ gc_fields g0 g1 @ summary_fields report)

let federation_run cfg =
  let open Simkit.Json in
  lint_federation cfg;
  let report, drive_s = timed (fun () -> Federation.run cfg) in
  Obj
    [ ("drive_s", Float drive_s);
      ("shards", Int cfg.Federation.shards);
      ("events", Int report.Federation.events_total);
      ("barriers", Int report.Federation.coordination.Federation.barriers);
      ("fingerprint", String (federation_fingerprint report)) ]

(* Build-level CI statistics from the server's completion hook, summed
   over every simulation the probe is attached to. *)
type ci_probe = {
  mutable builds : int;
  mutable unstable : int;
  mutable started : int;  (** builds that left the queue; [waits] holds theirs *)
  mutable waits : float array;
}

let ci_attach p sim =
  Ci.Server.on_build_complete (Campaign.sim_env sim).Env.ci (fun b ->
      p.builds <- p.builds + 1;
      (match b.Ci.Build.result with
       | Some Ci.Build.Unstable -> p.unstable <- p.unstable + 1
       | _ -> ());
      match b.Ci.Build.started_at with
      | Some s ->
        if p.started = Array.length p.waits then
          p.waits <- Array.append p.waits (Array.make (p.started + 1) 0.0);
        p.waits.(p.started) <- s -. b.Ci.Build.queued_at;
        p.started <- p.started + 1
      | None -> ())

let ci_json p =
  let open Simkit.Json in
  let sorted = Array.sub p.waits 0 p.started in
  Array.sort Float.compare sorted;
  Obj
    [ ("builds", Int p.builds);
      ("unstable", Int p.unstable);
      ("queue_wait_p50_s", Float (percentile sorted p.started 50.0));
      ("queue_wait_p99_s", Float (percentile sorted p.started 99.0)) ]

let sum_stats = function
  | [] -> None
  | s :: rest ->
    Some
      (List.fold_left
         (fun (acc : Scheduler.stats) (s : Scheduler.stats) ->
           {
             acc with
             Scheduler.polls = acc.Scheduler.polls + s.Scheduler.polls;
             triggered = acc.Scheduler.triggered + s.Scheduler.triggered;
             completed_success =
               acc.Scheduler.completed_success + s.Scheduler.completed_success;
             skipped_no_resources =
               acc.Scheduler.skipped_no_resources + s.Scheduler.skipped_no_resources;
           })
         s rest)

(* Campaigns run standalone, one after the other: the one campaign of a
   campaign workload, or every member of the federation.  [traced]
   charges their steps to labels and collects CI statistics. *)
let campaigns_run ~traced cfgs =
  let open Simkit.Json in
  let a = acct_create () in
  let ci = { builds = 0; unstable = 0; started = 0; waits = Array.make 4096 0.0 } in
  let prepare_s = ref 0.0 and drive_s = ref 0.0 and finalize_s = ref 0.0 in
  let events = ref 0 in
  let add r dt = r := !r +. dt in
  let reports =
    List.map
      (fun cfg ->
        let sim, dt = timed (fun () -> Campaign.prepare cfg) in
        add prepare_s dt;
        if traced then ci_attach ci sim;
        let engine = Campaign.sim_engine sim in
        let horizon = Campaign.sim_horizon sim in
        let (), dt =
          timed (fun () ->
              if traced then traced_drive a engine horizon
              else Simkit.Engine.run_until engine horizon)
        in
        add drive_s dt;
        events := !events + Simkit.Engine.events_executed engine;
        let report, dt = timed (fun () -> Campaign.finalize sim) in
        add finalize_s dt;
        report)
      cfgs
  in
  let single =
    match reports with
    | [ r ] ->
      ("unobserved_fingerprint", String (unobserved_fingerprint r)) :: summary_fields r
    | _ -> stats_fields (sum_stats (List.filter_map (fun r -> r.Campaign.scheduler_stats) reports))
  in
  Obj
    ([ ("prepare_ms", ms !prepare_s);
       ("drive_s", Float !drive_s);
       ("finalize_ms", ms !finalize_s);
       ("engine_events", Int !events) ]
    @ (if traced then [ ("trace", acct_json a); ("ci", ci_json ci) ] else [])
    @ single)

let members cfg = List.map (Federation.member_campaign cfg) (Federation.synthesize cfg)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed variant (0 = default seeds)") ]
  in
  let usage = "simbench.exe setup|run|run-seq|members|trace --workload W --seed N" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun _ -> raise (Arg.Bad "")) usage
   with Arg.Bad _ | Arg.Help _ ->
     prerr_endline usage;
     exit 2);
  let w = workload_of_string !workload in
  let n = !seed in
  let result =
    match (mode, w) with
    | "setup", (Default | Attached) -> setup_mode (campaign_config w n)
    | "run", (Default | Attached) -> campaign_run (campaign_config w n)
    | "run", Federation_par -> federation_run (federation_config n)
    | "run-seq", Federation_par -> federation_run (sequential (federation_config n))
    | "members", Federation_par -> campaigns_run ~traced:false (members (federation_config n))
    | "trace", (Default | Attached) -> campaigns_run ~traced:true [ campaign_config w n ]
    | _ ->
      prerr_endline usage;
      exit 2
  in
  print_endline (Simkit.Json.to_string result)
