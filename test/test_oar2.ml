(* Additional OAR coverage: walltime enforcement, best-effort ordering,
   service outages, multi-group estimates, cache behaviour, accounting
   integration with the workload generator. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mk () =
  let instance = Testbed.Instance.build ~seed:1234L () in
  (instance, Oar.Manager.create instance)

(* ---- walltime enforcement ------------------------------------------------- *)

let test_walltime_truncates_long_jobs () =
  let instance, oar = mk () in
  (* The user asks for 1 h but the workload would run 10 h: OAR kills the
     job at the walltime. *)
  let job =
    match
      Oar.Manager.submit oar ~duration:36000.0
        (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:3600.0)
    with
    | Ok job -> job
    | Error _ -> Alcotest.fail "submit failed"
  in
  Simkit.Engine.run_until instance.Testbed.Instance.engine 7200.0;
  checkb "terminated at the walltime" true (job.Oar.Job.state = Oar.Job.Terminated);
  match (job.Oar.Job.started_at, job.Oar.Job.ended_at) with
  | Some start, Some stop -> checkb "ran exactly one hour" true (Float.abs (stop -. start -. 3600.0) < 1.0)
  | _ -> Alcotest.fail "missing timestamps"

let test_short_jobs_end_early () =
  let instance, oar = mk () in
  let job =
    match
      Oar.Manager.submit oar ~duration:600.0
        (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:3600.0)
    with
    | Ok job -> job
    | Error _ -> Alcotest.fail "submit failed"
  in
  Simkit.Engine.run_until instance.Testbed.Instance.engine 1000.0;
  checkb "ended at its duration, not the walltime" true
    (job.Oar.Job.state = Oar.Job.Terminated)

(* ---- best-effort ordering ---------------------------------------------------- *)

let test_besteffort_scheduled_last () =
  let _, oar = mk () in
  (* Fill nyx, then queue one besteffort and one default job; the default
     job must get the earlier future slot. *)
  ignore
    (Oar.Manager.submit oar ~duration:3600.0
       (Oar.Request.nodes ~filter:"cluster='nyx'" `All ~walltime:3600.0));
  let besteffort =
    match
      Oar.Manager.submit oar ~jtype:Oar.Job.Besteffort ~duration:3600.0
        (Oar.Request.nodes ~filter:"cluster='nyx'" `All ~walltime:3600.0)
    with
    | Ok j -> j
    | Error _ -> Alcotest.fail "besteffort submit"
  in
  let default_job =
    match
      Oar.Manager.submit oar ~duration:3600.0
        (Oar.Request.nodes ~filter:"cluster='nyx'" `All ~walltime:3600.0)
    with
    | Ok j -> j
    | Error _ -> Alcotest.fail "default submit"
  in
  checkb "both scheduled in the future" true
    (besteffort.Oar.Job.state = Oar.Job.Scheduled
    && default_job.Oar.Job.state = Oar.Job.Scheduled);
  checkb "default precedes besteffort" true
    (default_job.Oar.Job.scheduled_start < besteffort.Oar.Job.scheduled_start)

(* ---- service outage ------------------------------------------------------------ *)

let test_submit_fails_when_all_oar_down () =
  let instance, oar = mk () in
  List.iter
    (fun site ->
      Testbed.Services.set_state instance.Testbed.Instance.services ~site
        Testbed.Services.Oar Testbed.Services.Down)
    Testbed.Inventory.sites;
  match
    Oar.Manager.submit oar (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:600.0)
  with
  | Error Oar.Manager.Service_unavailable -> ()
  | _ -> Alcotest.fail "expected Service_unavailable"

(* ---- multi-group estimates ------------------------------------------------------- *)

let test_estimate_multi_group () =
  let _, oar = mk () in
  let request =
    Oar.Request.parse_exn
      "cluster='nyx'/nodes=2+cluster='graphite'/nodes=2,walltime=1"
  in
  (match Oar.Manager.estimate_start oar request with
   | Some at -> checkb "both groups free now" true (at < 1.0)
   | None -> Alcotest.fail "estimate failed");
  (* Saturate one group: the common start moves. *)
  ignore
    (Oar.Manager.submit oar ~duration:7200.0
       (Oar.Request.nodes ~filter:"cluster='graphite'" `All ~walltime:7200.0));
  match Oar.Manager.estimate_start oar request with
  | Some at -> checkb "pushed behind the graphite job" true (at >= 7200.0)
  | None -> Alcotest.fail "estimate failed under load"

(* ---- property cache invalidation --------------------------------------------------- *)

let test_filter_cache_invalidated_on_refresh () =
  let instance, oar = mk () in
  let filter = Oar.Expr.parse_exn "gpu='YES'" in
  let before = List.length (Oar.Manager.matching_hosts oar filter) in
  checkb "gpu hosts exist" true (before > 0);
  (* Corrupt one gpu host's OAR row, refresh, re-query through the same
     (cached) filter. *)
  let ctx = Testbed.Faults.context instance.Testbed.Instance.faults in
  Hashtbl.replace ctx.Testbed.Faults.flags "oar_desync:orion-1.lyon" "x";
  Oar.Manager.refresh_properties oar;
  let after = List.length (Oar.Manager.matching_hosts oar filter) in
  checki "one gpu host lost its property" (before - 1) after

(* ---- incremental property refresh ---------------------------------------------------- *)

(* Full-rebuild oracle: a host's row as derived from scratch from its
   current document and desync flag. *)
let rebuilt_row ctx host =
  match Testbed.Refapi.get ctx.Testbed.Faults.refapi host with
  | None -> []
  | Some doc ->
    let props = Oar.Property.expected_of_doc doc in
    if Hashtbl.mem ctx.Testbed.Faults.flags ("oar_desync:" ^ host) then
      List.map
        (fun (k, v) -> if k = "gpu" then (k, if v = "YES" then "NO" else "YES") else (k, v))
        props
    else props

let refresh_filters =
  List.map Oar.Expr.parse_exn
    [ "gpu='YES'"; "gpu='NO' and cluster='orion'"; "memnode > 64"; "cores >= 16";
      "cluster='chifflet' or ib='YES'" ]

(* Hosts the operations touch: gpu clusters, so desync flips move hosts
   between the gpu filters, and a plain one. *)
let refresh_hosts =
  List.concat_map
    (fun (cluster, site, n) -> List.init n (fun i -> Printf.sprintf "%s-%d.%s" cluster (i + 1) site))
    [ ("orion", "lyon", 4); ("graphite", "nancy", 4); ("chifflet", "lille", 8) ]

type refresh_op =
  | Refapi_desync of int
  | Oar_desync of int
  | Repair of int
  | Reset_publish of int
  | Refresh

let show_refresh_op = function
  | Refapi_desync i -> Printf.sprintf "refapi_desync %d" i
  | Oar_desync i -> Printf.sprintf "oar_desync %d" i
  | Repair i -> Printf.sprintf "repair %d" i
  | Reset_publish i -> Printf.sprintf "reset_publish %d" i
  | Refresh -> "refresh"

let gen_refresh_op =
  let open QCheck.Gen in
  let host = int_bound (List.length refresh_hosts - 1) in
  frequency
    [ (3, map (fun i -> Refapi_desync i) host);
      (3, map (fun i -> Oar_desync i) host);
      (3, map (fun i -> Repair i) (int_bound 20));
      (2, map (fun i -> Reset_publish i) host);
      (4, return Refresh) ]

(* Test-side copy of the [oarproperties] step before [Property.induced_by]:
   every host of the cluster that has a document is compared in full.
   Returns the log lines and the evidence signatures, newest first as the
   script files them. *)
let full_oarproperties_step instance oar cluster =
  let props = Oar.Manager.properties oar in
  List.fold_left
    (fun (log, signatures) node ->
      let host = node.Testbed.Node.host in
      match Testbed.Refapi.get instance.Testbed.Instance.refapi host with
      | None -> (log, signatures)
      | Some doc ->
        let actual = Oar.Property.all_of props ~host in
        let diverging =
          List.filter
            (fun (k, v) ->
              match List.assoc_opt k actual with Some v' -> v <> v' | None -> true)
            (Oar.Property.expected_of_doc doc)
        in
        if diverging = [] then (log, signatures)
        else
          ( log
            @ List.map
                (fun (k, v) ->
                  Printf.sprintf "%s: OAR property %s should be %s (is %s)" host k v
                    (Option.value ~default:"<unset>" (List.assoc_opt k actual)))
                diverging,
            ("oarprops:" ^ host) :: signatures ))
    ([], [])
    (Testbed.Instance.nodes_of_cluster instance cluster)

(* Run the [oarproperties] script on [cluster]; when it finishes, return its
   log lines and signatures with the full step's, taken at that instant. *)
let oarproperties_vs_full env cluster =
  let config =
    List.find
      (fun c -> c.Framework.Testdef.cluster = Some cluster)
      (Framework.Testdef.expand Framework.Testdef.Oarproperties)
  in
  let now = Framework.Env.now env in
  let build =
    { Ci.Build.job_name = "oarproperties"; number = 1;
      axes = Framework.Testdef.axes_of_config config; cause = "test"; retry_of = None;
      queued_at = now; started_at = Some now; finished_at = None; result = None; log = [];
      artifacts = []; touched_hosts = [] }
  in
  let result = ref None in
  Framework.Scripts.run env config ~build ~finish:(fun outcome ->
      let signatures =
        List.map
          (fun (e : Framework.Bugtracker.evidence) -> e.signature)
          outcome.Framework.Scripts.evidences
      in
      result :=
        Some
          ( (build.Ci.Build.log, signatures),
            full_oarproperties_step env.Framework.Env.instance env.Framework.Env.oar cluster ));
  let engine = Framework.Env.engine env in
  while !result = None && Simkit.Engine.step engine do () done;
  Option.get !result

let prop_incremental_refresh =
  QCheck.Test.make ~name:"incremental refresh matches a full rebuild" ~count:40
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_refresh_op ops))
       QCheck.Gen.(list_size (int_range 1 30) gen_refresh_op))
    (fun ops ->
      let env = Framework.Env.create ~seed:1234L () in
      let instance = env.Framework.Env.instance and oar = env.Framework.Env.oar in
      let faults = instance.Testbed.Instance.faults in
      let ctx = Testbed.Faults.context faults in
      let host i = List.nth refresh_hosts i in
      let active = ref [] in
      let inject kind i =
        match Testbed.Faults.inject_on faults ~now:0.0 kind (Testbed.Faults.Host (host i)) with
        | Some fault -> active := !active @ [ fault ]
        | None -> ()
      in
      let consistent () =
        let props = Oar.Manager.properties oar in
        let rows =
          List.map (fun h -> (h, rebuilt_row ctx h)) (Testbed.Refapi.hosts ctx.Testbed.Faults.refapi)
        in
        Oar.Property.hosts props = List.map fst rows
        && List.for_all (fun (h, row) -> Oar.Property.all_of props ~host:h = row) rows
        && List.for_all
             (fun filter ->
               Oar.Manager.matching_hosts oar filter
               = List.filter_map
                   (fun (h, row) ->
                     if Oar.Expr.eval filter ~props:(fun k -> List.assoc_opt k row) then Some h
                     else None)
                   rows)
             refresh_filters
      in
      (* A row induced by a host's current document is that document's
         expected properties, and skipping such rows leaves the
         [oarproperties] step unchanged. *)
      let step_unchanged () =
        let props = Oar.Manager.properties oar in
        List.for_all
          (fun h ->
            match Testbed.Refapi.get ctx.Testbed.Faults.refapi h with
            | Some doc when Oar.Property.induced_by props ~host:h doc ->
              Oar.Property.all_of props ~host:h = Oar.Property.expected_of_doc doc
            | _ -> true)
          (Testbed.Refapi.hosts ctx.Testbed.Faults.refapi)
        && List.for_all
             (fun cluster ->
               let script, full = oarproperties_vs_full env cluster in
               script = full)
             [ "orion"; "graphite"; "chifflet" ]
      in
      (* Fill the filter cache before the first operation, so a refresh
         that wrongly keeps it shows. *)
      consistent ()
      && List.for_all
           (fun op ->
             (match op with
              | Refapi_desync i -> inject Testbed.Faults.Refapi_desync i; true
              | Oar_desync i -> inject Testbed.Faults.Oar_property_desync i; true
              | Repair k ->
                (match !active with
                 | [] -> ()
                 | faults_left ->
                   let fault = List.nth faults_left (k mod List.length faults_left) in
                   Testbed.Faults.repair faults ~now:0.0 fault;
                   active := List.filter (fun f -> f != fault) faults_left);
                true
              | Reset_publish i ->
                let node = Testbed.Instance.node instance (host i) in
                Testbed.Node.reset_to_reference node;
                Testbed.Refapi.publish_node ctx.Testbed.Faults.refapi node;
                true
              | Refresh ->
                Oar.Manager.refresh_properties oar;
                consistent ())
             && step_unchanged ())
           ops)

(* ---- placement at [now] --------------------------------------------------------------- *)

(* The window-search oracle: the pre-fast-path [Manager.place_group],
   which always builds, sorts and searches every usable host's next free
   window, over a test-side copy of the reservations. *)
let oracle_place_group gantt ~after ~duration ~usable ~count =
  let needed = match count with `N n -> n | `All -> List.length usable in
  if needed = 0 || List.length usable < needed then None
  else begin
    let windows =
      List.map (fun h -> (h, Oar.Gantt.next_free_window gantt ~host:h ~after ~duration)) usable
      |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
    in
    let candidates = List.sort_uniq Float.compare (after :: List.map snd windows) in
    let feasible_at start =
      let rec take acc taken = function
        | [] -> if taken >= needed then Some (List.rev acc) else None
        | _ when taken >= needed -> Some (List.rev acc)
        | (h, _) :: rest ->
          if Oar.Gantt.is_free gantt ~host:h ~start ~stop:(start +. duration) then
            take (h :: acc) (taken + 1) rest
          else take acc taken rest
      in
      take [] 0 windows
    in
    let rec try_candidates = function
      | [] -> None
      | start :: rest -> (
        match feasible_at start with
        | Some chosen -> Some (start, chosen)
        | None -> try_candidates rest)
    in
    match try_candidates candidates with
    | Some placement -> Some placement
    | None ->
      let horizon =
        List.fold_left
          (fun acc (h, _) ->
            List.fold_left
              (fun acc (_, stop, _) -> Float.max acc stop)
              acc (Oar.Gantt.reservations gantt ~host:h))
          after windows
      in
      Option.map (fun chosen -> (horizon, chosen)) (feasible_at horizon)
  end

(* [Manager.place_request]'s fixpoint, specialised to one group. *)
let oracle_place gantt ~after ~duration ~usable ~count =
  let rec search start attempts =
    if attempts > 30 then None
    else
      match oracle_place_group gantt ~after:start ~duration ~usable ~count with
      | None -> None
      | Some (s, _) when s > start -> search s (attempts + 1)
      | Some (_, hosts) -> Some (start, hosts)
  in
  search after 0

let gen_count n_hosts =
  QCheck.Gen.(
    frequency [ (4, map (fun n -> `N n) (int_range 1 (n_hosts + 1))); (1, return `All) ])

let show_count = function `N n -> Printf.sprintf "N %d" n | `All -> "All"

let prop_place_at_now =
  let cluster = "grimoire" and n_hosts = 8 in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_bound 2) (int_bound (n_hosts - 1)))
        (list_size (int_range 0 12)
           (triple (int_bound 20) (int_range 1 8) (gen_count n_hosts)))
        (list_size (int_range 1 4) (pair (int_range 1 8) (gen_count n_hosts))))
  in
  let print (down, reservations, probes) =
    Printf.sprintf "down [%s]; reserve [%s]; probe [%s]"
      (String.concat "," (List.map string_of_int down))
      (String.concat "; "
         (List.map
            (fun (s, w, c) -> Printf.sprintf "at %d0min for %d0min %s" s w (show_count c))
            reservations))
      (String.concat "; "
         (List.map (fun (w, c) -> Printf.sprintf "%d0min %s" w (show_count c)) probes))
  in
  QCheck.Test.make ~name:"immediate placement matches the window search" ~count:150
    (QCheck.make ~print gen)
    (fun (down, reservations, probes) ->
      let instance, oar = mk () in
      let nodes = Testbed.Instance.nodes_of_cluster instance cluster in
      List.iter
        (fun i -> (List.nth nodes i).Testbed.Node.state <- Testbed.Node.Down)
        down;
      let gantt = Oar.Gantt.create () in
      let record job =
        let start = job.Oar.Job.scheduled_start in
        List.iter
          (fun host ->
            Oar.Gantt.reserve gantt ~host ~start
              ~stop:(start +. job.Oar.Job.request.Oar.Request.walltime)
              ~job:job.Oar.Job.id)
          job.Oar.Job.assigned
      in
      let request count walltime =
        Oar.Request.nodes ~filter:(Printf.sprintf "cluster='%s'" cluster) count ~walltime
      in
      List.iter
        (fun (slot, length, count) ->
          match
            Oar.Manager.submit_at oar ~start:(600.0 *. float_of_int slot)
              (request count (600.0 *. float_of_int length))
          with
          | Ok job -> record job
          | Error _ -> ())
        reservations;
      let usable =
        List.filter_map
          (fun node ->
            if node.Testbed.Node.state <> Testbed.Node.Down && Testbed.Node.in_service node
            then Some node.Testbed.Node.host
            else None)
          nodes
        |> List.sort String.compare
      in
      List.for_all
        (fun (length, count) ->
          let duration = 600.0 *. float_of_int length in
          let expected = oracle_place gantt ~after:0.0 ~duration ~usable ~count in
          match (Oar.Manager.submit oar ~immediate:true (request count duration), expected) with
          | Error Oar.Manager.No_matching_resource, None -> true
          | Error (Oar.Manager.Not_immediately_schedulable at), Some (start, _) ->
            start > 1.0 && at = start
          | Ok job, Some (start, hosts) ->
            record job;
            start <= 1.0 && job.Oar.Job.scheduled_start = start && job.Oar.Job.assigned = hosts
          | _ -> false)
        probes)

(* ---- exact-host requests ------------------------------------------------------------ *)

let test_exact_host_reservation () =
  let _, oar = mk () in
  let request =
    Oar.Request.nodes ~filter:"host='grisou-7.nancy' or host='grisou-9.nancy'" (`N 2)
      ~walltime:600.0
  in
  match Oar.Manager.submit oar ~immediate:true request with
  | Ok job ->
    Alcotest.(check (list string))
      "exactly the requested hosts"
      [ "grisou-7.nancy"; "grisou-9.nancy" ]
      (List.sort String.compare job.Oar.Job.assigned)
  | Error _ -> Alcotest.fail "exact-host reservation failed"

(* ---- workload + accounting integration ----------------------------------------------- *)

let test_workload_respects_diurnal_profile () =
  let instance, oar = mk () in
  let rng = Simkit.Prng.create 4321L in
  let w = Oar.Workload.start ~rng oar in
  (* Run over exactly one week and compare peak vs night submissions. *)
  Simkit.Engine.run_until instance.Testbed.Instance.engine Simkit.Calendar.week;
  Oar.Workload.stop w;
  let jobs = Oar.Manager.jobs oar in
  let user_jobs =
    List.filter (fun j -> j.Oar.Job.user <> "g5k-tests") jobs
  in
  let peak, off =
    List.fold_left
      (fun (peak, off) j ->
        if Simkit.Calendar.is_peak_hours j.Oar.Job.submitted_at then (peak + 1, off)
        else (peak, off + 1))
      (0, 0) user_jobs
  in
  (* Peak window = 55 h of 168; with a 3x rate multiplier it should hold
     roughly half the submissions — definitely more than a third. *)
  checkb "peak hours denser than off-peak" true
    (float_of_int peak /. float_of_int (Stdlib.max 1 (peak + off)) > 0.33)

let test_accounting_under_workload () =
  let instance, oar = mk () in
  let accounting = Oar.Accounting.create oar in
  let rng = Simkit.Prng.create 4322L in
  let w = Oar.Workload.start ~rng oar in
  Simkit.Engine.run_until instance.Testbed.Instance.engine (2.0 *. Simkit.Calendar.day);
  Oar.Workload.stop w;
  checkb "many jobs accounted" true (Oar.Accounting.jobs_seen accounting > 100);
  checkb "several users in the report" true
    (List.length (Oar.Accounting.user_report accounting) > 10);
  checkb "usage attributed to clusters" true
    (List.length (Oar.Accounting.cluster_report accounting) > 3)

let () =
  Alcotest.run "oar2"
    [
      ( "walltime",
        [ Alcotest.test_case "truncates long jobs" `Quick test_walltime_truncates_long_jobs;
          Alcotest.test_case "short jobs end early" `Quick test_short_jobs_end_early ] );
      ( "scheduling",
        [ Alcotest.test_case "besteffort last" `Quick test_besteffort_scheduled_last;
          Alcotest.test_case "all OAR down" `Quick test_submit_fails_when_all_oar_down;
          Alcotest.test_case "multi-group estimate" `Quick test_estimate_multi_group;
          Alcotest.test_case "exact hosts" `Quick test_exact_host_reservation;
          Alcotest.test_case "cache invalidation" `Quick
            test_filter_cache_invalidated_on_refresh;
          Qc.to_alcotest prop_incremental_refresh;
          Qc.to_alcotest prop_place_at_now ] );
      ( "workload",
        [ Alcotest.test_case "diurnal profile" `Slow test_workload_respects_diurnal_profile;
          Alcotest.test_case "accounting integration" `Slow test_accounting_under_workload ] );
    ]
