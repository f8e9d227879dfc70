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

(* [Manager.place_request]'s fixpoint over several groups, with its
   [sort_uniq] disjointness check: [groups] pairs each group's usable
   matching hosts (in matching order) with its count. *)
let oracle_place_request gantt ~after ~duration groups =
  let rec search start attempts =
    if attempts > 30 then None
    else
      let placements =
        List.map
          (fun (usable, count) ->
            oracle_place_group gantt ~after:start ~duration ~usable ~count)
          groups
      in
      if List.exists Option.is_none placements then None
      else begin
        let placements = List.filter_map Fun.id placements in
        let latest = List.fold_left (fun acc (s, _) -> Float.max acc s) start placements in
        if latest > start then search latest (attempts + 1)
        else
          let all_hosts = List.concat_map snd placements in
          if List.length (List.sort_uniq String.compare all_hosts) = List.length all_hosts
          then Some (start, all_hosts)
          else search (start +. 60.0) (attempts + 1)
      end
  in
  search after 0

(* Saturated Gantts (the search past [after], hosts tied on their next
   window because one job reserved them together, and the drained-horizon
   fallback), down hosts under [`All], and two-group requests whose
   filters overlap, placed at [now] and in the future. *)
let prop_place_saturated =
  let cluster = "grimoire" and n_hosts = 8 in
  let host i = Printf.sprintf "%s-%d.nancy" cluster i in
  let any_of ids =
    String.concat " or " (List.map (fun i -> Printf.sprintf "host='%s'" (host i)) ids)
  in
  let filters =
    [| Printf.sprintf "cluster='%s'" cluster; any_of [ 1; 2; 3 ]; any_of [ 3; 4; 5; 6 ];
       any_of [ 2; 7; 8 ] |]
  in
  let gen_group =
    QCheck.Gen.(pair (int_bound (Array.length filters - 1)) (gen_count 4))
  in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_bound 2) (int_bound (n_hosts - 1)))
        (list_size (int_range 4 24)
           (triple (int_bound 12) (int_range 1 8) (gen_count n_hosts)))
        (list_size (int_range 1 6)
           (triple bool (int_range 1 8) (list_size (int_range 1 2) gen_group))))
  in
  let print (down, reservations, probes) =
    Printf.sprintf "down [%s]; reserve [%s]; probe [%s]"
      (String.concat "," (List.map string_of_int down))
      (String.concat "; "
         (List.map
            (fun (s, w, c) -> Printf.sprintf "at %d0min for %d0min %s" s w (show_count c))
            reservations))
      (String.concat "; "
         (List.map
            (fun (immediate, w, groups) ->
              Printf.sprintf "%s%d0min %s"
                (if immediate then "now " else "")
                w
                (String.concat "+"
                   (List.map (fun (f, c) -> Printf.sprintf "f%d/%s" f (show_count c)) groups)))
            probes))
  in
  QCheck.Test.make ~name:"saturated and multi-group placement matches the fixpoint" ~count:200
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
      List.iter
        (fun (slot, length, count) ->
          match
            Oar.Manager.submit_at oar ~start:(600.0 *. float_of_int slot)
              (Oar.Request.nodes ~filter:filters.(0) count
                 ~walltime:(600.0 *. float_of_int length))
          with
          | Ok job -> record job
          | Error _ -> ())
        reservations;
      let usable filter =
        List.filter
          (fun host ->
            let node = Testbed.Instance.node instance host in
            node.Testbed.Node.state <> Testbed.Node.Down && Testbed.Node.in_service node)
          (Oar.Manager.matching_hosts oar filter)
      in
      List.for_all
        (fun (immediate, length, groups) ->
          let walltime = 600.0 *. float_of_int length in
          let groups =
            List.map (fun (f, count) -> (Oar.Expr.parse_exn filters.(f), count)) groups
          in
          let request =
            { Oar.Request.groups =
                List.map (fun (filter, count) -> { Oar.Request.filter; count }) groups;
              walltime }
          in
          let expected =
            oracle_place_request gantt ~after:0.0 ~duration:walltime
              (List.map (fun (filter, count) -> (usable filter, count)) groups)
          in
          match (Oar.Manager.submit oar ~immediate request, expected) with
          | Error Oar.Manager.No_matching_resource, None -> true
          | Error (Oar.Manager.Not_immediately_schedulable at), Some (start, _) ->
            immediate && start > 1.0 && at = start
          | Ok job, None -> (not immediate) && job.Oar.Job.state = Oar.Job.Error
          | Ok job, Some (start, hosts) ->
            record job;
            ((not immediate) || start <= 1.0)
            && job.Oar.Job.scheduled_start = start
            && job.Oar.Job.assigned = hosts
          | _ -> false)
        probes)

(* ---- host handles ------------------------------------------------------------------- *)

type handle_op =
  | Down of int
  | Sideline of int  (* what the health loop does: [in_service] turns false *)
  | Restore of int
  | Desync of int  (* flip the host's OAR gpu row, then refresh *)
  | Resync of int
  | Occupy of int * int  (* filter, nodes *)
  | Advance of int  (* minutes *)

let show_handle_op = function
  | Down i -> Printf.sprintf "down %d" i
  | Sideline i -> Printf.sprintf "sideline %d" i
  | Restore i -> Printf.sprintf "restore %d" i
  | Desync i -> Printf.sprintf "desync %d" i
  | Resync i -> Printf.sprintf "resync %d" i
  | Occupy (f, n) -> Printf.sprintf "occupy f%d/%d" f n
  | Advance m -> Printf.sprintf "advance %dmin" m

(* String-keyed recount: each property row tested against the filter,
   each host's node looked up by name, and its reservations rebuilt from
   the live jobs. *)
let recount_free instance oar filter =
  let props = Oar.Manager.properties oar in
  let now = Simkit.Engine.now instance.Testbed.Instance.engine in
  let reserved host =
    List.exists
      (fun j ->
        (j.Oar.Job.state = Oar.Job.Scheduled || j.Oar.Job.state = Oar.Job.Running)
        && List.mem host j.Oar.Job.assigned
        && j.Oar.Job.scheduled_start < now +. 1.0
        && now < j.Oar.Job.scheduled_start +. j.Oar.Job.request.Oar.Request.walltime)
      (Oar.Manager.jobs oar)
  in
  List.filter
    (fun host ->
      Oar.Expr.eval filter ~props:(Oar.Property.props_fun props ~host)
      &&
      match Testbed.Instance.find_node instance host with
      | Some node ->
        Testbed.Node.is_available node && Testbed.Node.in_service node && not (reserved host)
      | None -> false)
    (Oar.Property.hosts props)

let prop_handles_match_recount =
  let filters =
    Array.map Oar.Expr.parse_exn
      [| "cluster='orion'"; "cluster='chifflet'"; "gpu='YES'"; "gpu='NO' and cluster='orion'";
         "cluster='graphite' or gpu='YES'" |]
  in
  let gen_op =
    let open QCheck.Gen in
    let host = int_bound (List.length refresh_hosts - 1) in
    frequency
      [ (3, map (fun i -> Down i) host); (3, map (fun i -> Sideline i) host);
        (2, map (fun i -> Restore i) host); (2, map (fun i -> Desync i) host);
        (1, map (fun i -> Resync i) host);
        (3, map2 (fun f n -> Occupy (f, n)) (int_bound (Array.length filters - 1)) (int_range 1 3));
        (2, map (fun m -> Advance m) (int_range 1 90)) ]
  in
  QCheck.Test.make ~name:"handle scans = string-keyed recount" ~count:40
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_handle_op ops))
       QCheck.Gen.(list_size (int_range 1 25) gen_op))
    (fun ops ->
      let instance, oar = mk () in
      let ctx = Testbed.Faults.context instance.Testbed.Instance.faults in
      let host i = List.nth refresh_hosts i in
      let node i = Testbed.Instance.node instance (host i) in
      let agree () =
        Array.for_all
          (fun filter ->
            let expected = recount_free instance oar filter in
            let n = List.length expected in
            Oar.Manager.free_matching_now oar filter = expected
            && List.for_all
                 (fun k -> Oar.Manager.free_at_least oar filter k = (k <= n))
                 [ 0; 1; n; n + 1 ])
          filters
      in
      (* The first check fills the filter cache, so every later one scans
         handles resolved before the operations. *)
      agree ()
      && List.for_all
           (fun op ->
             (match op with
              | Down i -> (node i).Testbed.Node.state <- Testbed.Node.Down
              | Sideline i -> (node i).Testbed.Node.health <- Testbed.Node.Suspected
              | Restore i ->
                (node i).Testbed.Node.state <- Testbed.Node.Alive;
                (node i).Testbed.Node.health <- Testbed.Node.Healthy
              | Desync i ->
                Hashtbl.replace ctx.Testbed.Faults.flags ("oar_desync:" ^ host i) "x";
                Oar.Manager.refresh_properties oar
              | Resync i ->
                Hashtbl.remove ctx.Testbed.Faults.flags ("oar_desync:" ^ host i);
                Oar.Manager.refresh_properties oar
              | Occupy (f, n) ->
                ignore
                  (Oar.Manager.submit oar
                     { Oar.Request.groups = [ { Oar.Request.filter = filters.(f); count = `N n } ];
                       walltime = 3600.0 })
              | Advance m ->
                let engine = instance.Testbed.Instance.engine in
                Simkit.Engine.run_until engine (Simkit.Engine.now engine +. (60.0 *. float_of_int m)));
             agree ())
           ops)

(* ---- allocation contract ------------------------------------------------------------ *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Words that [reps] calls of [f] allocate, net of the same loop around a
   function that does nothing. *)
let words_of ?(reps = 1000) f =
  let loop g () =
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (g ()))
    done
  in
  minor_words (loop f) -. minor_words (loop (fun () -> false))

(* The scans cost the same whatever the number of hosts they visit, and
   the configuration lookup the same whatever the size of the family. *)
let test_allocation_contract () =
  let instance, oar = mk () in
  let hosts = Oar.Property.hosts (Oar.Manager.properties oar) in
  let first n = Array.of_list (List.filteri (fun i _ -> i < n) hosts) in
  let one = first 1 and hundred = first 100 in
  let checkw what a b = Alcotest.(check (float 0.0)) what a b in
  let g = Oar.Gantt.create () in
  Array.iteri
    (fun i host ->
      let start = float_of_int i in
      Oar.Gantt.reserve g ~host ~start ~stop:(start +. 10.0) ~job:i)
    hundred;
  let is_free hosts () =
    Array.for_all (fun host -> Oar.Gantt.is_free g ~host ~start:500.0 ~stop:501.0) hosts
  in
  checkw "Gantt.is_free: 1 host = 100 hosts" (words_of (is_free one)) (words_of (is_free hundred));
  let slot_is_free hosts =
    let slots = Array.map (Oar.Gantt.slot g) hosts in
    fun () -> Array.for_all (fun s -> Oar.Gantt.slot_is_free s ~start:500.0 ~stop:501.0) slots
  in
  checkw "Gantt.slot_is_free: 1 host = 100 hosts" (words_of (slot_is_free one))
    (words_of (slot_is_free hundred));
  let filter_of hosts =
    Oar.Expr.parse_exn
      (String.concat " or " (Array.to_list (Array.map (Printf.sprintf "host='%s'") hosts)))
  in
  let f1 = filter_of one and f100 = filter_of hundred in
  (* Fill both cache entries first. *)
  checki "the 1-host filter" 1 (List.length (Oar.Manager.matching_hosts oar f1));
  checki "the 100-host filter" 100 (List.length (Oar.Manager.matching_hosts oar f100));
  (* Asking for one more host than the filter matches scans every host. *)
  let scan filter n () = Oar.Manager.free_at_least oar filter n in
  checkw "free_at_least: 1 host = 100 hosts" (words_of (scan f1 2)) (words_of (scan f100 101));
  let lookup family =
    let config = List.hd (Framework.Testdef.expand family) in
    let axes = Framework.Testdef.axes_of_config config in
    fun () -> Option.is_some (Framework.Testdef.config_of_axes family axes)
  in
  checkw "config_of_axes: environments = kwapi"
    (words_of (lookup Framework.Testdef.Kwapi))
    (words_of (lookup Framework.Testdef.Environments));
  (* Two documents built apart, so [equal] cannot stop at a shared
     pointer; every member is an object, as in a Reference API
     document. *)
  let doc n =
    Simkit.Json.(Obj (List.init n (fun i -> (string_of_int i, Obj [ ("v", Int i) ]))))
  in
  let diff_equal n =
    let a = doc n and b = doc n in
    fun () -> Simkit.Json.diff a b = []
  in
  checkw "Json.diff of equal documents: 1 member = 200 members" (words_of (diff_equal 1))
    (words_of (diff_equal 200));
  let prune hosts =
    let g = Oar.Gantt.create () in
    Array.iter (fun host -> Oar.Gantt.reserve g ~host ~start:10.0 ~stop:20.0 ~job:0) hosts;
    fun () ->
      Oar.Gantt.prune g ~before:5.0;
      true
  in
  checkw "Gantt.prune with nothing expired: 1 host = 100 hosts" (words_of (prune one))
    (words_of (prune hundred));
  let node = Testbed.Instance.node instance "grisou-1.nancy" in
  let refapi = instance.Testbed.Instance.refapi in
  checkb "the node's document is described from its hardware" true
    (Testbed.Refapi.described_from refapi node.Testbed.Node.host node.Testbed.Node.actual);
  checkw "Refapi.described_from allocates nothing" 0.0
    (words_of (fun () ->
         Testbed.Refapi.described_from refapi node.Testbed.Node.host node.Testbed.Node.actual));
  (* [zipf_sample] allocates its one [Prng.float] draw (the boxed int64
     state) and nothing for the table's size. *)
  let rng = Simkit.Prng.create 7L in
  let zipf n =
    let table = Simkit.Dist.zipf_table ~n ~s:1.1 in
    fun () -> Simkit.Dist.zipf_sample rng table > 0
  in
  let draw = words_of (fun () -> Simkit.Prng.float rng >= 0.0) in
  checkw "Dist.zipf_sample: n = 100 = one Prng.float" draw (words_of (zipf 100));
  checkw "Dist.zipf_sample: n = 10,000 = one Prng.float" draw (words_of (zipf 10_000))

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
          Qc.to_alcotest prop_place_at_now;
          Qc.to_alcotest prop_place_saturated;
          Qc.to_alcotest prop_handles_match_recount;
          Alcotest.test_case "allocation contract" `Quick test_allocation_contract ] );
      ( "workload",
        [ Alcotest.test_case "diurnal profile" `Slow test_workload_respects_diurnal_profile;
          Alcotest.test_case "accounting integration" `Slow test_accounting_under_workload ] );
    ]
