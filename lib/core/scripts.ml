type outcome = { result : Ci.Build.result; evidences : Bugtracker.evidence list }

let success = { result = Ci.Build.Success; evidences = [] }

let failure evidences = { result = Ci.Build.Failure; evidences }
let unstable = { result = Ci.Build.Unstable; evidences = [] }

let logf build fmt = Printf.ksprintf (Ci.Build.append_log build) fmt

let after env delay k =
  ignore (Simkit.Engine.schedule (Env.engine env) ~delay (fun _ -> k ()))

(* ---- ground-truth correlation ------------------------------------------- *)

let cluster_of_host env host =
  match Testbed.Instance.find_node env.Env.instance host with
  | Some node -> Some node.Testbed.Node.cluster_name
  | None -> None

let fault_touches env hosts fault =
  let node_of h = Testbed.Instance.find_node env.Env.instance h in
  match fault.Testbed.Faults.target with
  | Testbed.Faults.Host h -> List.mem h hosts
  | Testbed.Faults.Host_pair (a, b) -> List.mem a hosts || List.mem b hosts
  | Testbed.Faults.Cluster c ->
    List.exists (fun h -> cluster_of_host env h = Some c) hosts
  | Testbed.Faults.Rack (c, r) ->
    List.exists
      (fun h ->
        match node_of h with
        | Some n ->
          String.equal n.Testbed.Node.cluster_name c
          && Testbed.Faults.rack_of_index n.Testbed.Node.index = r
        | None -> false)
      hosts
  | Testbed.Faults.Site s ->
    List.exists
      (fun h ->
        match node_of h with
        | Some n -> String.equal n.Testbed.Node.site_name s
        | None -> false)
      hosts
  | Testbed.Faults.Site_service _ | Testbed.Faults.Global _ -> false

(* Mass-outage kinds knock nodes over just like random reboots do, so any
   correlate call looking for dead/lost nodes must consider them too. *)
let correlated_kinds =
  [ Testbed.Faults.Site_outage; Testbed.Faults.Pdu_failure;
    Testbed.Faults.Network_partition ]

(* Mark matching active faults as detected and return their ids: the
   bug's link back to ground truth, used for repair and for the
   detection-rate experiment. *)
let correlate env ~hosts ~kinds =
  let faults = Env.faults env in
  let now = Env.now env in
  Testbed.Faults.active faults
  |> List.filter (fun f ->
         List.mem f.Testbed.Faults.kind kinds && fault_touches env hosts f)
  |> List.map (fun f ->
         Testbed.Faults.mark_detected faults ~now f;
         f.Testbed.Faults.id)

let correlate_service env ~site ~service_kinds =
  let faults = Env.faults env in
  let now = Env.now env in
  Testbed.Faults.active faults
  |> List.filter (fun f ->
         match f.Testbed.Faults.target with
         | Testbed.Faults.Site_service (s, k) ->
           String.equal s site && List.mem k service_kinds
         | _ -> false)
  |> List.map (fun f ->
         Testbed.Faults.mark_detected faults ~now f;
         f.Testbed.Faults.id)

let correlate_global env ~key ~kinds =
  let faults = Env.faults env in
  let now = Env.now env in
  Testbed.Faults.active faults
  |> List.filter (fun f ->
         List.mem f.Testbed.Faults.kind kinds
         &&
         match f.Testbed.Faults.target with
         | Testbed.Faults.Global k -> String.equal k key
         | _ -> false)
  |> List.map (fun f ->
         Testbed.Faults.mark_detected faults ~now f;
         f.Testbed.Faults.id)

let evidence ~signature ~summary ~category ~config ~fault_ids =
  {
    Bugtracker.signature;
    summary;
    category;
    source_test = config.Testdef.config_id;
    fault_ids;
  }

(* ---- resource reservation ------------------------------------------------ *)

let reserve env ~filter ~count ~walltime ~build ~unavailable k =
  let request = Oar.Request.nodes ~filter count ~walltime in
  match
    Oar.Manager.submit env.Env.oar ~user:"g5k-tests" ~jtype:Oar.Job.Deploy
      ~duration:walltime ~immediate:true request
  with
  | Error err ->
    logf build "oarsub -t deploy -l \"%s\": %s" (Oar.Request.to_string request)
      (match err with
       | Oar.Manager.No_matching_resource -> "no matching resource"
       | Oar.Manager.Not_immediately_schedulable at ->
         Printf.sprintf "not schedulable before %s (job cancelled)"
           (Simkit.Calendar.to_string at)
       | Oar.Manager.Service_unavailable -> "OAR service unavailable");
    unavailable ()
  | Ok job ->
    let nodes =
      List.filter_map (Testbed.Instance.find_node env.Env.instance)
        job.Oar.Job.assigned
    in
    logf build "reserved %d node(s): %s" (List.length nodes)
      (String.concat " " (List.map (fun n -> n.Testbed.Node.host) nodes));
    Ci.Build.touch_hosts build (List.map (fun n -> n.Testbed.Node.host) nodes);
    let release () = Oar.Manager.cancel env.Env.oar job in
    k nodes release

(* ---- description checks -------------------------------------------------- *)

let path_category path =
  let contains sub =
    let n = String.length sub and m = String.length path in
    let rec scan i = i + n <= m && (String.sub path i n = sub || scan (i + 1)) in
    n = 0 || scan 0
  in
  if contains "settings" || contains "bios" then "cpu-settings"
  else if contains "disks" then "disk"
  else if contains "memory" then "infrastructure"
  else "description"

let refapi_script env config ~build ~finish =
  let cluster = Option.get config.Testdef.cluster in
  let nodes = Testbed.Instance.nodes_of_cluster env.Env.instance cluster in
  let alive = List.filter (fun n -> n.Testbed.Node.state = Testbed.Node.Alive) nodes in
  after env (30.0 +. float_of_int (List.length alive)) (fun () ->
      let evidences = ref [] in
      List.iter
        (fun node ->
          let host = node.Testbed.Node.host in
          let report = G5kchecks.Check.run env.Env.instance node in
          if not (G5kchecks.Check.conforms report) then begin
            List.iter
              (fun m ->
                logf build "%s: %s described=%s observed=%s" host
                  m.G5kchecks.Check.path m.G5kchecks.Check.described
                  m.G5kchecks.Check.observed)
              report.G5kchecks.Check.mismatches;
            let first = List.hd report.G5kchecks.Check.mismatches in
            let fault_ids =
              correlate env ~hosts:[ host ]
                ~kinds:
                  [ Testbed.Faults.Cpu_cstates; Testbed.Faults.Cpu_hyperthreading;
                    Testbed.Faults.Cpu_turbo; Testbed.Faults.Cpu_governor;
                    Testbed.Faults.Bios_drift; Testbed.Faults.Disk_firmware;
                    Testbed.Faults.Disk_write_cache; Testbed.Faults.Ram_dimm_loss;
                    Testbed.Faults.Refapi_desync ]
            in
            evidences :=
              evidence
                ~signature:(Printf.sprintf "refapi:%s:%s" host first.G5kchecks.Check.path)
                ~summary:
                  (Printf.sprintf "%s does not conform to its description (%s)" host
                     first.G5kchecks.Check.path)
                ~category:(path_category first.G5kchecks.Check.path)
                ~config ~fault_ids
              :: !evidences
          end;
          (* Cabling verification (LLDP-discovered port vs description). *)
          if
            not
              (Testbed.Network.cabling_consistent
                 env.Env.instance.Testbed.Instance.network host)
          then begin
            logf build "%s: switch port differs from description" host;
            let fault_ids =
              correlate env ~hosts:[ host ] ~kinds:[ Testbed.Faults.Cabling_swap ]
            in
            evidences :=
              evidence
                ~signature:(Printf.sprintf "cabling:%s" host)
                ~summary:(Printf.sprintf "%s is cabled to the wrong switch port" host)
                ~category:"cabling" ~config ~fault_ids
              :: !evidences
          end)
        alive;
      if !evidences = [] then finish success else finish (failure !evidences))

let oarproperties_script env config ~build ~finish =
  let cluster = Option.get config.Testdef.cluster in
  let hosts =
    Testbed.Instance.nodes_of_cluster env.Env.instance cluster
    |> List.map (fun n -> n.Testbed.Node.host)
  in
  after env 20.0 (fun () ->
      let evidences = ref [] in
      let props = Oar.Manager.properties env.Env.oar in
      List.iter
        (fun host ->
          match Testbed.Refapi.get env.Env.instance.Testbed.Instance.refapi host with
          | None -> ()
          | Some doc when Oar.Property.induced_by props ~host doc -> ()
          | Some doc ->
            let expected = Oar.Property.expected_of_doc doc in
            let actual = Oar.Property.all_of props ~host in
            let diverging =
              List.filter
                (fun (k, v) ->
                  match List.assoc_opt k actual with
                  | Some v' -> not (String.equal v v')
                  | None -> true)
                expected
            in
            if diverging <> [] then begin
              List.iter
                (fun (k, v) ->
                  logf build "%s: OAR property %s should be %s (is %s)" host k v
                    (Option.value ~default:"<unset>" (List.assoc_opt k actual)))
                diverging;
              let fault_ids =
                correlate env ~hosts:[ host ]
                  ~kinds:[ Testbed.Faults.Oar_property_desync ]
              in
              evidences :=
                evidence
                  ~signature:(Printf.sprintf "oarprops:%s" host)
                  ~summary:
                    (Printf.sprintf "OAR properties of %s diverge from reference API"
                       host)
                  ~category:"description" ~config ~fault_ids
                :: !evidences
            end)
        hosts;
      if !evidences = [] then finish success else finish (failure !evidences))

let dellbios_script env config ~build ~finish =
  let cluster = Option.get config.Testdef.cluster in
  let nodes = Testbed.Instance.nodes_of_cluster env.Env.instance cluster in
  let alive = List.filter (fun n -> n.Testbed.Node.state = Testbed.Node.Alive) nodes in
  after env 45.0 (fun () ->
      let evidences = ref [] in
      List.iter
        (fun node ->
          let actual_bios =
            node.Testbed.Node.actual.Testbed.Hardware.bios.Testbed.Hardware.bios_version
          in
          let described_bios =
            node.Testbed.Node.reference.Testbed.Hardware.bios.Testbed.Hardware.bios_version
          in
          if not (String.equal actual_bios described_bios) then begin
            logf build "%s: BIOS %s (cluster baseline %s)" node.Testbed.Node.host
              actual_bios described_bios;
            let fault_ids =
              correlate env ~hosts:[ node.Testbed.Node.host ]
                ~kinds:[ Testbed.Faults.Bios_drift ]
            in
            evidences :=
              evidence
                ~signature:(Printf.sprintf "dellbios:%s" node.Testbed.Node.host)
                ~summary:
                  (Printf.sprintf "%s runs BIOS %s instead of %s"
                     node.Testbed.Node.host actual_bios described_bios)
                ~category:"cpu-settings" ~config ~fault_ids
              :: !evidences
          end)
        alive;
      if !evidences = [] then finish success else finish (failure !evidences))

(* ---- status & tooling ----------------------------------------------------- *)

let oarstate_script env config ~build ~finish =
  let site = Option.get config.Testdef.site in
  after env 30.0 (fun () ->
      let services = env.Env.instance.Testbed.Instance.services in
      let oar_up = Testbed.Services.use services ~site Testbed.Services.Oar in
      let consistent = Oar.Manager.assigned_busy_consistent env.Env.oar in
      let site_nodes = Testbed.Instance.nodes_of_site env.Env.instance site in
      let down =
        List.length
          (List.filter (fun n -> n.Testbed.Node.state = Testbed.Node.Down) site_nodes)
      in
      let down_ratio = float_of_int down /. float_of_int (Stdlib.max 1 (List.length site_nodes)) in
      let evidences = ref [] in
      if not oar_up then begin
        logf build "oarstat on %s failed: service unreachable" site;
        let fault_ids =
          correlate_service env ~site ~service_kinds:[ Testbed.Services.Oar ]
        in
        evidences :=
          evidence
            ~signature:(Printf.sprintf "oarstate:%s:service" site)
            ~summary:(Printf.sprintf "OAR unreachable on %s" site)
            ~category:"services" ~config ~fault_ids
          :: !evidences
      end;
      if not consistent then begin
        logf build "OAR database inconsistent with node states on %s" site;
        evidences :=
          evidence
            ~signature:(Printf.sprintf "oarstate:%s:consistency" site)
            ~summary:"OAR job/resource state inconsistency"
            ~category:"services" ~config ~fault_ids:[]
          :: !evidences
      end;
      if down_ratio > 0.30 then begin
        logf build "%d/%d nodes down on %s" down (List.length site_nodes) site;
        let down_hosts =
          List.filter_map
            (fun n ->
              if n.Testbed.Node.state = Testbed.Node.Down then
                Some n.Testbed.Node.host
              else None)
            site_nodes
        in
        let fault_ids =
          correlate env ~hosts:down_hosts
            ~kinds:(Testbed.Faults.Random_reboots :: correlated_kinds)
        in
        evidences :=
          evidence
            ~signature:(Printf.sprintf "oarstate:%s:down" site)
            ~summary:(Printf.sprintf "abnormal number of dead nodes on %s" site)
            ~category:"infrastructure" ~config ~fault_ids
          :: !evidences
      end;
      if !evidences = [] then finish success else finish (failure !evidences))

let cmdline_script env config ~build ~finish =
  let site = Option.get config.Testdef.site in
  after env 60.0 (fun () ->
      let services = env.Env.instance.Testbed.Instance.services in
      let steps =
        [ ("ssh frontend", Testbed.Services.Frontend);
          ("oarstat", Testbed.Services.Oar);
          ("oarsub -l nodes=1 (dry run)", Testbed.Services.Oar);
          ("kadeploy3 -v", Testbed.Services.Kadeploy) ]
      in
      let failed =
        List.filter
          (fun (cmd, service) ->
            let ok = Testbed.Services.use services ~site service in
            logf build "%s: %s" cmd (if ok then "ok" else "FAILED");
            not ok)
          steps
      in
      if failed = [] then finish success
      else begin
        let service_kinds = List.sort_uniq compare (List.map snd failed) in
        let fault_ids = correlate_service env ~site ~service_kinds in
        finish
          (failure
             [ evidence
                 ~signature:(Printf.sprintf "cmdline:%s:%s" site (fst (List.hd failed)))
                 ~summary:
                   (Printf.sprintf "command-line tools broken on %s (%s)" site
                      (fst (List.hd failed)))
                 ~category:"services" ~config ~fault_ids ])
      end)

let sidapi_script env config ~build ~finish =
  let site = Option.get config.Testdef.site in
  after env 45.0 (fun () ->
      let services = env.Env.instance.Testbed.Instance.services in
      let api_ok = Testbed.Services.use services ~site Testbed.Services.Api in
      let doc_ok =
        match Testbed.Instance.nodes_of_site env.Env.instance site with
        | [] -> false
        | node :: _ -> (
          match
            Testbed.Refapi.get env.Env.instance.Testbed.Instance.refapi
              node.Testbed.Node.host
          with
          | None -> false
          | Some doc -> (
            (* Round-trip through the wire format. *)
            match Simkit.Json.of_string (Simkit.Json.to_string doc) with
            | Ok parsed -> Simkit.Json.equal parsed doc
            | Error _ -> false))
      in
      let monitoring_ok =
        match Monitoring.Collector.rest_get env.Env.collector "/sites" with
        | Ok _ -> true
        | Error _ -> false
      in
      if api_ok && doc_ok && monitoring_ok then finish success
      else begin
        logf build "api=%b refapi-doc=%b monitoring=%b" api_ok doc_ok monitoring_ok;
        let fault_ids =
          correlate_service env ~site ~service_kinds:[ Testbed.Services.Api ]
        in
        finish
          (failure
             [ evidence
                 ~signature:(Printf.sprintf "sidapi:%s" site)
                 ~summary:(Printf.sprintf "site API misbehaving on %s" site)
                 ~category:"services" ~config ~fault_ids ])
      end)

(* ---- image / deployment tests --------------------------------------------- *)

let deploy_evidences env config image outcomes =
  List.filter_map
    (fun (host, outcome) ->
      match outcome with
      | Kadeploy.Deploy.Deployed -> None
      | Kadeploy.Deploy.Failed reason ->
        let is_postinstall =
          String.length reason >= 11 && String.sub reason 0 11 = "postinstall"
        in
        if is_postinstall then begin
          let key = Printf.sprintf "env_corrupt:%d" image.Kadeploy.Image.index in
          let fault_ids =
            correlate_global env ~key ~kinds:[ Testbed.Faults.Env_image_corrupt ]
          in
          Some
            (evidence
               ~signature:(Printf.sprintf "env:%s:postinstall" image.Kadeploy.Image.name)
               ~summary:
                 (Printf.sprintf "environment %s fails postinstall everywhere"
                    image.Kadeploy.Image.name)
               ~category:"software" ~config ~fault_ids)
        end
        else begin
          let fault_ids =
            correlate env ~hosts:[ host ]
              ~kinds:
                (Testbed.Faults.Random_reboots :: Testbed.Faults.Kernel_boot_race
                 :: correlated_kinds)
          in
          Some
            (evidence
               ~signature:(Printf.sprintf "deploy:%s" host)
               ~summary:(Printf.sprintf "deployment failed on %s: %s" host reason)
               ~category:"infrastructure" ~config ~fault_ids)
        end)
    outcomes

let environments_script env config ~build ~finish =
  let image_name = Option.get config.Testdef.image in
  match Kadeploy.Image.find image_name with
  | None -> finish (failure [])
  | Some image ->
    reserve env ~filter:(Testdef.oar_filter config) ~count:(`N 1) ~walltime:2400.0
      ~build ~unavailable:(fun () -> finish unstable)
      (fun nodes release ->
        Kadeploy.Deploy.run env.Env.instance ~registry:env.Env.registry
          ~image:image_name ~nodes ~on_done:(fun result ->
            logf build "deployment of %s: %d/%d ok in %.0f s" image_name
              (Kadeploy.Deploy.success_count result)
              (List.length nodes)
              (result.Kadeploy.Deploy.finished_at -. result.Kadeploy.Deploy.started_at);
            let evidences =
              deploy_evidences env config image result.Kadeploy.Deploy.outcomes
            in
            release ();
            if evidences = [] then finish success else finish (failure evidences)))

let stdenv_script env config ~build ~finish =
  reserve env ~filter:(Testdef.oar_filter config) ~count:(`N 1) ~walltime:1800.0 ~build
    ~unavailable:(fun () -> finish unstable)
    (fun nodes release ->
      match nodes with
      | [] ->
        release ();
        finish unstable
      | node :: _ ->
        let started = Env.now env in
        Testbed.Instance.reboot env.Env.instance node ~on_done:(fun ~ok ->
            let boot_time = Env.now env -. started in
            logf build "%s rebooted into std env in %.0f s (ok=%b)"
              node.Testbed.Node.host boot_time ok;
            release ();
            if not ok then begin
              let fault_ids =
                correlate env ~hosts:[ node.Testbed.Node.host ]
                  ~kinds:(Testbed.Faults.Random_reboots :: correlated_kinds)
              in
              finish
                (failure
                   [ evidence
                       ~signature:(Printf.sprintf "stdenv:%s:dead" node.Testbed.Node.host)
                       ~summary:
                         (Printf.sprintf "%s did not come back from reboot"
                            node.Testbed.Node.host)
                       ~category:"infrastructure" ~config ~fault_ids ])
            end
            else if boot_time > 420.0 then begin
              let fault_ids =
                correlate env ~hosts:[ node.Testbed.Node.host ]
                  ~kinds:[ Testbed.Faults.Kernel_boot_race ]
              in
              finish
                (failure
                   [ evidence
                       ~signature:
                         (Printf.sprintf "stdenv:%s:slowboot"
                            node.Testbed.Node.cluster_name)
                       ~summary:
                         (Printf.sprintf "abnormal boot delays on %s (%.0f s)"
                            node.Testbed.Node.cluster_name boot_time)
                       ~category:"software" ~config ~fault_ids ])
            end
            else finish success))

let paralleldeploy_script env config ~build ~finish =
  let site = Option.get config.Testdef.site in
  let clusters = Testbed.Inventory.clusters_of_site site in
  (* One node on every cluster of the site, deployed simultaneously. *)
  let rec gather acc release_all = function
    | [] -> Ok (List.rev acc, release_all)
    | spec :: rest -> (
      let filter = Printf.sprintf "cluster='%s'" spec.Testbed.Inventory.cluster in
      let request = Oar.Request.nodes ~filter (`N 1) ~walltime:2400.0 in
      match
        Oar.Manager.submit env.Env.oar ~user:"g5k-tests" ~jtype:Oar.Job.Deploy
          ~duration:2400.0 ~immediate:true request
      with
      | Error _ -> Error release_all
      | Ok job ->
        let nodes =
          List.filter_map (Testbed.Instance.find_node env.Env.instance)
            job.Oar.Job.assigned
        in
        Ci.Build.touch_hosts build (List.map (fun n -> n.Testbed.Node.host) nodes);
        let release () = Oar.Manager.cancel env.Env.oar job in
        gather (nodes @ acc) (fun () -> release (); release_all ()) rest)
  in
  match gather [] (fun () -> ()) clusters with
  | Error release_partial ->
    release_partial ();
    logf build "could not reserve one node on every cluster of %s" site;
    finish unstable
  | Ok (nodes, release_all) ->
    Kadeploy.Deploy.run env.Env.instance ~registry:env.Env.registry
      ~image:Kadeploy.Image.std_env.Kadeploy.Image.name ~nodes
      ~on_done:(fun result ->
        logf build "parallel deployment on %s: %d/%d ok" site
          (Kadeploy.Deploy.success_count result)
          (List.length nodes);
        let evidences =
          deploy_evidences env config Kadeploy.Image.std_env
            result.Kadeploy.Deploy.outcomes
        in
        release_all ();
        if evidences = [] then finish success else finish (failure evidences))

let whole_cluster_reserve env config ~build ~walltime ~unavailable k =
  reserve env ~filter:(Testdef.oar_filter config) ~count:`All ~walltime ~build
    ~unavailable k

let multideploy_script env config ~build ~finish =
  whole_cluster_reserve env config ~build ~walltime:5400.0
    ~unavailable:(fun () -> finish unstable)
    (fun nodes release ->
      let rec round i evidences =
        if i >= 2 then begin
          release ();
          if evidences = [] then finish success else finish (failure evidences)
        end
        else
          Kadeploy.Deploy.run env.Env.instance ~registry:env.Env.registry
            ~image:Kadeploy.Image.std_env.Kadeploy.Image.name ~nodes
            ~on_done:(fun result ->
              logf build "round %d: %d/%d deployed" (i + 1)
                (Kadeploy.Deploy.success_count result)
                (List.length nodes);
              let more =
                deploy_evidences env config Kadeploy.Image.std_env
                  result.Kadeploy.Deploy.outcomes
              in
              let survivors =
                List.filter
                  (fun n -> n.Testbed.Node.state <> Testbed.Node.Down)
                  nodes
              in
              ignore survivors;
              round (i + 1) (more @ evidences))
      in
      round 0 [])

let multireboot_script env config ~build ~finish =
  whole_cluster_reserve env config ~build ~walltime:3600.0
    ~unavailable:(fun () -> finish unstable)
    (fun nodes release ->
      let rec round i evidences =
        if i >= 2 then begin
          release ();
          if evidences = [] then finish success else finish (failure evidences)
        end
        else begin
          let pending = ref (List.length nodes) in
          let failures = ref [] in
          let started = Env.now env in
          if !pending = 0 then begin
            release ();
            finish unstable
          end
          else
            List.iter
              (fun node ->
                Testbed.Instance.reboot env.Env.instance node ~on_done:(fun ~ok ->
                    if not ok then
                      failures := node.Testbed.Node.host :: !failures;
                    decr pending;
                    if !pending = 0 then begin
                      let elapsed = Env.now env -. started in
                      logf build "round %d: %d/%d back after %.0f s" (i + 1)
                        (List.length nodes - List.length !failures)
                        (List.length nodes) elapsed;
                      let more =
                        List.map
                          (fun host ->
                            let fault_ids =
                              correlate env ~hosts:[ host ]
                                ~kinds:
                                  (Testbed.Faults.Random_reboots
                                   :: Testbed.Faults.Kernel_boot_race
                                   :: correlated_kinds)
                            in
                            evidence
                              ~signature:(Printf.sprintf "multireboot:%s" host)
                              ~summary:
                                (Printf.sprintf "%s lost during reboot storm" host)
                              ~category:"infrastructure" ~config ~fault_ids)
                          !failures
                      in
                      let slow = elapsed > 900.0 in
                      let more =
                        if slow then begin
                          let cluster = Option.get config.Testdef.cluster in
                          let fault_ids =
                            correlate env
                              ~hosts:(List.map (fun n -> n.Testbed.Node.host) nodes)
                              ~kinds:[ Testbed.Faults.Kernel_boot_race ]
                          in
                          evidence
                            ~signature:(Printf.sprintf "multireboot:%s:slow" cluster)
                            ~summary:
                              (Printf.sprintf "reboot of %s abnormally slow (%.0f s)"
                                 cluster elapsed)
                            ~category:"software" ~config ~fault_ids
                          :: more
                        end
                        else more
                      in
                      round (i + 1) (more @ evidences)
                    end))
              nodes
        end
      in
      round 0 [])

(* ---- service tests --------------------------------------------------------- *)

let console_script env config ~build ~finish =
  reserve env ~filter:(Testdef.oar_filter config) ~count:(`N 1) ~walltime:1200.0 ~build
    ~unavailable:(fun () -> finish unstable)
    (fun nodes release ->
      after env 120.0 (fun () ->
          match nodes with
          | [] ->
            release ();
            finish unstable
          | node :: _ ->
            let site = node.Testbed.Node.site_name in
            (* Real round-trip through the serial console: write a
               marker, read it back in the captured tail. *)
            let marker =
              Printf.sprintf "g5k-tests console check @%s" (Simkit.Calendar.to_string (Env.now env))
            in
            let echoed =
              Testbed.Console.roundtrip env.Env.instance.Testbed.Instance.console
                ~services:env.Env.instance.Testbed.Instance.services node ~marker
            in
            let node_ok = not node.Testbed.Node.behaviour.Testbed.Node.console_broken in
            logf build "console %s: echo=%b" node.Testbed.Node.host echoed;
            release ();
            if echoed then finish success
            else begin
              let fault_ids =
                correlate env ~hosts:[ node.Testbed.Node.host ]
                  ~kinds:[ Testbed.Faults.Console_broken ]
                @ correlate_service env ~site ~service_kinds:[ Testbed.Services.Console ]
              in
              finish
                (failure
                   [ evidence
                       ~signature:
                         (Printf.sprintf "console:%s"
                            (if node_ok then site else node.Testbed.Node.host))
                       ~summary:
                         (Printf.sprintf "serial console unusable (%s)"
                            node.Testbed.Node.host)
                       ~category:"services" ~config ~fault_ids ])
            end))

let kavlan_script env config ~build ~finish =
  let vlan_id = Option.get config.Testdef.vlan in
  match Kavlan.find_vlan vlan_id with
  | None -> finish (failure [])
  | Some vlan ->
    let site =
      match vlan.Kavlan.vlan_site with
      | Some site -> site
      | None -> List.hd Testbed.Inventory.sites
    in
    reserve env ~filter:(Printf.sprintf "site='%s'" site) ~count:(`N 2)
      ~walltime:1800.0 ~build
      ~unavailable:(fun () -> finish unstable)
      (fun nodes release ->
        match nodes with
        | ([] | [ _ ]) ->
          release ();
          finish unstable
        | (a :: b :: _ as pair) ->
          Kavlan.set_vlan env.Env.instance ~nodes:pair ~vlan
            ~on_done:(fun change ->
              match change with
              | Kavlan.Service_failed ->
                release ();
                let fault_ids =
                  correlate_service env ~site ~service_kinds:[ Testbed.Services.Kavlan ]
                in
                finish
                  (failure
                     [ evidence
                         ~signature:(Printf.sprintf "kavlan:%s:service" site)
                         ~summary:(Printf.sprintf "kavlan reconfiguration failed on %s" site)
                         ~category:"services" ~config ~fault_ids ])
              | Kavlan.Changed ->
                let together = Kavlan.reachable env.Env.instance a b in
                let isolated =
                  Kavlan.isolation_invariant env.Env.instance pair
                in
                logf build "vlan %d (%s): pair-reachable=%b isolation=%b" vlan_id
                  (Kavlan.flavour_to_string vlan.Kavlan.flavour)
                  together isolated;
                (* Put the nodes back in production before releasing. *)
                Kavlan.set_vlan env.Env.instance ~nodes:pair
                  ~vlan:Kavlan.default_vlan ~on_done:(fun _ ->
                    release ();
                    if together && isolated then finish success
                    else
                      finish
                        (failure
                           [ evidence
                               ~signature:(Printf.sprintf "kavlan:%d:connectivity" vlan_id)
                               ~summary:
                                 (Printf.sprintf "vlan %d connectivity broken" vlan_id)
                               ~category:"services" ~config ~fault_ids:[] ]))))

let kwapi_script env config ~build ~finish =
  let site = Option.get config.Testdef.site in
  reserve env ~filter:(Printf.sprintf "site='%s' and wattmeter='YES'" site)
    ~count:(`N 1) ~walltime:1200.0 ~build
    ~unavailable:(fun () -> finish unstable)
    (fun nodes release ->
      after env 90.0 (fun () ->
          match nodes with
          | [] ->
            release ();
            finish unstable
          | node :: _ ->
            let host = node.Testbed.Node.host in
            let hi = Env.now env in
            let lo = hi -. 60.0 in
            let series =
              Monitoring.Collector.sample_window env.Env.collector ~host
                Monitoring.Collector.Power_w ~lo ~hi
            in
            let freq = Monitoring.Collector.achieved_frequency_hz series ~lo ~hi in
            let mean = Simkit.Timeseries.mean_between series ~lo ~hi in
            let reference = node.Testbed.Node.reference in
            let idle_ref = Monitoring.Power.idle_of_hardware reference in
            let peak_ref = Monitoring.Power.peak_of_hardware reference in
            let envelope_lo = 0.92 *. idle_ref and envelope_hi = 1.08 *. peak_ref in
            logf build "%s: %.2f Hz, mean %.1f W (expected %.1f-%.1f W)" host freq
              mean envelope_lo envelope_hi;
            release ();
            let service_ok =
              Testbed.Services.use env.Env.instance.Testbed.Instance.services ~site
                Testbed.Services.Kwapi
            in
            if
              service_ok && freq >= 0.9 && (not (Float.is_nan mean))
              && mean >= envelope_lo && mean <= envelope_hi
            then finish success
            else begin
              let fault_ids =
                correlate env ~hosts:[ host ]
                  ~kinds:
                    [ Testbed.Faults.Kwapi_misattribution; Testbed.Faults.Cpu_cstates;
                      Testbed.Faults.Cpu_turbo ]
                @ correlate_service env ~site ~service_kinds:[ Testbed.Services.Kwapi ]
              in
              finish
                (failure
                   [ evidence
                       ~signature:(Printf.sprintf "kwapi:%s" host)
                       ~summary:
                         (Printf.sprintf
                            "power measurements of %s implausible (%.1f W)" host mean)
                       ~category:"cabling" ~config ~fault_ids ])
            end))

(* ---- hardware tests --------------------------------------------------------- *)

let mpigraph_script env config ~build ~finish =
  whole_cluster_reserve env config ~build ~walltime:3600.0
    ~unavailable:(fun () -> finish unstable)
    (fun nodes release ->
      after env (300.0 +. float_of_int (List.length nodes)) (fun () ->
          let cluster = Option.get config.Testdef.cluster in
          let cannot_start =
            List.filter (fun n -> not (Testbed.Node.ib_start_ok n)) nodes
          in
          logf build "mpigraph on %s: %d/%d nodes started IB apps" cluster
            (List.length nodes - List.length cannot_start)
            (List.length nodes);
          release ();
          if cannot_start = [] then finish success
          else begin
            let hosts = List.map (fun n -> n.Testbed.Node.host) cannot_start in
            let fault_ids =
              correlate env ~hosts ~kinds:[ Testbed.Faults.Ofed_flaky ]
            in
            finish
              (failure
                 [ evidence
                     ~signature:(Printf.sprintf "ofed:%s" cluster)
                     ~summary:
                       (Printf.sprintf
                          "OFED stack randomly fails to start applications on %s"
                          cluster)
                     ~category:"software" ~config ~fault_ids ])
          end))

let disk_script env config ~build ~finish =
  whole_cluster_reserve env config ~build ~walltime:3600.0
    ~unavailable:(fun () -> finish unstable)
    (fun nodes release ->
      after env (240.0 +. (2.0 *. float_of_int (List.length nodes))) (fun () ->
          let cluster = Option.get config.Testdef.cluster in
          let evidences = ref [] in
          let measurements =
            List.filter_map
              (fun node ->
                match node.Testbed.Node.actual.Testbed.Hardware.disks with
                | [] -> None
                | described :: _ ->
                  ignore described;
                  Some (node, Testbed.Node.disk_benchmark node))
              nodes
          in
          (* Raw measurements travel with the build, so operators can
             re-analyse without re-reserving the cluster. *)
          Ci.Build.attach_artifact build ~name:"disk_bandwidth.csv"
            ("host,measured_mb_s\n"
            ^ String.concat "\n"
                (List.map
                   (fun (node, measured) ->
                     Printf.sprintf "%s,%.1f" node.Testbed.Node.host measured)
                   measurements));
          List.iter
            (fun (node, measured) ->
              let described_disk =
                List.hd node.Testbed.Node.reference.Testbed.Hardware.disks
              in
              let expected = Testbed.Hardware.disk_bandwidth described_disk in
              let ratio = measured /. expected in
              if ratio < 0.80 then begin
                logf build "%s: %.0f MB/s (expected %.0f)" node.Testbed.Node.host
                  measured expected;
                let fault_ids =
                  correlate env ~hosts:[ node.Testbed.Node.host ]
                    ~kinds:
                      [ Testbed.Faults.Disk_firmware; Testbed.Faults.Disk_write_cache ]
                in
                evidences :=
                  evidence
                    ~signature:(Printf.sprintf "disk:%s" node.Testbed.Node.host)
                    ~summary:
                      (Printf.sprintf "%s disk at %.0f%% of expected bandwidth"
                         node.Testbed.Node.host (100.0 *. ratio))
                    ~category:"disk" ~config ~fault_ids
                  :: !evidences
              end)
            measurements;
          (* Homogeneity across the cluster. *)
          (match measurements with
           | [] | [ _ ] -> ()
           | _ ->
             let values = List.map snd measurements in
             let vmin = List.fold_left Float.min infinity values in
             let vmax = List.fold_left Float.max neg_infinity values in
             if vmax /. vmin > 1.30 then begin
               logf build "%s: disk bandwidth spread %.0f-%.0f MB/s" cluster vmin vmax;
               let hosts = List.map (fun (n, _) -> n.Testbed.Node.host) measurements in
               let fault_ids =
                 correlate env ~hosts
                   ~kinds:
                     [ Testbed.Faults.Disk_firmware; Testbed.Faults.Disk_write_cache ]
               in
               evidences :=
                 evidence
                   ~signature:(Printf.sprintf "disk:%s:heterogeneous" cluster)
                   ~summary:
                     (Printf.sprintf "heterogeneous disk performance across %s" cluster)
                   ~category:"disk" ~config ~fault_ids
                 :: !evidences
             end);
          release ();
          if !evidences = [] then finish success else finish (failure !evidences)))

(* ---- dispatch ---------------------------------------------------------------- *)

let run env config ~build ~finish =
  match config.Testdef.family with
  | Testdef.Refapi -> refapi_script env config ~build ~finish
  | Testdef.Oarproperties -> oarproperties_script env config ~build ~finish
  | Testdef.Dellbios -> dellbios_script env config ~build ~finish
  | Testdef.Oarstate -> oarstate_script env config ~build ~finish
  | Testdef.Cmdline -> cmdline_script env config ~build ~finish
  | Testdef.Sidapi -> sidapi_script env config ~build ~finish
  | Testdef.Environments -> environments_script env config ~build ~finish
  | Testdef.Stdenv -> stdenv_script env config ~build ~finish
  | Testdef.Paralleldeploy -> paralleldeploy_script env config ~build ~finish
  | Testdef.Multireboot -> multireboot_script env config ~build ~finish
  | Testdef.Multideploy -> multideploy_script env config ~build ~finish
  | Testdef.Console -> console_script env config ~build ~finish
  | Testdef.Kavlan -> kavlan_script env config ~build ~finish
  | Testdef.Kwapi -> kwapi_script env config ~build ~finish
  | Testdef.Mpigraph -> mpigraph_script env config ~build ~finish
  | Testdef.Disk -> disk_script env config ~build ~finish
