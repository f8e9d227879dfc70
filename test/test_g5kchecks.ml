(* Tests for the g5k-checks substitute: acquisition and conformity checks. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mk () = Testbed.Instance.build ~seed:2017L ()

let test_ohai_schema_matches_refapi () =
  let t = mk () in
  let node = Testbed.Instance.node t "grisou-1.nancy" in
  let acquired = G5kchecks.Ohai.acquire node in
  let described = Option.get (Testbed.Refapi.get t.Testbed.Instance.refapi node.Testbed.Node.host) in
  (* On a healthy node the two documents are structurally identical. *)
  checkb "healthy node matches description" true (Simkit.Json.equal acquired described)

let test_ohai_acquire_key () =
  let t = mk () in
  let node = Testbed.Instance.node t "grisou-1.nancy" in
  (match G5kchecks.Ohai.acquire_key node [ "hardware"; "memory"; "ram_gb" ] with
   | Some (Simkit.Json.Int ram) -> checki "ram read" 128 ram
   | _ -> Alcotest.fail "expected ram_gb");
  checkb "missing path" true (G5kchecks.Ohai.acquire_key node [ "nope" ] = None)

let test_check_healthy_node_conforms () =
  let t = mk () in
  let node = Testbed.Instance.node t "graphene-1.nancy" in
  let report = G5kchecks.Check.run t node in
  checkb "conforms" true (G5kchecks.Check.conforms report);
  checkb "no severity" true (G5kchecks.Check.worst_severity report = None)

let test_check_detects_cpu_drift () =
  let t = mk () in
  let faults = t.Testbed.Instance.faults in
  let host = "graphene-2.nancy" in
  ignore
    (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Cpu_cstates
       (Testbed.Faults.Host host));
  let report = G5kchecks.Check.run t (Testbed.Instance.node t host) in
  checkb "mismatch found" false (G5kchecks.Check.conforms report);
  checkb "classified perf-affecting" true
    (G5kchecks.Check.worst_severity report = Some G5kchecks.Check.Perf_affecting);
  checkb "path names the setting" true
    (List.exists
       (fun m ->
         let p = m.G5kchecks.Check.path in
         String.length p >= 8 && String.sub p 0 8 = "hardware")
       report.G5kchecks.Check.mismatches)

let test_check_detects_ram_loss () =
  let t = mk () in
  let faults = t.Testbed.Instance.faults in
  let host = "ecotype-2.nantes" in
  ignore
    (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Ram_dimm_loss
       (Testbed.Faults.Host host));
  let report = G5kchecks.Check.run t (Testbed.Instance.node t host) in
  checkb "capacity severity" true
    (G5kchecks.Check.worst_severity report = Some G5kchecks.Check.Capacity)

let test_check_detects_description_error () =
  let t = mk () in
  let host = "taurus-1.lyon" in
  let rng = Simkit.Prng.create 99L in
  ignore (Testbed.Refapi.corrupt t.Testbed.Instance.refapi ~rng ~host);
  let report = G5kchecks.Check.run t (Testbed.Instance.node t host) in
  checkb "description error detected" false (G5kchecks.Check.conforms report)

let test_check_detects_disk_faults () =
  let t = mk () in
  let faults = t.Testbed.Instance.faults in
  let host = "parasilo-2.rennes" in
  ignore
    (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Disk_write_cache
       (Testbed.Faults.Host host));
  let report = G5kchecks.Check.run t (Testbed.Instance.node t host) in
  checkb "write cache drift is perf-affecting" true
    (G5kchecks.Check.worst_severity report = Some G5kchecks.Check.Perf_affecting)

let test_check_missing_document () =
  let t = mk () in
  let node = Testbed.Instance.node t "grisou-1.nancy" in
  let orphan = { node with Testbed.Node.host = "ghost.nancy" } in
  let report = G5kchecks.Check.run t orphan in
  checkb "missing doc is a mismatch" false (G5kchecks.Check.conforms report)

let test_run_cluster_sweep () =
  let t = mk () in
  let faults = t.Testbed.Instance.faults in
  ignore
    (Testbed.Faults.inject_on faults ~now:0.0 Testbed.Faults.Bios_drift
       (Testbed.Faults.Host "graphene-7.nancy"));
  (* A Down node is skipped by the boot-time sweep. *)
  (Testbed.Instance.node t "graphene-9.nancy").Testbed.Node.state <- Testbed.Node.Down;
  let reports = G5kchecks.Check.run_cluster t "graphene" in
  checki "59 alive nodes checked" 59 (List.length reports);
  let non_conforming = List.filter (fun r -> not (G5kchecks.Check.conforms r)) reports in
  checki "exactly the drifted node" 1 (List.length non_conforming);
  Alcotest.(check string)
    "right host" "graphene-7.nancy"
    (List.hd non_conforming).G5kchecks.Check.host

let prop_detects_every_node_drift_kind =
  (* g5k-checks must catch every node-local hardware/description drift
     the fault engine can produce. *)
  let kinds =
    [| Testbed.Faults.Cpu_cstates; Testbed.Faults.Cpu_hyperthreading;
       Testbed.Faults.Cpu_turbo; Testbed.Faults.Cpu_governor;
       Testbed.Faults.Bios_drift; Testbed.Faults.Disk_firmware;
       Testbed.Faults.Disk_write_cache; Testbed.Faults.Ram_dimm_loss;
       Testbed.Faults.Refapi_desync |]
  in
  QCheck.Test.make ~name:"g5k-checks catches all drift kinds" ~count:50
    QCheck.(pair (int_bound (Array.length kinds - 1)) (int_bound 893))
    (fun (kind_idx, node_idx) ->
      let t = Testbed.Instance.build ~seed:4242L () in
      let node = t.Testbed.Instance.nodes.(node_idx) in
      let kind = kinds.(kind_idx) in
      match
        Testbed.Faults.inject_on t.Testbed.Instance.faults ~now:0.0 kind
          (Testbed.Faults.Host node.Testbed.Node.host)
      with
      | None -> QCheck.assume_fail ()  (* e.g. single-DIMM node for Ram_dimm_loss *)
      | Some _ -> not (G5kchecks.Check.conforms (G5kchecks.Check.run t node)))

(* The check without its [Refapi.described_from] shortcut: fetch the
   published document, acquire the node, diff the two. *)
let full_check t node =
  match Testbed.Refapi.get t.Testbed.Instance.refapi node.Testbed.Node.host with
  | None -> [ ("(document)", "-", "present") ]
  | Some doc ->
    let show = function None -> "-" | Some v -> Simkit.Json.to_string v in
    List.map
      (fun (path, described, observed) -> (path, show described, show observed))
      (Simkit.Json.diff doc (G5kchecks.Ohai.acquire node))

type refapi_op =
  | Drift of int * int  (* node, fault kind *)
  | Copy of int  (* a structurally equal but fresh [actual] record *)
  | Repair of int  (* the k-th active fault *)
  | Reset of int
  | Corrupt of int
  | Publish of int
  | Publish_all

let show_refapi_op = function
  | Drift (i, k) -> Printf.sprintf "drift n%d k%d" i k
  | Copy i -> Printf.sprintf "copy n%d" i
  | Repair k -> Printf.sprintf "repair #%d" k
  | Reset i -> Printf.sprintf "reset n%d" i
  | Corrupt i -> Printf.sprintf "corrupt n%d" i
  | Publish i -> Printf.sprintf "publish n%d" i
  | Publish_all -> "publish_all"

let prop_described_from_matches_full_check =
  let cluster = "grimoire" in
  let kinds =
    [| Testbed.Faults.Cpu_cstates; Testbed.Faults.Cpu_hyperthreading;
       Testbed.Faults.Cpu_turbo; Testbed.Faults.Cpu_governor;
       Testbed.Faults.Bios_drift; Testbed.Faults.Disk_firmware;
       Testbed.Faults.Disk_write_cache; Testbed.Faults.Ram_dimm_loss;
       Testbed.Faults.Refapi_desync |]
  in
  let n_nodes = 8 in
  let gen_op =
    QCheck.Gen.(
      let node = int_bound (n_nodes - 1) in
      frequency
        [ (4, map2 (fun i k -> Drift (i, k)) node (int_bound (Array.length kinds - 1)));
          (1, map (fun i -> Copy i) node);
          (2, map (fun k -> Repair k) (int_bound 7));
          (2, map (fun i -> Reset i) node);
          (3, map (fun i -> Corrupt i) node);
          (2, map (fun i -> Publish i) node);
          (1, return Publish_all) ])
  in
  let print ops = String.concat "; " (List.map show_refapi_op ops) in
  QCheck.Test.make ~name:"described_from check = full check" ~count:60
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 30) gen_op))
    (fun ops ->
      let t = Testbed.Instance.build ~seed:2017L () in
      let refapi = t.Testbed.Instance.refapi and faults = t.Testbed.Instance.faults in
      let nodes = Array.of_list (Testbed.Instance.nodes_of_cluster t cluster) in
      let rng = Simkit.Prng.create 7L in
      let active = ref [] in
      let apply = function
        | Drift (i, k) -> (
          match
            Testbed.Faults.inject_on faults ~now:0.0 kinds.(k)
              (Testbed.Faults.Host nodes.(i).Testbed.Node.host)
          with
          | Some fault -> active := fault :: !active
          | None -> ())
        | Copy i ->
          let node = nodes.(i) in
          node.Testbed.Node.actual <-
            { node.Testbed.Node.actual with
              Testbed.Hardware.bios = node.Testbed.Node.actual.Testbed.Hardware.bios }
        | Repair k -> (
          match !active with
          | [] -> ()
          | faults_left ->
            let fault = List.nth faults_left (k mod List.length faults_left) in
            Testbed.Faults.repair faults ~now:0.0 fault;
            active := List.filter (fun f -> f != fault) faults_left)
        | Reset i -> Testbed.Node.reset_to_reference nodes.(i)
        | Corrupt i ->
          ignore (Testbed.Refapi.corrupt refapi ~rng ~host:nodes.(i).Testbed.Node.host)
        | Publish i -> Testbed.Refapi.publish_node refapi nodes.(i)
        | Publish_all -> Testbed.Refapi.publish_all refapi ~now:0.0 (Array.to_list nodes)
      in
      List.for_all
        (fun op ->
          apply op;
          Array.for_all
            (fun node ->
              let host = node.Testbed.Node.host in
              let report = G5kchecks.Check.run t node in
              List.map
                (fun m -> G5kchecks.Check.(m.path, m.described, m.observed))
                report.G5kchecks.Check.mismatches
              = full_check t node
              && ((not (Testbed.Refapi.described_from refapi host node.Testbed.Node.actual))
                 || Simkit.Json.equal
                      (Option.get (Testbed.Refapi.get refapi host))
                      (G5kchecks.Ohai.acquire node)))
            nodes)
        ops)

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "g5kchecks"
    [
      ( "ohai",
        [ Alcotest.test_case "schema matches refapi" `Quick test_ohai_schema_matches_refapi;
          Alcotest.test_case "acquire key" `Quick test_ohai_acquire_key ] );
      ( "check",
        [ Alcotest.test_case "healthy conforms" `Quick test_check_healthy_node_conforms;
          Alcotest.test_case "cpu drift" `Quick test_check_detects_cpu_drift;
          Alcotest.test_case "ram loss" `Quick test_check_detects_ram_loss;
          Alcotest.test_case "description error" `Quick
            test_check_detects_description_error;
          Alcotest.test_case "disk faults" `Quick test_check_detects_disk_faults;
          Alcotest.test_case "missing document" `Quick test_check_missing_document;
          Alcotest.test_case "cluster sweep" `Quick test_run_cluster_sweep;
          qc prop_detects_every_node_drift_kind;
          qc prop_described_from_matches_full_check ] );
    ]
