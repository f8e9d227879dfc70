(* Tests for the serial console substrate. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mk () = Testbed.Instance.build ~seed:909L ()

let test_boot_banner_captured () =
  let t = mk () in
  (* The initial boot of every node leaves a banner. *)
  let tail = Testbed.Console.tail t.Testbed.Instance.console ~host:"grisou-1.nancy" 10 in
  checkb "non-empty" true (tail <> []);
  checkb "login prompt last" true
    (match List.rev tail with
     | last :: _ ->
       let needle = "login:" in
       let n = String.length needle and m = String.length last in
       let rec scan i = i + n <= m && (String.sub last i n = needle || scan (i + 1)) in
       scan 0
     | [] -> false)

let test_reboot_appends_banner () =
  let t = mk () in
  let node = Testbed.Instance.node t "grisou-1.nancy" in
  let before =
    List.length (Testbed.Console.tail t.Testbed.Instance.console ~host:node.Testbed.Node.host 200)
  in
  Testbed.Instance.reboot t node ~on_done:(fun ~ok:_ -> ());
  Simkit.Engine.run_until t.Testbed.Instance.engine 3600.0;
  let after =
    List.length (Testbed.Console.tail t.Testbed.Instance.console ~host:node.Testbed.Node.host 200)
  in
  checkb "banner grew" true (after > before)

let test_roundtrip_healthy () =
  let t = mk () in
  let node = Testbed.Instance.node t "grisou-2.nancy" in
  checkb "echo works" true
    (Testbed.Console.roundtrip t.Testbed.Instance.console
       ~services:t.Testbed.Instance.services node ~marker:"hello-console")

let test_roundtrip_broken_console () =
  let t = mk () in
  let node = Testbed.Instance.node t "grisou-3.nancy" in
  node.Testbed.Node.behaviour.Testbed.Node.console_broken <- true;
  checkb "dead line" false
    (Testbed.Console.roundtrip t.Testbed.Instance.console
       ~services:t.Testbed.Instance.services node ~marker:"x")

let test_roundtrip_service_down () =
  let t = mk () in
  Testbed.Services.set_state t.Testbed.Instance.services ~site:"nancy"
    Testbed.Services.Console Testbed.Services.Down;
  let node = Testbed.Instance.node t "grisou-4.nancy" in
  checkb "service outage" false
    (Testbed.Console.roundtrip t.Testbed.Instance.console
       ~services:t.Testbed.Instance.services node ~marker:"x")

let test_roundtrip_down_node () =
  let t = mk () in
  let node = Testbed.Instance.node t "grisou-5.nancy" in
  node.Testbed.Node.state <- Testbed.Node.Down;
  checkb "down node silent" false
    (Testbed.Console.roundtrip t.Testbed.Instance.console
       ~services:t.Testbed.Instance.services node ~marker:"x")

let test_ring_capped () =
  let t = mk () in
  for i = 1 to 500 do
    Testbed.Console.log_line t.Testbed.Instance.console ~host:"grisou-6.nancy"
      (string_of_int i)
  done;
  checki "capped at 200" 200
    (List.length (Testbed.Console.tail t.Testbed.Instance.console ~host:"grisou-6.nancy" 1000))

let test_unknown_host_empty () =
  let t = mk () in
  checki "unknown host" 0
    (List.length (Testbed.Console.tail t.Testbed.Instance.console ~host:"ghost.nowhere" 10))

(* The console before the ring: a newest-first list per host, cut back to
   200 lines after each append. *)
let list_console_tail lines ~host n =
  let ring =
    List.fold_left
      (fun ring (h, line) ->
        if String.equal h host then
          let ring = line :: ring in
          if List.length ring > 200 then List.filteri (fun i _ -> i < 200) ring else ring
        else ring)
      [] lines
  in
  List.rev (List.filteri (fun i _ -> i < n) ring)

let prop_ring_matches_list =
  let hosts = [ "a"; "b"; "c" ] in
  QCheck.Test.make ~name:"ring tail = capped-list tail" ~count:200
    QCheck.(list_of_size Gen.(int_bound 700) (pair (int_bound 2) small_nat))
    (fun writes ->
      let lines = List.map (fun (h, i) -> (List.nth hosts h, string_of_int i)) writes in
      let console = Testbed.Console.create () in
      List.iter (fun (host, line) -> Testbed.Console.log_line console ~host line) lines;
      List.for_all
        (fun host ->
          List.for_all
            (fun n -> Testbed.Console.tail console ~host n = list_console_tail lines ~host n)
            [ 0; 1; 199; 200; 250 ])
        ("unknown" :: hosts))

(* [Console.log_boot] before it kept each host's last banner: three
   lines formatted afresh on every boot. *)
let fresh_banner node =
  let hw = node.Testbed.Node.actual in
  [ Printf.sprintf "[    0.000000] Linux version (%s)" node.Testbed.Node.deployed_env;
    Printf.sprintf "[    2.345678] %s: %d cores, %d MB" hw.Testbed.Hardware.cpu.Testbed.Hardware.cpu_model
      (Testbed.Hardware.total_cores hw)
      (hw.Testbed.Hardware.memory.Testbed.Hardware.ram_gb * 1024);
    node.Testbed.Node.host ^ " login:" ]

type boot_op =
  | Boot of int
  | Deploy of int * int  (* node, image *)
  | Shrink_ram of int  (* a hardware fault: a new record, a new banner *)
  | Copy_hw of int  (* a new record with the same contents *)
  | Reset of int  (* operator repair: back to the reference record *)
  | Line of int

let show_boot_op = function
  | Boot n -> Printf.sprintf "boot %d" n
  | Deploy (n, i) -> Printf.sprintf "deploy %d image %d" n i
  | Shrink_ram n -> Printf.sprintf "shrink_ram %d" n
  | Copy_hw n -> Printf.sprintf "copy_hw %d" n
  | Reset n -> Printf.sprintf "reset %d" n
  | Line n -> Printf.sprintf "line %d" n

let prop_boot_banners_match_fresh =
  let images = [| "std"; "debian8-x64-min"; "centos7-x64-min" |] in
  let gen_op =
    QCheck.Gen.(
      let node = int_bound 1 in
      frequency
        [ (6, map (fun n -> Boot n) node);
          (2, map2 (fun n i -> Deploy (n, i)) node (int_bound (Array.length images - 1)));
          (1, map (fun n -> Shrink_ram n) node);
          (1, map (fun n -> Copy_hw n) node);
          (1, map (fun n -> Reset n) node);
          (1, map (fun n -> Line n) node) ])
  in
  QCheck.Test.make ~name:"boot banners = freshly formatted ones" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_boot_op ops))
       QCheck.Gen.(list_size (int_range 1 120) gen_op))
    (fun ops ->
      let reboot_set = Testbed.Node.create_reboot_set () in
      let nodes =
        Array.map
          (fun (cluster, index) ->
            let spec = Option.get (Testbed.Inventory.find_cluster cluster) in
            Testbed.Node.make ~rng:(Simkit.Prng.create 7L) ~reboot_set
              ~site:spec.Testbed.Inventory.site ~cluster ~index
              (Testbed.Inventory.node_hardware spec))
          [| ("grisou", 5); ("graphene", 3) |]
      in
      let console = Testbed.Console.create () in
      let written = ref [] in
      List.iteri
        (fun i op ->
          match op with
          | Boot n ->
            let node = nodes.(n) in
            Testbed.Console.log_boot console node;
            written :=
              List.rev_append
                (List.map (fun line -> (node.Testbed.Node.host, line)) (fresh_banner node))
                !written
          | Deploy (n, image) -> nodes.(n).Testbed.Node.deployed_env <- images.(image)
          | Shrink_ram n ->
            let hw = nodes.(n).Testbed.Node.actual in
            let memory = hw.Testbed.Hardware.memory in
            nodes.(n).Testbed.Node.actual <-
              { hw with
                Testbed.Hardware.memory =
                  { memory with Testbed.Hardware.ram_gb = max 1 (memory.Testbed.Hardware.ram_gb / 2) } }
          | Copy_hw n ->
            let hw = nodes.(n).Testbed.Node.actual in
            nodes.(n).Testbed.Node.actual <- { hw with Testbed.Hardware.gpu = hw.Testbed.Hardware.gpu }
          | Reset n -> Testbed.Node.reset_to_reference nodes.(n)
          | Line n ->
            let host = nodes.(n).Testbed.Node.host and line = Printf.sprintf "marker %d" i in
            Testbed.Console.log_line console ~host line;
            written := (host, line) :: !written)
        ops;
      let lines = List.rev !written in
      Array.for_all
        (fun node ->
          let host = node.Testbed.Node.host in
          Testbed.Console.tail console ~host 200 = list_console_tail lines ~host 200)
        nodes)

let () =
  Alcotest.run "console"
    [
      ( "console",
        [ Alcotest.test_case "boot banner" `Quick test_boot_banner_captured;
          Alcotest.test_case "reboot appends" `Quick test_reboot_appends_banner;
          Alcotest.test_case "roundtrip healthy" `Quick test_roundtrip_healthy;
          Alcotest.test_case "broken console" `Quick test_roundtrip_broken_console;
          Alcotest.test_case "service down" `Quick test_roundtrip_service_down;
          Alcotest.test_case "down node" `Quick test_roundtrip_down_node;
          Alcotest.test_case "ring capped" `Quick test_ring_capped;
          Alcotest.test_case "unknown host" `Quick test_unknown_host_empty;
          Qc.to_alcotest prop_ring_matches_list;
          Qc.to_alcotest prop_boot_banners_match_fresh ] );
    ]
