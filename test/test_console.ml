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
          Qc.to_alcotest prop_ring_matches_list ] );
    ]
