(* Tests for the OAR substitute: expressions, requests, Gantt, properties,
   scheduling, workload. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

let mk () =
  let instance = Testbed.Instance.build ~seed:99L () in
  (instance, Oar.Manager.create instance)

(* ---- Expr ------------------------------------------------------------------ *)

let props_of alist key = List.assoc_opt key alist

let test_expr_paper_example () =
  (* The filter part of the paper's oarsub example. *)
  let expr = Oar.Expr.parse_exn "cluster='a' and gpu='YES'" in
  checkb "matching node" true
    (Oar.Expr.eval expr ~props:(props_of [ ("cluster", "a"); ("gpu", "YES") ]));
  checkb "wrong gpu" false
    (Oar.Expr.eval expr ~props:(props_of [ ("cluster", "a"); ("gpu", "NO") ]));
  checkb "wrong cluster" false
    (Oar.Expr.eval expr ~props:(props_of [ ("cluster", "b"); ("gpu", "YES") ]))

let test_expr_precedence () =
  (* or binds looser than and. *)
  let expr = Oar.Expr.parse_exn "a='1' or b='1' and c='1'" in
  checkb "a alone satisfies" true (Oar.Expr.eval expr ~props:(props_of [ ("a", "1") ]));
  checkb "b alone does not" false (Oar.Expr.eval expr ~props:(props_of [ ("b", "1") ]))

let test_expr_not_and_parens () =
  let expr = Oar.Expr.parse_exn "not (cluster='a' or cluster='b')" in
  checkb "c passes" true (Oar.Expr.eval expr ~props:(props_of [ ("cluster", "c") ]));
  checkb "a fails" false (Oar.Expr.eval expr ~props:(props_of [ ("cluster", "a") ]))

let test_expr_numeric_comparisons () =
  let expr = Oar.Expr.parse_exn "cores>=8 and cores<=16" in
  checkb "8 ok" true (Oar.Expr.eval expr ~props:(props_of [ ("cores", "8") ]));
  checkb "16 ok" true (Oar.Expr.eval expr ~props:(props_of [ ("cores", "16") ]));
  checkb "4 rejected" false (Oar.Expr.eval expr ~props:(props_of [ ("cores", "4") ]))

let test_expr_missing_property () =
  let eq = Oar.Expr.parse_exn "gpu='YES'" in
  let neq = Oar.Expr.parse_exn "gpu!='YES'" in
  checkb "missing property fails =" false (Oar.Expr.eval eq ~props:(props_of []));
  checkb "missing property passes !=" true (Oar.Expr.eval neq ~props:(props_of []))

let test_expr_empty_is_true () =
  checkb "empty filter" true (Oar.Expr.parse_exn "" = Oar.Expr.True);
  checkb "blank filter" true (Oar.Expr.parse_exn "   " = Oar.Expr.True)

let test_expr_errors () =
  List.iter
    (fun bad ->
      match Oar.Expr.parse bad with
      | Ok _ -> Alcotest.failf "should not parse: %s" bad
      | Error _ -> ())
    [ "cluster="; "cluster='unterminated"; "(a='1'"; "= 'x'"; "a='1' and" ]

let test_expr_properties_used () =
  let expr = Oar.Expr.parse_exn "cluster='a' and (gpu='YES' or cluster='b')" in
  Alcotest.(check (list string))
    "used properties" [ "cluster"; "gpu" ] (Oar.Expr.properties_used expr)

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expr to_string reparses equivalently" ~count:200
    (QCheck.make
       (QCheck.Gen.map2
          (fun ks vs ->
            List.map2
              (fun k v -> Printf.sprintf "%s='%c'" k v)
              [ "cluster"; "site"; "gpu" ]
              [ ks; vs; 'x' ])
          (QCheck.Gen.char_range 'a' 'z')
          (QCheck.Gen.char_range 'a' 'z')))
    (fun atoms ->
      let source = String.concat " and " atoms in
      let e1 = Oar.Expr.parse_exn source in
      let e2 = Oar.Expr.parse_exn (Oar.Expr.to_string e1) in
      let props = props_of [ ("cluster", "m"); ("site", "m"); ("gpu", "x") ] in
      Oar.Expr.eval e1 ~props = Oar.Expr.eval e2 ~props)

(* ---- mixed-type comparison semantics ---------------------------------------- *)

let test_expr_quoted_numeric_literal () =
  (* Both sides parse as integers, so the ordering is numeric even when
     the literal is quoted: before the fix, '10' > '9' was decided
     lexicographically and came out false. *)
  let expr = Oar.Expr.parse_exn "cores>'9'" in
  checkb "128 > '9' numerically" true
    (Oar.Expr.eval expr ~props:(props_of [ ("cores", "128") ]));
  checkb "10 > '9' numerically" true
    (Oar.Expr.eval expr ~props:(props_of [ ("cores", "10") ]));
  checkb "9 is not > '9'" false
    (Oar.Expr.eval expr ~props:(props_of [ ("cores", "9") ]));
  (* A non-integer actual still falls back to string order. *)
  checkb "'64G' > '9' lexicographically is false" false
    (Oar.Expr.holds Oar.Expr.Gt "64G" (Oar.Expr.S "9"))

let prop_holds_numeric_agreement =
  QCheck.Test.make ~name:"orderings on two integers are numeric, quoted or not"
    ~count:300
    QCheck.(triple (int_range 0 999) (int_range 0 999) (int_bound 3))
    (fun (a, b, opi) ->
      let op, expect =
        match opi with
        | 0 -> (Oar.Expr.Ge, a >= b)
        | 1 -> (Oar.Expr.Le, a <= b)
        | 2 -> (Oar.Expr.Gt, a > b)
        | _ -> (Oar.Expr.Lt, a < b)
      in
      let actual = string_of_int a in
      Oar.Expr.holds op actual (Oar.Expr.I b) = expect
      && Oar.Expr.holds op actual (Oar.Expr.S (string_of_int b)) = expect)

(* ---- normalize --------------------------------------------------------------- *)

let test_normalize_verdicts () =
  let n s = Oar.Expr.normalize (Oar.Expr.parse_exn s) in
  checkb "equality pinning proves contradiction" true
    (n "site='nancy' and site='lyon'" = Oar.Expr.False);
  checkb "empty integer interval proves contradiction" true
    (n "cores>16 and cores<10" = Oar.Expr.False);
  checkb "structural complement proves contradiction" true
    (n "gpu='YES' and not gpu='YES'" = Oar.Expr.False);
  checkb "eq/neq complement proves tautology" true
    (n "gpu='YES' or gpu!='YES'" = Oar.Expr.True);
  checkb "satisfiable conjunction survives" true
    (n "cluster='a' and gpu='YES'" <> Oar.Expr.False)

let gen_expr =
  let open QCheck.Gen in
  let prop = oneofl [ "cluster"; "site"; "cores"; "cpufreq"; "gpu"; "memnode" ] in
  let value =
    oneof
      [ map (fun i -> Oar.Expr.I i) (int_range 0 20);
        map
          (fun s -> Oar.Expr.S s)
          (oneofl [ "a"; "b"; "YES"; "NO"; "2.27"; "64G"; "7"; "12" ]) ]
  in
  let op =
    oneofl [ Oar.Expr.Eq; Oar.Expr.Neq; Oar.Expr.Ge; Oar.Expr.Le; Oar.Expr.Gt; Oar.Expr.Lt ]
  in
  let cmp = map3 (fun p o v -> Oar.Expr.Cmp (p, o, v)) prop op value in
  let leaf =
    frequency
      [ (6, cmp); (1, return Oar.Expr.True); (1, return Oar.Expr.False) ]
  in
  sized_size (int_bound 5)
    (fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [ (3, cmp);
               (2, map2 (fun a b -> Oar.Expr.And (a, b)) (self (n - 1)) (self (n - 1)));
               (2, map2 (fun a b -> Oar.Expr.Or (a, b)) (self (n - 1)) (self (n - 1)));
               (1, map (fun a -> Oar.Expr.Not a) (self (n - 1))) ]))

let gen_assignment =
  let open QCheck.Gen in
  let v = oneofl [ "a"; "b"; "YES"; "NO"; "2.27"; "64G"; "7"; "12"; "16" ] in
  let bind p = map (fun (present, v) -> if present then Some (p, v) else None) (pair bool v) in
  map
    (fun cells -> List.filter_map Fun.id cells)
    (flatten_l
       (List.map bind [ "cluster"; "site"; "cores"; "cpufreq"; "gpu"; "memnode" ]))

let arb_expr_and_assignment =
  QCheck.make
    ~print:(fun (e, assignment) ->
      Printf.sprintf "%s under [%s]"
        (Oar.Expr.to_string e)
        (String.concat "; "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) assignment)))
    QCheck.Gen.(pair gen_expr gen_assignment)

let prop_normalize_preserves_eval =
  QCheck.Test.make ~name:"normalize preserves eval on every assignment"
    ~count:1000 arb_expr_and_assignment
    (fun (e, assignment) ->
      let props = props_of assignment in
      Oar.Expr.eval (Oar.Expr.normalize e) ~props = Oar.Expr.eval e ~props)

let arb_expr = QCheck.make ~print:Oar.Expr.to_string gen_expr

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize is idempotent" ~count:500 arb_expr
    (fun e ->
      let n = Oar.Expr.normalize e in
      Oar.Expr.equal (Oar.Expr.normalize n) n)

let prop_normalize_roundtrip =
  QCheck.Test.make ~name:"parse (to_string (normalize e)) = normalize e"
    ~count:500 arb_expr
    (fun e ->
      let n = Oar.Expr.normalize e in
      Oar.Expr.equal (Oar.Expr.parse_exn (Oar.Expr.to_string n)) n)

(* ---- Request ---------------------------------------------------------------- *)

let test_request_paper_example () =
  let r =
    Oar.Request.parse_exn
      "cluster='a' and gpu='YES'/nodes=1+cluster='b' and eth10g='Y'/nodes=2,walltime=2"
  in
  checki "two groups" 2 (List.length r.Oar.Request.groups);
  checkf "walltime 2h" 7200.0 r.Oar.Request.walltime;
  (match r.Oar.Request.groups with
   | [ g1; g2 ] ->
     checkb "group 1 count" true (g1.Oar.Request.count = `N 1);
     checkb "group 2 count" true (g2.Oar.Request.count = `N 2)
   | _ -> Alcotest.fail "bad group structure")

let test_request_nodes_all () =
  let r = Oar.Request.parse_exn "cluster='graphene'/nodes=ALL,walltime=1:30" in
  checkf "walltime h:mm" 5400.0 r.Oar.Request.walltime;
  (match r.Oar.Request.groups with
   | [ g ] -> checkb "ALL" true (g.Oar.Request.count = `All)
   | _ -> Alcotest.fail "one group expected")

let test_request_bare_nodes () =
  let r = Oar.Request.parse_exn "nodes=3" in
  (match r.Oar.Request.groups with
   | [ g ] ->
     checkb "no filter" true (g.Oar.Request.filter = Oar.Expr.True);
     checkb "count 3" true (g.Oar.Request.count = `N 3)
   | _ -> Alcotest.fail "one group");
  checkf "default walltime 1h" 3600.0 r.Oar.Request.walltime

let test_request_errors () =
  List.iter
    (fun bad ->
      match Oar.Request.parse bad with
      | Ok _ -> Alcotest.failf "should not parse: %s" bad
      | Error _ -> ())
    [ "nodes=0"; "nodes=-1"; "cluster='a'/cores=2"; "nodes=2,walltime=x" ]

let test_request_to_string_roundtrip () =
  let source = "cluster='a'/nodes=2+site='lyon'/nodes=1,walltime=3" in
  let r1 = Oar.Request.parse_exn source in
  let r2 = Oar.Request.parse_exn (Oar.Request.to_string r1) in
  checki "same groups" (List.length r1.Oar.Request.groups)
    (List.length r2.Oar.Request.groups);
  checkf "same walltime" r1.Oar.Request.walltime r2.Oar.Request.walltime

(* ---- Gantt ------------------------------------------------------------------- *)

let test_gantt_reserve_conflict () =
  let g = Oar.Gantt.create () in
  Oar.Gantt.reserve g ~host:"h" ~start:0.0 ~stop:10.0 ~job:1;
  checkb "overlap rejected" true
    (try
       Oar.Gantt.reserve g ~host:"h" ~start:5.0 ~stop:15.0 ~job:2;
       false
     with Invalid_argument _ -> true);
  (* Touching intervals are fine. *)
  Oar.Gantt.reserve g ~host:"h" ~start:10.0 ~stop:20.0 ~job:2;
  checki "two reservations" 2 (List.length (Oar.Gantt.reservations g ~host:"h"))

let test_gantt_next_free_window () =
  let g = Oar.Gantt.create () in
  Oar.Gantt.reserve g ~host:"h" ~start:10.0 ~stop:20.0 ~job:1;
  Oar.Gantt.reserve g ~host:"h" ~start:25.0 ~stop:30.0 ~job:2;
  checkf "before first" 0.0 (Oar.Gantt.next_free_window g ~host:"h" ~after:0.0 ~duration:10.0);
  checkf "gap too small, jump after second" 30.0
    (Oar.Gantt.next_free_window g ~host:"h" ~after:10.0 ~duration:8.0);
  checkf "fits in gap" 20.0
    (Oar.Gantt.next_free_window g ~host:"h" ~after:10.0 ~duration:5.0)

let test_gantt_release_and_truncate () =
  let g = Oar.Gantt.create () in
  Oar.Gantt.reserve g ~host:"h" ~start:0.0 ~stop:100.0 ~job:1;
  Oar.Gantt.truncate g ~host:"h" ~job:1 ~stop:50.0;
  checkb "free after truncation" true (Oar.Gantt.is_free g ~host:"h" ~start:50.0 ~stop:100.0);
  Oar.Gantt.release g ~host:"h" ~job:1;
  checkb "free after release" true (Oar.Gantt.is_free g ~host:"h" ~start:0.0 ~stop:100.0)

let test_gantt_utilisation () =
  let g = Oar.Gantt.create () in
  Oar.Gantt.reserve g ~host:"h" ~start:0.0 ~stop:50.0 ~job:1;
  checkf "half used" 0.5 (Oar.Gantt.utilisation g ~host:"h" ~lo:0.0 ~hi:100.0)

let prop_gantt_no_overlap =
  QCheck.Test.make ~name:"gantt reservations never overlap" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (pair (float_bound_exclusive 100.0) (float_bound_exclusive 20.0)))
    (fun intervals ->
      let g = Oar.Gantt.create () in
      List.iteri
        (fun i (start, len) ->
          let stop = start +. len +. 0.1 in
          try Oar.Gantt.reserve g ~host:"h" ~start ~stop ~job:i
          with Invalid_argument _ -> ())
        intervals;
      let sorted = Oar.Gantt.reservations g ~host:"h" in
      let rec no_overlap = function
        | (_, stop1, _) :: ((start2, _, _) :: _ as rest) ->
          stop1 <= start2 && no_overlap rest
        | _ -> true
      in
      no_overlap sorted)

(* The Gantt before its insert and prune stopped sorting and filtering:
   per host, [(start, stop, job)] kept sorted by [List.sort] on every
   reservation, and pruned by [List.filter] over the whole list. *)
type gantt_op =
  | Reserve of int * int * int * int  (* host, start, length, job *)
  | Truncate of int * int * int  (* host, job, stop *)
  | Release of int * int  (* host, job *)
  | Release_job of int
  | Prune of int  (* before *)

let show_gantt_op = function
  | Reserve (h, s, l, j) -> Printf.sprintf "reserve h%d [%d,+%d) j%d" h s l j
  | Truncate (h, j, s) -> Printf.sprintf "truncate h%d j%d at %d" h j s
  | Release (h, j) -> Printf.sprintf "release h%d j%d" h j
  | Release_job j -> Printf.sprintf "release_job j%d" j
  | Prune b -> Printf.sprintf "prune before %d" b

let gen_gantt_op ~hosts ~jobs =
  QCheck.Gen.(
    frequency
      [ (6, map (fun (h, s, l, j) -> Reserve (h, s, l, j))
              (quad (int_bound (hosts - 1)) (int_bound 100) (int_range 1 20)
                 (int_range 1 jobs)));
        (2, map3 (fun h j s -> Truncate (h, j, s)) (int_bound (hosts - 1))
              (int_range 1 jobs) (int_bound 120));
        (1, map2 (fun h j -> Release (h, j)) (int_bound (hosts - 1)) (int_range 1 jobs));
        (1, map (fun j -> Release_job j) (int_range 1 jobs));
        (2, map (fun b -> Prune b) (int_bound 120)) ])

(* The first operations use 4 hosts; after a prune, 12, so slots are
   also registered after a prune and past the Gantt's first slot array. *)
let prop_gantt_matches_list_model =
  let hosts = 12 and jobs = 5 in
  let print ops = String.concat "; " (List.map show_gantt_op ops) in
  QCheck.Test.make ~name:"gantt matches the sort-and-filter list model" ~count:300
    (QCheck.make ~print
       QCheck.Gen.(
         list_size (int_range 0 30) (gen_gantt_op ~hosts:4 ~jobs) >>= fun before ->
         int_bound 120 >>= fun prune ->
         list_size (int_range 1 60) (gen_gantt_op ~hosts ~jobs) >|= fun after ->
         before @ (Prune prune :: after)))
    (fun ops ->
      let g = Oar.Gantt.create () in
      let model = Array.make hosts [] in
      let host h = Printf.sprintf "h%d" h in
      let apply = function
        | Reserve (h, start, length, job) ->
          let start = float_of_int start and stop = float_of_int (start + length) in
          if List.for_all (fun (s, e, _) -> e <= start || stop <= s) model.(h) then begin
            Oar.Gantt.reserve g ~host:(host h) ~start ~stop ~job;
            model.(h) <-
              List.sort
                (fun (a, _, _) (b, _, _) -> compare a b)
                ((start, stop, job) :: model.(h))
          end
        | Truncate (h, job, stop) ->
          let stop = float_of_int stop in
          Oar.Gantt.truncate g ~host:(host h) ~job ~stop;
          model.(h) <-
            List.filter_map
              (fun ((s, e, j) as i) ->
                if j <> job then Some i else if stop <= s then None
                else Some (s, Float.min e stop, j))
              model.(h)
        | Release (h, job) ->
          Oar.Gantt.release g ~host:(host h) ~job;
          model.(h) <- List.filter (fun (_, _, j) -> j <> job) model.(h)
        | Release_job job ->
          Oar.Gantt.release_job g ~job;
          Array.iteri
            (fun h l -> model.(h) <- List.filter (fun (_, _, j) -> j <> job) l)
            model
        | Prune before ->
          let before = float_of_int before in
          Oar.Gantt.prune g ~before;
          Array.iteri
            (fun h l -> model.(h) <- List.filter (fun (_, e, _) -> e >= before) l)
            model
      in
      List.for_all
        (fun op ->
          apply op;
          List.for_all
            (fun h -> Oar.Gantt.reservations g ~host:(host h) = model.(h))
            (List.init hosts Fun.id))
        ops)

(* Slots taken before any reservation, with reservations made through
   them or through host names, must agree with the host-keyed queries
   after every operation. *)
let slot_window slot ~after ~duration =
  let w = Float.Array.create 1 in
  Oar.Gantt.slot_next_free_window_into w 0 slot ~after ~duration;
  Float.Array.get w 0

let prop_gantt_slots_match_hosts =
  let hosts = 3 and jobs = 5 in
  let print (through_slots, ops) =
    Printf.sprintf "%s: %s"
      (if through_slots then "even-length reservations through slots" else "host names")
      (String.concat "; " (List.map show_gantt_op ops))
  in
  QCheck.Test.make ~name:"gantt slots agree with host-keyed queries" ~count:300
    (QCheck.make ~print
       QCheck.Gen.(pair bool (list_size (int_range 1 60) (gen_gantt_op ~hosts ~jobs))))
    (fun (through_slots, ops) ->
      let g = Oar.Gantt.create () in
      let host h = Printf.sprintf "h%d" h in
      let slots = Array.init hosts (fun h -> Oar.Gantt.slot g (host h)) in
      let agree () =
        List.for_all
          (fun h ->
            let slot = slots.(h) and host = host h in
            Oar.Gantt.slot g host == slot
            && List.for_all
                 (fun start ->
                   let start = float_of_int start in
                   List.for_all
                     (fun length ->
                       let stop = start +. length in
                       Oar.Gantt.slot_is_free slot ~start ~stop
                       = Oar.Gantt.is_free g ~host ~start ~stop
                       && slot_window slot ~after:start ~duration:length
                          = Oar.Gantt.next_free_window g ~host ~after:start ~duration:length)
                     [ 1.0; 7.0; 30.0; Float.infinity ])
                 (List.init 27 (fun i -> 5 * i)))
          (List.init hosts Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
           | Reserve (h, start, length, job) -> (
             let start = float_of_int start and stop = float_of_int (start + length) in
             try
               if through_slots && length mod 2 = 0 then
                 Oar.Gantt.reserve_slot g slots.(h) ~start ~stop ~job
               else Oar.Gantt.reserve g ~host:(host h) ~start ~stop ~job
             with Invalid_argument _ -> ())
           | Truncate (h, job, stop) ->
             Oar.Gantt.truncate g ~host:(host h) ~job ~stop:(float_of_int stop)
           | Release (h, job) -> Oar.Gantt.release g ~host:(host h) ~job
           | Release_job job -> Oar.Gantt.release_job g ~job
           | Prune before -> Oar.Gantt.prune g ~before:(float_of_int before));
          agree ())
        ops)

(* ---- Properties --------------------------------------------------------------- *)

let test_properties_populated () =
  let _, oar = mk () in
  let props = Oar.Manager.properties oar in
  checki "894 hosts" 894 (List.length (Oar.Property.hosts props));
  Alcotest.(check (option string))
    "cluster property" (Some "graphene")
    (Oar.Property.get props ~host:"graphene-1.nancy" "cluster");
  Alcotest.(check (option string))
    "eth10g" (Some "Y")
    (Oar.Property.get props ~host:"grisou-1.nancy" "eth10g");
  Alcotest.(check (option string))
    "wattmeter by site" (Some "NO")
    (Oar.Property.get props ~host:"granduc-1.luxembourg" "wattmeter")

let test_properties_follow_refapi () =
  let instance, oar = mk () in
  (* Corrupt the published description, refresh, observe the DB change. *)
  let ctx = Testbed.Faults.context instance.Testbed.Instance.faults in
  Hashtbl.replace ctx.Testbed.Faults.flags "oar_desync:orion-1.lyon" "x";
  Oar.Manager.refresh_properties oar;
  Alcotest.(check (option string))
    "gpu flipped by desync" (Some "NO")
    (Oar.Property.get (Oar.Manager.properties oar) ~host:"orion-1.lyon" "gpu")

(* ---- Manager: submission and scheduling ----------------------------------------- *)

let test_submit_immediate_success () =
  let _, oar = mk () in
  let request = Oar.Request.nodes ~filter:"cluster='graphene'" (`N 2) ~walltime:3600.0 in
  match Oar.Manager.submit oar ~immediate:true request with
  | Ok job ->
    checkb "running already" true (job.Oar.Job.state = Oar.Job.Running);
    checki "two nodes" 2 (List.length job.Oar.Job.assigned);
    List.iter
      (fun host ->
        checkb "host from graphene" true
          (String.length host > 9 && String.sub host 0 9 = "graphene-"))
      job.Oar.Job.assigned
  | Error _ -> Alcotest.fail "expected immediate start"

let test_submit_no_matching () =
  let _, oar = mk () in
  let request = Oar.Request.nodes ~filter:"cluster='nosuch'" (`N 1) ~walltime:60.0 in
  (match Oar.Manager.submit oar request with
   | Error Oar.Manager.No_matching_resource -> ()
   | _ -> Alcotest.fail "expected No_matching_resource")

let test_submit_immediate_rejected_when_busy () =
  let _, oar = mk () in
  (* Occupy the whole nyx cluster (8 nodes), then ask for all of it. *)
  let all = Oar.Request.nodes ~filter:"cluster='nyx'" `All ~walltime:7200.0 in
  (match Oar.Manager.submit oar all with Ok _ -> () | Error _ -> Alcotest.fail "setup");
  let again = Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:600.0 in
  match Oar.Manager.submit oar ~immediate:true again with
  | Error (Oar.Manager.Not_immediately_schedulable at) ->
    checkb "estimated start in the future" true (at > 0.0)
  | _ -> Alcotest.fail "expected immediate rejection"

let test_job_lifecycle_to_termination () =
  let instance, oar = mk () in
  let request = Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:3600.0 in
  let job =
    match Oar.Manager.submit oar ~duration:600.0 request with
    | Ok job -> job
    | Error _ -> Alcotest.fail "submit failed"
  in
  let ended = ref false in
  Oar.Manager.on_job_end oar (fun j -> if j.Oar.Job.id = job.Oar.Job.id then ended := true);
  Simkit.Engine.run_until instance.Testbed.Instance.engine 4000.0;
  checkb "terminated" true (job.Oar.Job.state = Oar.Job.Terminated);
  checkb "listener fired" true !ended;
  (match Oar.Job.wait_time job with
   | Some w -> checkb "no wait on idle testbed" true (w < 1.0)
   | None -> Alcotest.fail "no wait time")

let test_fcfs_queueing () =
  let instance, oar = mk () in
  (* Jobs longer than their duration never end early here: walltime =
     duration. Saturate nyx (8 nodes) then submit one more. *)
  let submit () =
    Oar.Manager.submit oar ~duration:3600.0
      (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 8) ~walltime:3600.0)
  in
  let first = match submit () with Ok j -> j | Error _ -> Alcotest.fail "first" in
  let second = match submit () with Ok j -> j | Error _ -> Alcotest.fail "second" in
  checkb "first runs" true (first.Oar.Job.state = Oar.Job.Running);
  checkb "second waits in the future" true (second.Oar.Job.state = Oar.Job.Scheduled);
  checkb "second scheduled after first" true (second.Oar.Job.scheduled_start >= 3600.0);
  Simkit.Engine.run_until instance.Testbed.Instance.engine 9000.0;
  checkb "second done eventually" true (second.Oar.Job.state = Oar.Job.Terminated)

let test_cancel_releases_resources () =
  let _, oar = mk () in
  let job =
    match
      Oar.Manager.submit oar (Oar.Request.nodes ~filter:"cluster='nyx'" `All ~walltime:7200.0)
    with
    | Ok j -> j
    | Error _ -> Alcotest.fail "submit"
  in
  Oar.Manager.cancel oar job;
  checkb "cancelled" true (job.Oar.Job.state = Oar.Job.Cancelled);
  match
    Oar.Manager.submit oar ~immediate:true
      (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:600.0)
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "resources should be free after cancel"

let test_multi_group_request () =
  let _, oar = mk () in
  let request =
    Oar.Request.parse_exn "cluster='nyx'/nodes=1+cluster='graphite'/nodes=1,walltime=1"
  in
  match Oar.Manager.submit oar ~immediate:true request with
  | Ok job ->
    checki "two nodes from two clusters" 2 (List.length job.Oar.Job.assigned);
    let clusters =
      List.map
        (fun host -> String.sub host 0 (String.index host '-'))
        job.Oar.Job.assigned
      |> List.sort_uniq compare
    in
    Alcotest.(check (list string)) "both clusters" [ "graphite"; "nyx" ] clusters
  | Error _ -> Alcotest.fail "multi-group placement failed"

let test_gpu_filter_placement () =
  let _, oar = mk () in
  (* The paper's oarsub: gpu='YES' nodes exist (adonis, chifflet, orion,
     grele, grimani). *)
  match
    Oar.Manager.submit oar ~immediate:true
      (Oar.Request.nodes ~filter:"gpu='YES'" (`N 1) ~walltime:600.0)
  with
  | Ok job -> (
    match job.Oar.Job.assigned with
    | [ host ] ->
      let cluster = String.sub host 0 (String.index host '-') in
      checkb "gpu cluster" true
        (List.mem cluster [ "adonis"; "chifflet"; "orion"; "grele"; "grimani" ])
    | _ -> Alcotest.fail "one node expected")
  | Error _ -> Alcotest.fail "gpu filter placement failed"

let test_estimate_start () =
  let _, oar = mk () in
  (match
     Oar.Manager.estimate_start oar
       (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:600.0)
   with
   | Some at -> checkf "immediate on idle testbed" 0.0 at
   | None -> Alcotest.fail "estimate failed");
  ignore
    (Oar.Manager.submit oar (Oar.Request.nodes ~filter:"cluster='nyx'" `All ~walltime:7200.0));
  match
    Oar.Manager.estimate_start oar
      (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 1) ~walltime:600.0)
  with
  | Some at -> checkb "pushed behind running job" true (at >= 7200.0)
  | None -> Alcotest.fail "estimate failed under load"

let test_assigned_busy_consistency () =
  let _, oar = mk () in
  ignore
    (Oar.Manager.submit oar ~jtype:Oar.Job.Deploy
       (Oar.Request.nodes ~filter:"cluster='nyx'" (`N 3) ~walltime:3600.0));
  checkb "invariant holds" true (Oar.Manager.assigned_busy_consistent oar)

let test_dead_node_fails_job_at_start () =
  let instance, oar = mk () in
  (* Queue a second whole-cluster job, then kill a node before it starts. *)
  ignore
    (Oar.Manager.submit oar ~duration:3600.0
       (Oar.Request.nodes ~filter:"cluster='graphite'" `All ~walltime:3600.0));
  let second =
    match
      Oar.Manager.submit oar
        (Oar.Request.nodes ~filter:"cluster='graphite'" `All ~walltime:3600.0)
    with
    | Ok j -> j
    | Error _ -> Alcotest.fail "second submit"
  in
  let victim = Testbed.Instance.node instance "graphite-1.nancy" in
  victim.Testbed.Node.state <- Testbed.Node.Down;
  Simkit.Engine.run_until instance.Testbed.Instance.engine 7200.0;
  checkb "second job errors out on dead node" true (second.Oar.Job.state = Oar.Job.Error)

(* ---- Workload ------------------------------------------------------------------- *)

let test_workload_generates_contention () =
  let instance, oar = mk () in
  let finished = ref 0 in
  Oar.Manager.on_job_end oar (fun j -> if Oar.Job.is_finished j then incr finished);
  let rng = Simkit.Prng.create 77L in
  let w = Oar.Workload.start ~rng oar in
  Simkit.Engine.run_until instance.Testbed.Instance.engine (3.0 *. Simkit.Calendar.day);
  checkb "jobs submitted" true (Oar.Workload.submitted w > 100);
  checkb "many finished" true (!finished > 50);
  (* The Gantt forgets reservations that ended more than an hour ago, so
     utilisation is only meaningful near the current instant. *)
  let now = Simkit.Engine.now instance.Testbed.Instance.engine in
  let utilisation = Oar.Manager.utilisation oar ~lo:(now -. 3600.0) ~hi:now in
  checkb "testbed visibly used" true (utilisation > 0.02);
  Oar.Workload.stop w

let test_workload_stop () =
  let instance, oar = mk () in
  let rng = Simkit.Prng.create 78L in
  let w = Oar.Workload.start ~rng oar in
  Simkit.Engine.run_until instance.Testbed.Instance.engine Simkit.Calendar.day;
  Oar.Workload.stop w;
  let before = Oar.Workload.submitted w in
  Simkit.Engine.run_until instance.Testbed.Instance.engine (2.0 *. Simkit.Calendar.day);
  checki "no submissions after stop" before (Oar.Workload.submitted w)

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "oar"
    [
      ( "expr",
        [ Alcotest.test_case "paper example" `Quick test_expr_paper_example;
          Alcotest.test_case "precedence" `Quick test_expr_precedence;
          Alcotest.test_case "not and parens" `Quick test_expr_not_and_parens;
          Alcotest.test_case "numeric comparisons" `Quick test_expr_numeric_comparisons;
          Alcotest.test_case "missing property" `Quick test_expr_missing_property;
          Alcotest.test_case "empty is true" `Quick test_expr_empty_is_true;
          Alcotest.test_case "errors" `Quick test_expr_errors;
          Alcotest.test_case "properties used" `Quick test_expr_properties_used;
          Alcotest.test_case "quoted numeric literal" `Quick
            test_expr_quoted_numeric_literal;
          qc prop_expr_roundtrip;
          qc prop_holds_numeric_agreement ] );
      ( "normalize",
        [ Alcotest.test_case "verdicts" `Quick test_normalize_verdicts;
          qc prop_normalize_preserves_eval;
          qc prop_normalize_idempotent;
          qc prop_normalize_roundtrip ] );
      ( "request",
        [ Alcotest.test_case "paper example" `Quick test_request_paper_example;
          Alcotest.test_case "nodes=ALL" `Quick test_request_nodes_all;
          Alcotest.test_case "bare nodes" `Quick test_request_bare_nodes;
          Alcotest.test_case "errors" `Quick test_request_errors;
          Alcotest.test_case "to_string roundtrip" `Quick test_request_to_string_roundtrip ] );
      ( "gantt",
        [ Alcotest.test_case "reserve conflict" `Quick test_gantt_reserve_conflict;
          Alcotest.test_case "next free window" `Quick test_gantt_next_free_window;
          Alcotest.test_case "release and truncate" `Quick test_gantt_release_and_truncate;
          Alcotest.test_case "utilisation" `Quick test_gantt_utilisation;
          qc prop_gantt_no_overlap;
          qc prop_gantt_matches_list_model;
          qc prop_gantt_slots_match_hosts ] );
      ( "properties",
        [ Alcotest.test_case "populated" `Quick test_properties_populated;
          Alcotest.test_case "follow refapi" `Quick test_properties_follow_refapi ] );
      ( "manager",
        [ Alcotest.test_case "immediate success" `Quick test_submit_immediate_success;
          Alcotest.test_case "no matching" `Quick test_submit_no_matching;
          Alcotest.test_case "immediate rejected when busy" `Quick
            test_submit_immediate_rejected_when_busy;
          Alcotest.test_case "lifecycle" `Quick test_job_lifecycle_to_termination;
          Alcotest.test_case "fcfs queueing" `Quick test_fcfs_queueing;
          Alcotest.test_case "cancel releases" `Quick test_cancel_releases_resources;
          Alcotest.test_case "multi-group" `Quick test_multi_group_request;
          Alcotest.test_case "gpu filter" `Quick test_gpu_filter_placement;
          Alcotest.test_case "estimate start" `Quick test_estimate_start;
          Alcotest.test_case "state consistency" `Quick test_assigned_busy_consistency;
          Alcotest.test_case "dead node fails job" `Quick
            test_dead_node_fails_job_at_start ] );
      ( "workload",
        [ Alcotest.test_case "contention" `Slow test_workload_generates_contention;
          Alcotest.test_case "stop" `Quick test_workload_stop ] );
    ]
