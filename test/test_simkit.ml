(* Unit and property tests for the simulation kit. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---- Prng ----------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Simkit.Prng.create 7L and b = Simkit.Prng.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Simkit.Prng.next_int64 a)
      (Simkit.Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let a = Simkit.Prng.create 7L in
  let b = Simkit.Prng.split a in
  let xa = Simkit.Prng.next_int64 a and xb = Simkit.Prng.next_int64 b in
  checkb "split streams differ" true (xa <> xb)

let test_prng_copy () =
  let a = Simkit.Prng.create 3L in
  ignore (Simkit.Prng.next_int64 a);
  let b = Simkit.Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Simkit.Prng.next_int64 a)
    (Simkit.Prng.next_int64 b)

let test_prng_float_range () =
  let rng = Simkit.Prng.create 11L in
  for _ = 1 to 10_000 do
    let f = Simkit.Prng.float rng in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_int_bounds () =
  let rng = Simkit.Prng.create 13L in
  for _ = 1 to 10_000 do
    let v = Simkit.Prng.int rng 7 in
    checkb "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Simkit.Prng.int rng 0))

let test_prng_int_uniformish () =
  let rng = Simkit.Prng.create 17L in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Simkit.Prng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      checkb "within 10% of uniform" true (abs (c - expected) < expected / 10))
    counts

let test_prng_int_in () =
  let rng = Simkit.Prng.create 19L in
  for _ = 1 to 1000 do
    let v = Simkit.Prng.int_in rng (-3) 3 in
    checkb "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_prng_chance_extremes () =
  let rng = Simkit.Prng.create 23L in
  checkb "p=0 never" false (Simkit.Prng.chance rng 0.0);
  checkb "p=1 always" true (Simkit.Prng.chance rng 1.0)

let test_prng_shuffle_permutation () =
  let rng = Simkit.Prng.create 29L in
  let arr = Array.init 50 Fun.id in
  Simkit.Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_sample_without_replacement () =
  let rng = Simkit.Prng.create 31L in
  let arr = Array.init 20 Fun.id in
  let sample = Simkit.Prng.sample_without_replacement rng 5 arr in
  checki "size" 5 (Array.length sample);
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  let distinct =
    Array.to_list sorted |> List.sort_uniq compare |> List.length
  in
  checki "distinct" 5 distinct

(* ---- Dist ----------------------------------------------------------------- *)

let sample_mean rng dist n =
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Simkit.Dist.sample rng dist
  done;
  !acc /. float_of_int n

let test_dist_means () =
  let rng = Simkit.Prng.create 37L in
  let close ~tol name dist =
    let expected = Simkit.Dist.mean dist in
    let measured = sample_mean rng dist 50_000 in
    checkb name true (Float.abs (measured -. expected) < tol *. Float.max 1.0 expected)
  in
  close ~tol:0.02 "constant" (Simkit.Dist.Constant 5.0);
  close ~tol:0.02 "uniform" (Simkit.Dist.Uniform (2.0, 4.0));
  close ~tol:0.03 "exponential" (Simkit.Dist.Exponential 3.0);
  close ~tol:0.03 "normal" (Simkit.Dist.Normal (10.0, 2.0));
  close ~tol:0.05 "erlang" (Simkit.Dist.Erlang (3, 2.0));
  close ~tol:0.05 "weibull" (Simkit.Dist.Weibull (2.0, 3.0))

let test_dist_mixture () =
  let rng = Simkit.Prng.create 41L in
  let dist =
    Simkit.Dist.Mixture [ (1.0, Simkit.Dist.Constant 0.0); (1.0, Simkit.Dist.Constant 10.0) ]
  in
  checkf "mixture mean" 5.0 (Simkit.Dist.mean dist);
  let m = sample_mean rng dist 20_000 in
  checkb "sampled mixture mean" true (Float.abs (m -. 5.0) < 0.2)

let test_dist_pareto_mean_infinite () =
  checkb "alpha<=1 infinite mean" true
    (Simkit.Dist.mean (Simkit.Dist.Pareto (1.0, 2.0)) = infinity)

let test_zipf_bounds () =
  let rng = Simkit.Prng.create 43L in
  for _ = 1 to 1000 do
    let v = Simkit.Dist.zipf rng ~n:32 ~s:1.1 in
    checkb "in [1,32]" true (v >= 1 && v <= 32)
  done

let test_zipf_skew () =
  let rng = Simkit.Prng.create 47L in
  let first = ref 0 and last = ref 0 in
  for _ = 1 to 20_000 do
    match Simkit.Dist.zipf rng ~n:10 ~s:1.2 with
    | 1 -> incr first
    | 10 -> incr last
    | _ -> ()
  done;
  checkb "rank 1 much more likely than rank 10" true (!first > 4 * !last)

(* The per-call inversion [Dist.zipf] used before the cumulative table:
   weights rebuilt and summed on every draw, then a left-to-right scan. *)
let oracle_zipf rng ~n ~s =
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let target = Simkit.Prng.float rng *. total in
  let rec pick i acc =
    if i >= n - 1 then n
    else
      let acc = acc +. weights.(i) in
      if acc >= target then i + 1 else pick (i + 1) acc
  in
  pick 0 0.0

let prop_zipf_table_matches_per_call =
  QCheck.Test.make ~name:"zipf table draws the per-call ranks" ~count:300
    QCheck.(triple (int_range 1 64) (float_range 0.5 2.0) int64)
    (fun (n, s, seed) ->
      let table = Simkit.Dist.zipf_table ~n ~s in
      let fast = Simkit.Prng.create seed and slow = Simkit.Prng.create seed in
      let same_ranks =
        List.for_all
          (fun _ -> Simkit.Dist.zipf_sample fast table = oracle_zipf slow ~n ~s)
          (List.init 50 Fun.id)
      in
      same_ranks
      && Simkit.Dist.zipf fast ~n ~s = oracle_zipf slow ~n ~s
      && Simkit.Prng.next_int64 fast = Simkit.Prng.next_int64 slow)

let test_poisson_mean () =
  let rng = Simkit.Prng.create 53L in
  let acc = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    acc := !acc + Simkit.Dist.poisson rng ~mean:4.0
  done;
  let mean = float_of_int !acc /. float_of_int n in
  checkb "poisson mean ~4" true (Float.abs (mean -. 4.0) < 0.1)

let test_poisson_large_mean () =
  let rng = Simkit.Prng.create 59L in
  let v = Simkit.Dist.poisson rng ~mean:100.0 in
  checkb "normal approximation plausible" true (v > 50 && v < 150)

(* ---- Heap ----------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Simkit.Heap.create () in
  List.iter (fun k -> Simkit.Heap.push h ~key:k k) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let popped = ref [] in
  let rec drain () =
    match Simkit.Heap.pop h with
    | Some (k, _) ->
      popped := k :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  check
    Alcotest.(list (float 1e-9))
    "ascending order" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !popped)

let test_heap_fifo_ties () =
  let h = Simkit.Heap.create () in
  Simkit.Heap.push h ~key:1.0 "first";
  Simkit.Heap.push h ~key:1.0 "second";
  Simkit.Heap.push h ~key:1.0 "third";
  let next () = match Simkit.Heap.pop h with Some (_, v) -> v | None -> "?" in
  check Alcotest.string "tie 1" "first" (next ());
  check Alcotest.string "tie 2" "second" (next ());
  check Alcotest.string "tie 3" "third" (next ())

let test_heap_to_list_sorted () =
  let h = Simkit.Heap.create () in
  List.iter (fun k -> Simkit.Heap.push h ~key:(float_of_int k) k) [ 9; 2; 7; 4 ];
  let keys = List.map fst (Simkit.Heap.to_list h) in
  check Alcotest.(list (float 1e-9)) "sorted snapshot" [ 2.0; 4.0; 7.0; 9.0 ] keys;
  checki "length preserved" 4 (Simkit.Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Simkit.Heap.create () in
      List.iter (fun k -> Simkit.Heap.push h ~key:k k) keys;
      let rec drain acc =
        match Simkit.Heap.pop h with
        | Some (k, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let prop_heap_model =
  (* Interleaved push/pop against a sorted-list oracle; values carry the
     insertion sequence so the FIFO tie-break is checked too. *)
  QCheck.Test.make ~name:"heap matches sorted-list oracle under push/pop" ~count:300
    QCheck.(list (pair bool (int_bound 9)))
    (fun ops ->
      let h = Simkit.Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (push, k) ->
          if push then begin
            let key = float_of_int k in
            Simkit.Heap.push h ~key !seq;
            model := List.merge compare !model [ (key, !seq) ];
            incr seq
          end
          else
            match (Simkit.Heap.pop h, !model) with
            | None, [] -> ()
            | Some (key, v), (mk, mv) :: rest ->
              ok := !ok && key = mk && v = mv;
              model := rest
            | _ -> ok := false)
        ops;
      !ok && Simkit.Heap.length h = List.length !model)

let test_heap_pop_releases_value () =
  (* A popped value must be collectable immediately: the vacated slot
     may not pin it. *)
  let h = Simkit.Heap.create () in
  let weak = Weak.create 1 in
  let () =
    let v = ref 42 in
    Weak.set weak 0 (Some v);
    Simkit.Heap.push h ~key:1.0 v;
    Simkit.Heap.push h ~key:2.0 (ref 0)
  in
  (match Simkit.Heap.pop h with Some _ -> () | None -> Alcotest.fail "pop");
  Gc.full_major ();
  checkb "popped value collected" true (Weak.get weak 0 = None);
  checki "remaining entry intact" 1 (Simkit.Heap.length h)

(* ---- Intset --------------------------------------------------------------- *)

let test_intset_basics () =
  let s = Simkit.Intset.create () in
  checkb "fresh set empty" true (Simkit.Intset.is_empty s);
  Simkit.Intset.add s 3;
  Simkit.Intset.add s 3;
  Simkit.Intset.add s 7;
  checki "duplicate add ignored" 2 (Simkit.Intset.cardinal s);
  checkb "mem present" true (Simkit.Intset.mem s 3);
  checkb "mem absent" false (Simkit.Intset.mem s 5);
  Simkit.Intset.remove s 3;
  Simkit.Intset.remove s 3;
  checkb "removed" false (Simkit.Intset.mem s 3);
  checki "cardinal after remove" 1 (Simkit.Intset.cardinal s);
  Simkit.Intset.clear s;
  checkb "cleared" true (Simkit.Intset.is_empty s)

module Int_set_oracle = Set.Make (Int)

let prop_intset_model =
  (* Small key range on purpose: lots of hash collisions, so the
     backward-shift deletion path is exercised hard. *)
  QCheck.Test.make ~name:"intset matches Set oracle under add/remove" ~count:300
    QCheck.(list (pair bool (int_bound 63)))
    (fun ops ->
      let s = Simkit.Intset.create () in
      let model =
        List.fold_left
          (fun m (add, k) ->
            if add then begin
              Simkit.Intset.add s k;
              Int_set_oracle.add k m
            end
            else begin
              Simkit.Intset.remove s k;
              Int_set_oracle.remove k m
            end)
          Int_set_oracle.empty ops
      in
      Simkit.Intset.cardinal s = Int_set_oracle.cardinal model
      && List.sort compare (Simkit.Intset.to_list s) = Int_set_oracle.elements model
      && Int_set_oracle.for_all (fun k -> Simkit.Intset.mem s k) model)

(* ---- Engine --------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Simkit.Engine.create () in
  let trace = ref [] in
  ignore (Simkit.Engine.schedule e ~delay:2.0 (fun _ -> trace := "b" :: !trace));
  ignore (Simkit.Engine.schedule e ~delay:1.0 (fun _ -> trace := "a" :: !trace));
  ignore (Simkit.Engine.schedule e ~delay:3.0 (fun _ -> trace := "c" :: !trace));
  Simkit.Engine.run e;
  check Alcotest.(list string) "time order" [ "a"; "b"; "c" ] (List.rev !trace);
  checkf "clock at last event" 3.0 (Simkit.Engine.now e)

let test_engine_same_time_fifo () =
  let e = Simkit.Engine.create () in
  let trace = ref [] in
  for i = 1 to 5 do
    ignore (Simkit.Engine.schedule e ~delay:1.0 (fun _ -> trace := i :: !trace))
  done;
  Simkit.Engine.run e;
  check Alcotest.(list int) "scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !trace)

let test_engine_cancel () =
  let e = Simkit.Engine.create () in
  let fired = ref false in
  let handle = Simkit.Engine.schedule e ~delay:1.0 (fun _ -> fired := true) in
  Simkit.Engine.cancel e handle;
  Simkit.Engine.run e;
  checkb "cancelled event does not fire" false !fired

let test_engine_run_until () =
  let e = Simkit.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Simkit.Engine.schedule e ~delay:(float_of_int i) (fun _ -> incr count))
  done;
  Simkit.Engine.run_until e 5.5;
  checki "five events before horizon" 5 !count;
  checkf "clock clamped to horizon" 5.5 (Simkit.Engine.now e);
  Simkit.Engine.run e;
  checki "rest run later" 10 !count

let test_engine_nested_schedule () =
  let e = Simkit.Engine.create () in
  let times = ref [] in
  ignore
    (Simkit.Engine.schedule e ~delay:1.0 (fun e ->
         times := Simkit.Engine.now e :: !times;
         ignore
           (Simkit.Engine.schedule e ~delay:2.0 (fun e ->
                times := Simkit.Engine.now e :: !times))));
  Simkit.Engine.run e;
  check Alcotest.(list (float 1e-9)) "nested times" [ 1.0; 3.0 ] (List.rev !times)

let test_engine_every_stops () =
  let e = Simkit.Engine.create () in
  let count = ref 0 in
  Simkit.Engine.every e ~period:1.0 (fun _ ->
      incr count;
      !count < 5);
  Simkit.Engine.run e;
  checki "periodic process stops itself" 5 !count

let test_engine_past_schedule_clamped () =
  let e = Simkit.Engine.create () in
  ignore (Simkit.Engine.schedule e ~delay:5.0 (fun e ->
      let fired = ref false in
      ignore (Simkit.Engine.schedule_at e ~time:1.0 (fun _ -> fired := true));
      ignore fired));
  Simkit.Engine.run e;
  checkf "clock monotonic" 5.0 (Simkit.Engine.now e)

let test_engine_observer_labels () =
  let e = Simkit.Engine.create () in
  let seen = ref [] in
  Simkit.Engine.set_observer e
    (Some (fun ~time ~label -> seen := (time, label) :: !seen));
  ignore (Simkit.Engine.schedule e ~label:"a" ~delay:1.0 (fun _ -> ()));
  ignore (Simkit.Engine.schedule e ~delay:2.0 (fun _ -> ()));
  Simkit.Engine.run e;
  checkb "observer saw both events with their labels" true
    (List.rev !seen = [ (1.0, Some "a"); (2.0, None) ]);
  Simkit.Engine.set_observer e None;
  ignore (Simkit.Engine.schedule e ~delay:1.0 (fun _ -> ()));
  Simkit.Engine.run e;
  checki "cleared observer sees nothing further" 2 (List.length !seen)

let test_engine_cancel_after_fire_no_leak () =
  (* Regression: cancelling an already-fired handle used to be remembered
     forever, and [pending] could go negative. *)
  let e = Simkit.Engine.create () in
  let h = Simkit.Engine.schedule e ~delay:1.0 (fun _ -> ()) in
  Simkit.Engine.run e;
  Simkit.Engine.cancel e h;
  Simkit.Engine.cancel e h;
  checkb "fired handle not remembered as cancelled" false (Simkit.Engine.cancelled e h);
  checki "pending stays at zero" 0 (Simkit.Engine.pending e);
  let h2 = Simkit.Engine.schedule e ~delay:1.0 (fun _ -> ()) in
  checki "new event counted" 1 (Simkit.Engine.pending e);
  Simkit.Engine.cancel e h2;
  checki "cancelled event not counted" 0 (Simkit.Engine.pending e);
  Simkit.Engine.run e;
  Simkit.Engine.cancel e h2;
  checki "pending never negative" 0 (Simkit.Engine.pending e);
  checki "only the first event executed" 1 (Simkit.Engine.events_executed e)

let test_engine_cancel_same_instant () =
  (* An event may cancel a later event of the same timestamp: the batch
     drain must re-check cancellation at consumption time. *)
  let e = Simkit.Engine.create () in
  let fired = ref false in
  let hb = ref None in
  ignore
    (Simkit.Engine.schedule e ~delay:1.0 (fun e ->
         match !hb with Some h -> Simkit.Engine.cancel e h | None -> ()));
  hb := Some (Simkit.Engine.schedule e ~delay:1.0 (fun _ -> fired := true));
  Simkit.Engine.run e;
  checkb "same-instant victim skipped" false !fired;
  checki "pending drained" 0 (Simkit.Engine.pending e)

let test_engine_run_until_cancelled_prefix () =
  (* A cancelled-only queue prefix must not stall the clock short of the
     horizon, and skipped events are not executions. *)
  let e = Simkit.Engine.create () in
  let h = Simkit.Engine.schedule e ~delay:1.0 (fun _ -> ()) in
  Simkit.Engine.cancel e h;
  Simkit.Engine.run_until e 5.0;
  checkf "clock clamped to horizon" 5.0 (Simkit.Engine.now e);
  checki "no events executed" 0 (Simkit.Engine.events_executed e);
  checki "nothing pending" 0 (Simkit.Engine.pending e)

let test_engine_next_time_matches_run_until () =
  (* Stepping while next_time <= horizon must drain exactly what
     run_until drains (the bench driver relies on this). *)
  let trace engine_of =
    let e = engine_of () in
    let trace = ref [] in
    for i = 1 to 8 do
      ignore
        (Simkit.Engine.schedule e ~delay:(float_of_int (i mod 4))
           (fun _ -> trace := i :: !trace))
    done;
    (e, trace)
  in
  let a, ta = trace (fun () -> Simkit.Engine.create ()) in
  Simkit.Engine.run_until a 2.5;
  let b, tb = trace (fun () -> Simkit.Engine.create ()) in
  let continue = ref true in
  while !continue do
    match Simkit.Engine.next_time b with
    | Some next when next <= 2.5 -> ignore (Simkit.Engine.step b)
    | _ -> continue := false
  done;
  Simkit.Engine.run_until b 2.5;
  checkb "same execution order" true (!ta = !tb);
  checkf "same clock" (Simkit.Engine.now a) (Simkit.Engine.now b);
  checki "same pending" (Simkit.Engine.pending a) (Simkit.Engine.pending b)

let test_engine_jitter_zero_draws_nothing () =
  (* A jitter-free periodic timer must consume no engine randomness. *)
  let master_after ~with_timer =
    let e = Simkit.Engine.create ~seed:7L () in
    if with_timer then
      Simkit.Engine.every e ~period:1.0 ~jitter:0.0 (fun e -> Simkit.Engine.now e < 5.0);
    Simkit.Engine.run_until e 10.0;
    Simkit.Prng.next_int64 (Simkit.Engine.rng e)
  in
  check Alcotest.int64 "master stream untouched" (master_after ~with_timer:false)
    (master_after ~with_timer:true)

let test_engine_jitter_isolated () =
  (* Regression: jitter used to draw from the master stream at every
     tick, so how long an unrelated jittered timer had been running
     changed the seed of any subsystem splitting the master later.  Now
     a jittered timer costs exactly one split at registration, whatever
     its period or lifetime. *)
  let late_split_draw ~period =
    let e = Simkit.Engine.create ~seed:99L () in
    Simkit.Engine.every e ~period ~jitter:0.5 (fun e -> Simkit.Engine.now e < 20.0);
    let draw = ref 0L in
    ignore
      (Simkit.Engine.schedule e ~delay:5.0 (fun e ->
           let r = Simkit.Prng.split (Simkit.Engine.rng e) in
           draw := Simkit.Prng.next_int64 r));
    Simkit.Engine.run_until e 30.0;
    !draw
  in
  check Alcotest.int64 "late subsystem seed independent of timer cadence"
    (late_split_draw ~period:1.0) (late_split_draw ~period:3.0)

let prop_engine_pending_consistent =
  (* pending / events_executed against a naive list model under random
     schedule / cancel / step sequences. *)
  QCheck.Test.make ~name:"engine: pending and events_executed match a list model"
    ~count:300
    QCheck.(list (pair (int_bound 5) (int_bound 9)))
    (fun ops ->
      let e = Simkit.Engine.create () in
      (* model entries: handle, firing time, consumed, cancelled *)
      let model = ref [] in
      let clock = ref 0.0 in
      let executed = ref 0 in
      let ok = ref true in
      let live () =
        List.filter (fun (_, _, consumed, cancelled) -> not (!consumed || !cancelled)) !model
      in
      let apply (tag, a) =
        if tag <= 2 then begin
          let delay = float_of_int a in
          let h = Simkit.Engine.schedule e ~delay (fun _ -> ()) in
          (* append keeps the model in schedule order = FIFO tie order *)
          model := !model @ [ (h, !clock +. delay, ref false, ref false) ]
        end
        else if tag = 3 then begin
          match live () with
          | [] -> ()
          | l ->
            let h, _, _, cancelled = List.nth l (a mod List.length l) in
            Simkit.Engine.cancel e h;
            cancelled := true
        end
        else begin
          match List.filter (fun (_, _, consumed, _) -> not !consumed) !model with
          | [] -> ok := !ok && not (Simkit.Engine.step e)
          | first :: rest ->
            let _, time, consumed, cancelled =
              List.fold_left
                (fun ((_, bt, _, _) as best) ((_, t, _, _) as cand) ->
                  if t < bt then cand else best)
                first rest
            in
            ok := !ok && Simkit.Engine.step e;
            consumed := true;
            if not !cancelled then begin
              incr executed;
              clock := Float.max !clock time
            end
        end;
        ok :=
          !ok
          && Simkit.Engine.pending e = List.length (live ())
          && Simkit.Engine.events_executed e = !executed
          && Simkit.Engine.pending e >= 0
      in
      List.iter apply ops;
      !ok)

(* A script of nested scheduling: every executed event consumes up to
   two ops, each scheduling a follow-up (mostly at the current instant)
   or cancelling a random still-waiting event.  Run against a scheduler
   given as closures, it logs (event, firing time) in execution order. *)
type 'h scheduler = {
  sched : float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  clock : unit -> float;
  drain : unit -> unit;
}

let run_nested_script roots ops s =
  let ops = ref ops and waiting = ref [] and log = ref [] and next = ref 0 in
  let rec add delay =
    let seq = !next in
    incr next;
    let h = s.sched delay (fun () -> fire seq) in
    waiting := !waiting @ [ (seq, h) ]
  and fire seq =
    log := (seq, s.clock ()) :: !log;
    waiting := List.filter (fun (q, _) -> q <> seq) !waiting;
    for _ = 1 to 2 do
      match !ops with
      | [] -> ()
      | o :: rest ->
        ops := rest;
        act o
    done
  and act o =
    if o <= 3 then add 0.0
    else if o <= 5 then add 1.0
    else if o = 6 then add 2.5
    else if o <= 9 then begin
      match !waiting with
      | [] -> ()
      | l ->
        let seq, h = List.nth l (o mod List.length l) in
        s.cancel h;
        waiting := List.filter (fun (q, _) -> q <> seq) l
    end
  in
  for i = 0 to roots - 1 do add (float_of_int (i mod 3)) done;
  s.drain ();
  List.rev !log

(* The reference scheduler: an unsorted list scanned for its (time, id)
   minimum at every step; a handle is the event's cancelled flag. *)
let list_model_scheduler () =
  let clock = ref 0.0 and queue = ref [] and next = ref 0 in
  let rec drain () =
    match !queue with
    | [] -> ()
    | first :: rest ->
      let time, id, cancelled, f =
        List.fold_left
          (fun ((bt, bi, _, _) as best) ((t, i, _, _) as cand) ->
            if t < bt || (t = bt && i < bi) then cand else best)
          first rest
      in
      queue := List.filter (fun (_, i, _, _) -> i <> id) !queue;
      if not !cancelled then begin
        clock := time;
        f ()
      end;
      drain ()
  in
  {
    sched =
      (fun delay f ->
        let id = !next and cancelled = ref false in
        incr next;
        queue := (!clock +. delay, id, cancelled, f) :: !queue;
        cancelled);
    cancel = (fun c -> c := true);
    clock = (fun () -> !clock);
    drain;
  }

let prop_engine_nested_order =
  QCheck.Test.make
    ~name:"engine: nested same-instant schedule/cancel runs in (time, id) order"
    ~count:300
    QCheck.(triple (int_range 1 6) (float_bound_inclusive 3.0) (list (int_bound 11)))
    (fun (roots, horizon, ops) ->
      let e = Simkit.Engine.create () in
      let engine =
        {
          sched = (fun delay f -> Simkit.Engine.schedule e ~delay (fun _ -> f ()));
          cancel = Simkit.Engine.cancel e;
          clock = (fun () -> Simkit.Engine.now e);
          drain =
            (fun () ->
              Simkit.Engine.run_until e horizon;
              Simkit.Engine.run e);
        }
      in
      let got = run_nested_script roots ops engine in
      let expected = run_nested_script roots ops (list_model_scheduler ()) in
      got = expected
      && Simkit.Engine.pending e = 0
      && Simkit.Engine.events_executed e = List.length got)

(* ---- Calendar ------------------------------------------------------------- *)

let test_calendar_basics () =
  checki "epoch is Monday" 0 (Simkit.Calendar.day_of_week 0.0);
  checki "hour extraction" 13 (Simkit.Calendar.hour_of_day (13.5 *. 3600.0));
  checki "day index" 2 (Simkit.Calendar.day_index (2.5 *. Simkit.Calendar.day));
  checki "month index" 1 (Simkit.Calendar.month_index (31.0 *. Simkit.Calendar.day))

let test_calendar_weekend () =
  checkb "saturday" true (Simkit.Calendar.is_weekend (5.5 *. Simkit.Calendar.day));
  checkb "sunday" true (Simkit.Calendar.is_weekend (6.5 *. Simkit.Calendar.day));
  checkb "monday" false (Simkit.Calendar.is_weekend (7.1 *. Simkit.Calendar.day))

let test_calendar_peak_hours () =
  let monday_10am = (0.0 *. Simkit.Calendar.day) +. (10.0 *. 3600.0) in
  let monday_11pm = (0.0 *. Simkit.Calendar.day) +. (23.0 *. 3600.0) in
  let saturday_10am = (5.0 *. Simkit.Calendar.day) +. (10.0 *. 3600.0) in
  checkb "weekday working hours" true (Simkit.Calendar.is_peak_hours monday_10am);
  checkb "weekday night" false (Simkit.Calendar.is_peak_hours monday_11pm);
  checkb "weekend morning" false (Simkit.Calendar.is_peak_hours saturday_10am)

let test_calendar_render () =
  check Alcotest.string "instant format" "d001 02:03:04"
    (Simkit.Calendar.to_string
       (Simkit.Calendar.day +. (2.0 *. 3600.0) +. (3.0 *. 60.0) +. 4.0))

(* ---- Stats ---------------------------------------------------------------- *)

let test_online_stats () =
  let o = Simkit.Stats.Online.create () in
  List.iter (Simkit.Stats.Online.add o) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checki "count" 8 (Simkit.Stats.Online.count o);
  checkf "mean" 5.0 (Simkit.Stats.Online.mean o);
  checkb "variance" true
    (Float.abs (Simkit.Stats.Online.variance o -. 4.571428571) < 1e-6);
  checkf "min" 2.0 (Simkit.Stats.Online.min o);
  checkf "max" 9.0 (Simkit.Stats.Online.max o);
  checkf "sum" 40.0 (Simkit.Stats.Online.sum o)

let test_online_merge () =
  let a = Simkit.Stats.Online.create () and b = Simkit.Stats.Online.create () in
  let whole = Simkit.Stats.Online.create () in
  let rng = Simkit.Prng.create 61L in
  for i = 1 to 1000 do
    let v = Simkit.Prng.float rng *. 10.0 in
    Simkit.Stats.Online.add whole v;
    if i mod 2 = 0 then Simkit.Stats.Online.add a v else Simkit.Stats.Online.add b v
  done;
  let merged = Simkit.Stats.Online.merge a b in
  checki "merged count" 1000 (Simkit.Stats.Online.count merged);
  checkb "merged mean" true
    (Float.abs (Simkit.Stats.Online.mean merged -. Simkit.Stats.Online.mean whole) < 1e-9);
  checkb "merged variance" true
    (Float.abs (Simkit.Stats.Online.variance merged -. Simkit.Stats.Online.variance whole)
     < 1e-6)

let test_percentiles () =
  let data = Array.init 101 float_of_int in
  checkf "p0" 0.0 (Simkit.Stats.percentile data 0.0);
  checkf "p50" 50.0 (Simkit.Stats.percentile data 0.5);
  checkf "p100" 100.0 (Simkit.Stats.percentile data 1.0);
  checkf "median" 50.0 (Simkit.Stats.median data);
  Alcotest.check_raises "empty data" (Invalid_argument "Stats.percentile: empty data")
    (fun () -> ignore (Simkit.Stats.percentile [||] 0.5))

let test_percentile_float_order () =
  (* Regression: the sort must use a float comparator — negative values
     and mixed magnitudes must interpolate on the numerically sorted
     data, and NaN must not poison the order of the finite elements. *)
  let data = [| 3.0; -1.0; 2.0; -4.0; 0.0 |] in
  checkf "min" (-4.0) (Simkit.Stats.percentile data 0.0);
  checkf "median" 0.0 (Simkit.Stats.median data);
  checkf "max" 3.0 (Simkit.Stats.percentile data 1.0);
  let with_nan = [| 2.0; nan; 1.0; 3.0 |] in
  (* Float.compare orders NaN below every number: the top percentile is
     still the largest finite value. *)
  checkf "max with nan present" 3.0 (Simkit.Stats.percentile with_nan 1.0)

let test_histogram () =
  let h = Simkit.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Simkit.Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 9.9; -1.0; 10.0; 25.0 ];
  checki "total" 7 (Simkit.Stats.Histogram.count h);
  checki "bin 0" 1 (Simkit.Stats.Histogram.bin_count h 0);
  checki "bin 1" 2 (Simkit.Stats.Histogram.bin_count h 1);
  checki "bin 9" 1 (Simkit.Stats.Histogram.bin_count h 9);
  checki "underflow" 1 (Simkit.Stats.Histogram.underflow h);
  checki "overflow" 2 (Simkit.Stats.Histogram.overflow h);
  let lo, hi = Simkit.Stats.Histogram.bin_bounds h 3 in
  checkf "bin bounds lo" 3.0 lo;
  checkf "bin bounds hi" 4.0 hi;
  checkb "render mentions counts" true
    (String.length (Simkit.Stats.Histogram.render h) > 0)

(* ---- Timeseries ------------------------------------------------------------ *)

let test_timeseries_basic () =
  let ts = Simkit.Timeseries.create ~name:"t" () in
  for i = 0 to 99 do
    Simkit.Timeseries.add ts ~time:(float_of_int i) (float_of_int (i * 2))
  done;
  checki "length" 100 (Simkit.Timeseries.length ts);
  (match Simkit.Timeseries.last ts with
   | Some (t, v) ->
     checkf "last time" 99.0 t;
     checkf "last value" 198.0 v
   | None -> Alcotest.fail "expected last");
  checki "window count" 11 (List.length (Simkit.Timeseries.between ts ~lo:10.0 ~hi:20.0));
  checkf "mean of window" 30.0 (Simkit.Timeseries.mean_between ts ~lo:10.0 ~hi:20.0)

let test_timeseries_monotonic_guard () =
  let ts = Simkit.Timeseries.create ~name:"t" () in
  Simkit.Timeseries.add ts ~time:5.0 1.0;
  Alcotest.check_raises "backwards time rejected"
    (Invalid_argument "Timeseries.add: time going backwards") (fun () ->
      Simkit.Timeseries.add ts ~time:4.0 1.0)

let test_timeseries_downsample () =
  let ts = Simkit.Timeseries.create ~name:"t" () in
  for i = 0 to 19 do
    Simkit.Timeseries.add ts ~time:(float_of_int i) 1.0
  done;
  let buckets = Simkit.Timeseries.downsample ts ~bucket:10.0 in
  checki "two buckets" 2 (List.length buckets);
  List.iter (fun (_, v) -> checkf "bucket mean" 1.0 v) buckets

let test_timeseries_downsample_negative_times () =
  (* Regression: int_of_float truncates toward zero, which used to merge
     the [-bucket, 0) and [0, bucket) buckets; bucketing must floor. *)
  let ts = Simkit.Timeseries.create ~name:"t" () in
  List.iter
    (fun (t, v) -> Simkit.Timeseries.add ts ~time:t v)
    [ (-15.0, 1.0); (-5.0, 2.0); (5.0, 4.0); (15.0, 8.0) ]
  ;
  let buckets = Simkit.Timeseries.downsample ts ~bucket:10.0 in
  checki "four buckets" 4 (List.length buckets);
  List.iter2
    (fun (start, mean) (expected_start, expected_mean) ->
      checkf "bucket start" expected_start start;
      checkf "bucket mean" expected_mean mean)
    buckets
    [ (-20.0, 1.0); (-10.0, 2.0); (0.0, 4.0); (10.0, 8.0) ]

let test_timeseries_empty_window () =
  let ts = Simkit.Timeseries.create ~name:"t" () in
  checkb "mean of empty is nan" true
    (Float.is_nan (Simkit.Timeseries.mean_between ts ~lo:0.0 ~hi:10.0))

let test_timeseries_sparkline_width () =
  let ts = Simkit.Timeseries.create ~name:"t" () in
  for i = 0 to 59 do
    Simkit.Timeseries.add ts ~time:(float_of_int i) (sin (float_of_int i))
  done;
  checki "width respected" 30
    (String.length (Simkit.Timeseries.sparkline ts ~lo:0.0 ~hi:59.0 ~width:30))

(* ---- Json ------------------------------------------------------------------ *)

let sample_json =
  Simkit.Json.Obj
    [ ("name", Simkit.Json.String "node-1");
      ("cores", Simkit.Json.Int 8);
      ("freq", Simkit.Json.Float 2.5);
      ("ok", Simkit.Json.Bool true);
      ("tags", Simkit.Json.List [ Simkit.Json.String "a"; Simkit.Json.String "b" ]);
      ("empty", Simkit.Json.Null) ]

let test_json_roundtrip () =
  let text = Simkit.Json.to_string sample_json in
  match Simkit.Json.of_string text with
  | Ok parsed -> checkb "roundtrip equal" true (Simkit.Json.equal parsed sample_json)
  | Error e -> Alcotest.fail e

let test_json_pretty_roundtrip () =
  let text = Simkit.Json.to_string ~indent:2 sample_json in
  match Simkit.Json.of_string text with
  | Ok parsed -> checkb "pretty roundtrip" true (Simkit.Json.equal parsed sample_json)
  | Error e -> Alcotest.fail e

let test_json_escapes () =
  let v = Simkit.Json.String "line\nwith \"quotes\" and \\slash\\ and\ttab" in
  match Simkit.Json.of_string (Simkit.Json.to_string v) with
  | Ok parsed -> checkb "escape roundtrip" true (Simkit.Json.equal parsed v)
  | Error e -> Alcotest.fail e

(* The parser has no literal for nan or infinity, so the writer emits
   null for them: every document [to_string] writes must parse back. *)
let test_json_non_finite_floats () =
  let doc =
    Simkit.Json.Obj
      [ ("nan", Simkit.Json.Float nan);
        ("inf", Simkit.Json.Float infinity);
        ("neg_inf", Simkit.Json.Float neg_infinity);
        ("finite", Simkit.Json.Float 0.5) ]
  in
  let expected =
    Simkit.Json.Obj
      [ ("nan", Simkit.Json.Null);
        ("inf", Simkit.Json.Null);
        ("neg_inf", Simkit.Json.Null);
        ("finite", Simkit.Json.Float 0.5) ]
  in
  List.iter
    (fun indent ->
      match Simkit.Json.of_string (Simkit.Json.to_string ~indent doc) with
      | Ok parsed -> checkb "non-finite floats read back as null" true
                       (Simkit.Json.equal parsed expected)
      | Error e -> Alcotest.fail e)
    [ 0; 2 ]

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Simkit.Json.of_string bad with
      | Ok _ -> Alcotest.failf "should not parse: %s" bad
      | Error _ -> ())
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "nul"; "1 2"; "" ]

let test_json_of_string_exn_invalid_arg () =
  (* Exception-style regression: every other [_exn] in the repo raises
     Invalid_argument; of_string_exn used to raise Failure. *)
  (match Simkit.Json.of_string_exn "{\"a\": 1}" with
   | Simkit.Json.Obj _ -> ()
   | _ -> Alcotest.fail "expected an object");
  List.iter
    (fun bad ->
      match Simkit.Json.of_string_exn bad with
      | _ -> Alcotest.failf "should raise on %S" bad
      | exception Invalid_argument _ -> ()
      | exception exn ->
        Alcotest.failf "wrong exception for %S: %s" bad (Printexc.to_string exn))
    [ "{"; "[1,"; "nul"; "" ]

let test_json_members () =
  check Alcotest.(option string) "string member" (Some "node-1")
    (Simkit.Json.string_member "name" sample_json);
  check Alcotest.(option int) "int member" (Some 8)
    (Simkit.Json.int_member "cores" sample_json);
  check
    Alcotest.(option (float 1e-9))
    "float member" (Some 2.5)
    (Simkit.Json.float_member "freq" sample_json);
  check Alcotest.(option bool) "bool member" (Some true)
    (Simkit.Json.bool_member "ok" sample_json);
  checkb "missing member" true (Simkit.Json.member "nope" sample_json = None)

let test_json_diff () =
  let a = Simkit.Json.Obj [ ("x", Simkit.Json.Int 1); ("y", Simkit.Json.Int 2) ] in
  let b = Simkit.Json.Obj [ ("x", Simkit.Json.Int 1); ("y", Simkit.Json.Int 3) ] in
  match Simkit.Json.diff a b with
  | [ (path, Some (Simkit.Json.Int 2), Some (Simkit.Json.Int 3)) ] ->
    check Alcotest.string "path" "y" path
  | _ -> Alcotest.fail "expected one diff on y"

let test_json_diff_nested_and_missing () =
  let a =
    Simkit.Json.Obj
      [ ("inner", Simkit.Json.Obj [ ("k", Simkit.Json.Bool true) ]);
        ("only_a", Simkit.Json.Int 1) ]
  in
  let b = Simkit.Json.Obj [ ("inner", Simkit.Json.Obj [ ("k", Simkit.Json.Bool false) ]) ] in
  let diffs = Simkit.Json.diff a b in
  checki "two differences" 2 (List.length diffs);
  checkb "nested path present" true (List.exists (fun (p, _, _) -> p = "inner/k") diffs);
  checkb "missing member reported" true
    (List.exists (fun (p, _, o) -> p = "only_a" && o = None) diffs)

let test_json_diff_identical () =
  checki "no diff on equal docs" 0 (List.length (Simkit.Json.diff sample_json sample_json));
  (* [equal] walks two lists in step: one ending first is a mismatch. *)
  let open Simkit.Json in
  checkb "list prefix not equal" false (equal (List [ Int 1 ]) (List [ Int 1; Int 2 ]));
  checkb "member prefix not equal" false
    (equal (Obj [ ("a", Int 1); ("b", Int 2) ]) (Obj [ ("a", Int 1) ]))

let prop_json_roundtrip =
  let rec gen_json depth =
    let open QCheck.Gen in
    if depth = 0 then
      oneof
        [ map (fun i -> Simkit.Json.Int i) small_int;
          map (fun b -> Simkit.Json.Bool b) bool;
          map (fun s -> Simkit.Json.String s) (string_size (return 5) ~gen:printable);
          return Simkit.Json.Null ]
    else
      frequency
        [ (2, gen_json 0);
          ( 1,
            map (fun l -> Simkit.Json.List l) (list_size (int_bound 4) (gen_json (depth - 1)))
          );
          ( 1,
            map
              (fun kvs ->
                (* Keys must be unique for the order-sensitive equality. *)
                let _, members =
                  List.fold_left
                    (fun (i, acc) v -> (i + 1, (Printf.sprintf "k%d" i, v) :: acc))
                    (0, []) kvs
                in
                Simkit.Json.Obj (List.rev members))
              (list_size (int_bound 4) (gen_json (depth - 1))) ) ]
  in
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:300
    (QCheck.make (gen_json 3))
    (fun doc ->
      match Simkit.Json.of_string (Simkit.Json.to_string doc) with
      | Ok parsed -> Simkit.Json.equal parsed doc
      | Error _ -> false)

(* The walk [Json.diff] made before it pruned equal subtrees: every member
   of every object is visited, equal or not. *)
let unpruned_diff reference actual =
  let open Simkit.Json in
  let out = ref [] in
  let record path a b = out := (path, a, b) :: !out in
  let rec go path a b =
    match (a, b) with
    | Obj ma, Obj mb ->
      let keys = List.sort_uniq String.compare (List.map fst ma @ List.map fst mb) in
      List.iter
        (fun k ->
          let sub = if path = "" then k else path ^ "/" ^ k in
          match (List.assoc_opt k ma, List.assoc_opt k mb) with
          | Some va, Some vb -> go sub va vb
          | Some va, None -> record sub (Some va) None
          | None, Some vb -> record sub None (Some vb)
          | None, None -> ())
        keys
    | List la, List lb when List.length la = List.length lb ->
      List.iteri (fun i (va, vb) -> go (Printf.sprintf "%s/%d" path i) va vb)
        (List.combine la lb)
    | a, b -> if not (equal a b) then record path (Some a) (Some b)
  in
  go "" reference actual;
  List.rev !out

(* Documents over a small key set, so objects share and repeat keys, with
   integral floats so [Int n] meets [Float n]. *)
let rec gen_diff_doc depth =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun i -> Simkit.Json.Int i) (int_bound 3);
        map (fun i -> Simkit.Json.Float (float_of_int i)) (int_bound 3);
        map (fun b -> Simkit.Json.Bool b) bool;
        map (fun s -> Simkit.Json.String s) (oneofl [ "x"; "y" ]);
        return Simkit.Json.Null ]
  in
  if depth = 0 then leaf
  else
    frequency
      [ (1, leaf);
        (1, map (fun l -> Simkit.Json.List l) (list_size (int_bound 3) (gen_diff_doc (depth - 1))));
        ( 3,
          map
            (fun l -> Simkit.Json.Obj l)
            (list_size (int_bound 4)
               (pair (oneofl [ "a"; "b"; "c"; "d" ]) (gen_diff_doc (depth - 1)))) ) ]

(* A copy of [doc] with one change somewhere below the root: a leaf, an
   [Int]/[Float] swap, reordered, duplicated or dropped members, a list of
   another length, [Null] — or no change at all.  Most changes sit under
   objects whose key lists stay the same. *)
let rec gen_diff_mutant doc =
  let open QCheck.Gen in
  let open Simkit.Json in
  let here =
    match doc with
    | Int n -> oneofl [ Float (float_of_int n); Int (n + 1); Null ]
    | Float f -> oneofl [ Int (int_of_float f); Float (f +. 0.5); Null ]
    | Obj [] -> oneofl [ Null; Obj [ ("a", Null) ] ]
    | Obj ((k, v) :: rest as ms) ->
      oneofl [ Obj (List.rev ms); Obj (ms @ [ (k, Int 7) ]); Obj rest; Obj (rest @ [ (k, v) ]) ]
    | List l -> oneofl [ List (Null :: l); List (List.rev l); Null ]
    | Null | Bool _ | String _ -> oneofl [ Bool true; String "z"; Int 0 ]
  in
  let below =
    match doc with
    | Obj (_ :: _ as ms) ->
      int_bound (List.length ms - 1) >>= fun i ->
      let k, v = List.nth ms i in
      gen_diff_mutant v >|= fun v' ->
      Obj (List.mapi (fun j m -> if j = i then (k, v') else m) ms)
    | List (_ :: _ as l) ->
      int_bound (List.length l - 1) >>= fun i ->
      gen_diff_mutant (List.nth l i) >|= fun v' ->
      List (List.mapi (fun j x -> if j = i then v' else x) l)
    | _ -> here
  in
  frequency [ (1, return doc); (2, here); (4, below) ]

let prop_json_diff_pruned =
  QCheck.Test.make ~name:"json diff with pruning = unpruned walk" ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> Simkit.Json.to_string a ^ " vs " ^ Simkit.Json.to_string b)
       QCheck.Gen.(
         gen_diff_doc 3 >>= fun doc ->
         gen_diff_mutant doc >>= fun mutant ->
         bool >|= fun swap -> if swap then (mutant, doc) else (doc, mutant)))
    (fun (a, b) -> Simkit.Json.diff a b = unpruned_diff a b)

(* ---- Table ------------------------------------------------------------------ *)

let test_table_render () =
  let out =
    Simkit.Table.render ~header:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333"; "4" ] ]
  in
  checkb "contains header" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    List.exists (fun l -> String.length l > 0 && l.[0] = '|') lines)

let test_table_pads_short_rows () =
  let out = Simkit.Table.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  checkb "renders" true (String.length out > 0)

let test_table_fmt () =
  check Alcotest.string "float" "3.14" (Simkit.Table.fmt_float 3.14159);
  check Alcotest.string "nan" "-" (Simkit.Table.fmt_float nan);
  check Alcotest.string "pct" "85.0%" (Simkit.Table.fmt_pct 0.85)

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "simkit"
    [
      ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int uniformish" `Slow test_prng_int_uniformish;
          Alcotest.test_case "int_in" `Quick test_prng_int_in;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_prng_sample_without_replacement ] );
      ( "dist",
        [ Alcotest.test_case "means" `Slow test_dist_means;
          Alcotest.test_case "mixture" `Quick test_dist_mixture;
          Alcotest.test_case "pareto infinite mean" `Quick test_dist_pareto_mean_infinite;
          Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          qc prop_zipf_table_matches_per_call;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          Alcotest.test_case "poisson large mean" `Quick test_poisson_large_mean ] );
      ( "heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "to_list sorted" `Quick test_heap_to_list_sorted;
          Alcotest.test_case "pop releases value" `Quick test_heap_pop_releases_value;
          qc prop_heap_sorts;
          qc prop_heap_model ] );
      ( "intset",
        [ Alcotest.test_case "basics" `Quick test_intset_basics;
          qc prop_intset_model ] );
      ( "engine",
        [ Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "every stops" `Quick test_engine_every_stops;
          Alcotest.test_case "past schedule clamped" `Quick
            test_engine_past_schedule_clamped;
          Alcotest.test_case "observer sees labels" `Quick
            test_engine_observer_labels;
          Alcotest.test_case "cancel after fire leaks nothing" `Quick
            test_engine_cancel_after_fire_no_leak;
          Alcotest.test_case "cancel within same instant" `Quick
            test_engine_cancel_same_instant;
          Alcotest.test_case "run_until over cancelled prefix" `Quick
            test_engine_run_until_cancelled_prefix;
          Alcotest.test_case "next_time stepping = run_until" `Quick
            test_engine_next_time_matches_run_until;
          Alcotest.test_case "jitter 0 draws nothing" `Quick
            test_engine_jitter_zero_draws_nothing;
          Alcotest.test_case "jitter stream isolated" `Quick
            test_engine_jitter_isolated;
          qc prop_engine_pending_consistent;
          qc prop_engine_nested_order ] );
      ( "calendar",
        [ Alcotest.test_case "basics" `Quick test_calendar_basics;
          Alcotest.test_case "weekend" `Quick test_calendar_weekend;
          Alcotest.test_case "peak hours" `Quick test_calendar_peak_hours;
          Alcotest.test_case "render" `Quick test_calendar_render ] );
      ( "stats",
        [ Alcotest.test_case "online" `Quick test_online_stats;
          Alcotest.test_case "merge" `Quick test_online_merge;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile float order" `Quick
            test_percentile_float_order;
          Alcotest.test_case "histogram" `Quick test_histogram ] );
      ( "timeseries",
        [ Alcotest.test_case "basic" `Quick test_timeseries_basic;
          Alcotest.test_case "monotonic guard" `Quick test_timeseries_monotonic_guard;
          Alcotest.test_case "downsample" `Quick test_timeseries_downsample;
          Alcotest.test_case "downsample negative times" `Quick
            test_timeseries_downsample_negative_times;
          Alcotest.test_case "empty window" `Quick test_timeseries_empty_window;
          Alcotest.test_case "sparkline width" `Quick test_timeseries_sparkline_width ] );
      ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "pretty roundtrip" `Quick test_json_pretty_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "non-finite floats" `Quick test_json_non_finite_floats;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "of_string_exn raises Invalid_argument" `Quick
            test_json_of_string_exn_invalid_arg;
          Alcotest.test_case "members" `Quick test_json_members;
          Alcotest.test_case "diff" `Quick test_json_diff;
          Alcotest.test_case "diff nested/missing" `Quick test_json_diff_nested_and_missing;
          Alcotest.test_case "diff identical" `Quick test_json_diff_identical;
          qc prop_json_roundtrip;
          qc prop_json_diff_pruned ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "fmt" `Quick test_table_fmt ] );
    ]
