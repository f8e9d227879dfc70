type evidence = {
  signature : string;
  summary : string;
  category : string;
  source_test : string;
  fault_ids : int list;
}

type status = Open | Fixed

type bug = {
  id : int;
  signature : string;
  summary : string;
  category : string;
  first_test : string;
  filed_at : float;
  mutable fault_ids : int list;
  mutable occurrences : int;
  mutable status : status;
  mutable fixed_at : float option;
  mutable last_seen : float;
  mutable reopens : int;
  mutable recent : evidence list;  (* newest first; ring-bounded with limits *)
  series : Simkit.Timeseries.t option;
}

type limits = {
  ring_size : int;
  max_live : int;
  min_idle : float;
  series_cadence : float;
  series_points : int;
}

let default_limits =
  {
    ring_size = 8;
    max_live = 50_000;
    min_idle = 6.0 *. 3600.0;
    series_cadence = 24.0 *. 3600.0;
    series_points = 256;
  }

type event =
  | Filed of bug
  | Refiled of bug
  | Reopened of bug
  | Marked_fixed of bug
  | Evicted of bug
  | Resurrected of bug

type stats = {
  live : int;
  filed_total : int;
  fixed_total : int;
  evicted : int;
  resurrected : int;
  tombstoned_occurrences : int;
  peak_live : int;
}

type t = {
  by_signature : (string, bug) Hashtbl.t;
  mutable bugs : bug list;  (* live bugs, newest first *)
  mutable next_id : int;
  limits : limits option;
  tombstones : (string, bug) Hashtbl.t;  (* evicted cold bugs, rings cleared *)
  mutable live_count : int;
  mutable filed_total : int;  (* distinct signatures ever filed (live + evicted) *)
  mutable fixed_live : int;
  mutable fixed_tomb : int;
  mutable evicted_count : int;
  mutable resurrected_count : int;
  mutable tombstone_occ : int;
  mutable peak_live : int;
  mutable listeners : (event -> unit) list;
}

let create ?limits () =
  (match limits with
   | Some l ->
     if l.ring_size <= 0 then invalid_arg "Bugtracker.create: ring_size must be positive";
     if l.max_live <= 0 then invalid_arg "Bugtracker.create: max_live must be positive";
     if l.min_idle < 0.0 then invalid_arg "Bugtracker.create: min_idle must be non-negative";
     if l.series_cadence <= 0.0 then
       invalid_arg "Bugtracker.create: series_cadence must be positive";
     if l.series_points < 2 then
       invalid_arg "Bugtracker.create: series_points must be at least 2"
   | None -> ());
  {
    by_signature = Hashtbl.create 256;
    bugs = [];
    next_id = 1;
    limits;
    tombstones = Hashtbl.create 64;
    live_count = 0;
    filed_total = 0;
    fixed_live = 0;
    fixed_tomb = 0;
    evicted_count = 0;
    resurrected_count = 0;
    tombstone_occ = 0;
    peak_live = 0;
    listeners = [];
  }

let on_event t f = t.listeners <- t.listeners @ [ f ]
let emit t event = List.iter (fun f -> f event) t.listeners

let record_occurrence t ~now (evidence : evidence) bug =
  bug.last_seen <- now;
  (match t.limits with
   | None -> ()
   | Some l ->
     let ring = evidence :: bug.recent in
     bug.recent <-
       (if List.length ring > l.ring_size then List.filteri (fun i _ -> i < l.ring_size) ring
        else ring));
  match bug.series with
  | Some series -> Simkit.Timeseries.add_binned series ~time:now 1.0
  | None -> ()

let reopen t bug =
  bug.status <- Open;
  bug.fixed_at <- None;
  bug.reopens <- bug.reopens + 1;
  if Hashtbl.mem t.by_signature bug.signature then t.fixed_live <- t.fixed_live - 1
  else t.fixed_tomb <- t.fixed_tomb - 1

(* Insert a resurrected bug back into the live list at its id-ordered
   position, so [all] keeps returning bugs in filing order. *)
let insert_by_id bugs bug =
  (* newest first = descending id *)
  let rec go = function
    | [] -> [ bug ]
    | b :: rest as l -> if b.id < bug.id then bug :: l else b :: go rest
  in
  go bugs

(* Cold-bug eviction: batched, down to 90% of the cap so the store is
   not re-sorted on every filing.  Evicted bugs become tombstones that
   keep their occurrence counts (dedup stays correct), with an explicit
   counter — nothing is silently dropped. *)
let evict_bug t bug =
  Hashtbl.remove t.by_signature bug.signature;
  bug.recent <- [];
  Hashtbl.replace t.tombstones bug.signature bug;
  t.live_count <- t.live_count - 1;
  t.evicted_count <- t.evicted_count + 1;
  t.tombstone_occ <- t.tombstone_occ + bug.occurrences;
  if bug.status = Fixed then begin
    t.fixed_live <- t.fixed_live - 1;
    t.fixed_tomb <- t.fixed_tomb + 1
  end;
  emit t (Evicted bug)

let maybe_evict t ~now =
  match t.limits with
  | None -> ()
  | Some l ->
    if t.live_count > l.max_live then begin
      let target = Stdlib.max 1 (l.max_live * 9 / 10) in
      let coldest_first =
        List.sort
          (fun a b ->
            match compare a.last_seen b.last_seen with 0 -> compare a.id b.id | c -> c)
          t.bugs
      in
      let evicted = Hashtbl.create 64 in
      (* First pass respects the idle grace period; the second ignores it
         if hot bugs alone exceed the cap, so the bound is always met. *)
      let sweep ~respect_idle =
        List.iter
          (fun bug ->
            if
              t.live_count > target
              && (not (Hashtbl.mem evicted bug.id))
              && ((not respect_idle) || now -. bug.last_seen >= l.min_idle)
            then begin
              Hashtbl.replace evicted bug.id ();
              evict_bug t bug
            end)
          coldest_first
      in
      sweep ~respect_idle:true;
      if t.live_count > l.max_live then sweep ~respect_idle:false;
      if Hashtbl.length evicted > 0 then
        t.bugs <- List.filter (fun b -> not (Hashtbl.mem evicted b.id)) t.bugs
    end

let file t ~now (evidence : evidence) =
  let result =
    match Hashtbl.find_opt t.by_signature evidence.signature with
    | Some bug ->
      bug.occurrences <- bug.occurrences + 1;
      bug.fault_ids <-
        List.sort_uniq compare (evidence.fault_ids @ bug.fault_ids);
      let reopened = bug.status = Fixed in
      if reopened then
        (* Regression: the problem came back. *)
        reopen t bug;
      record_occurrence t ~now evidence bug;
      if reopened then emit t (Reopened bug);
      emit t (Refiled bug);
      `Duplicate bug
    | None -> (
      match Hashtbl.find_opt t.tombstones evidence.signature with
      | Some bug ->
        (* Resurrection: an evicted signature recurred.  The tombstone
           count carries over, so dedup and occurrence totals behave as
           if the bug had never left the store. *)
        Hashtbl.remove t.tombstones evidence.signature;
        t.tombstone_occ <- t.tombstone_occ - bug.occurrences;
        bug.occurrences <- bug.occurrences + 1;
        bug.fault_ids <-
          List.sort_uniq compare (evidence.fault_ids @ bug.fault_ids);
        let reopened = bug.status = Fixed in
        (* [reopen] sees the bug as non-live here, so the fixed-tombstone
           counter is the one decremented — which is where this bug's
           Fixed status was accounted. *)
        if reopened then reopen t bug;
        Hashtbl.replace t.by_signature evidence.signature bug;
        t.bugs <- insert_by_id t.bugs bug;
        t.live_count <- t.live_count + 1;
        t.resurrected_count <- t.resurrected_count + 1;
        record_occurrence t ~now evidence bug;
        if reopened then emit t (Reopened bug);
        emit t (Resurrected bug);
        `Duplicate bug
      | None ->
        let bug =
          {
            id = t.next_id;
            signature = evidence.signature;
            summary = evidence.summary;
            category = evidence.category;
            first_test = evidence.source_test;
            filed_at = now;
            fault_ids = List.sort_uniq compare evidence.fault_ids;
            occurrences = 1;
            status = Open;
            fixed_at = None;
            last_seen = now;
            reopens = 0;
            recent = [];
            series =
              Option.map
                (fun l ->
                  Simkit.Timeseries.create ~capacity:8 ~cadence:l.series_cadence
                    ~max_points:l.series_points
                    ~name:(Printf.sprintf "bug-%d" t.next_id)
                    ())
                t.limits;
          }
        in
        t.next_id <- t.next_id + 1;
        Hashtbl.replace t.by_signature evidence.signature bug;
        t.bugs <- bug :: t.bugs;
        t.live_count <- t.live_count + 1;
        t.filed_total <- t.filed_total + 1;
        record_occurrence t ~now evidence bug;
        emit t (Filed bug);
        `New bug)
  in
  maybe_evict t ~now;
  t.peak_live <- Stdlib.max t.peak_live t.live_count;
  result

let all t = List.rev t.bugs
let open_bugs t = List.filter (fun b -> b.status = Open) (all t)
let find t ~signature = Hashtbl.find_opt t.by_signature signature

let tombstoned t =
  Hashtbl.fold (fun _ bug acc -> bug :: acc) t.tombstones []
  |> List.sort (fun a b -> compare a.id b.id)

let occurrences_of t ~signature =
  match Hashtbl.find_opt t.by_signature signature with
  | Some bug -> bug.occurrences
  | None -> (
    match Hashtbl.find_opt t.tombstones signature with
    | Some bug -> bug.occurrences
    | None -> 0)

let mark_fixed t ~now bug =
  if bug.status = Open then begin
    bug.status <- Fixed;
    bug.fixed_at <- Some now;
    if Hashtbl.mem t.by_signature bug.signature then
      t.fixed_live <- t.fixed_live + 1
    else t.fixed_tomb <- t.fixed_tomb + 1;
    emit t (Marked_fixed bug)
  end

let counts t = (t.filed_total, t.fixed_live + t.fixed_tomb)

let stats t =
  {
    live = t.live_count;
    filed_total = t.filed_total;
    fixed_total = t.fixed_live + t.fixed_tomb;
    evicted = t.evicted_count;
    resurrected = t.resurrected_count;
    tombstoned_occurrences = t.tombstone_occ;
    peak_live = t.peak_live;
  }

let by_category t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun bug ->
      let filed, fixed = Option.value ~default:(0, 0) (Hashtbl.find_opt table bug.category) in
      Hashtbl.replace table bug.category
        (filed + 1, if bug.status = Fixed then fixed + 1 else fixed))
    t.bugs;
  (* Evicted signatures still count: the category totals must match the
     maintained counters, not just the live working set. *)
  Hashtbl.iter
    (fun _ bug ->
      let filed, fixed = Option.value ~default:(0, 0) (Hashtbl.find_opt table bug.category) in
      Hashtbl.replace table bug.category
        (filed + 1, if bug.status = Fixed then fixed + 1 else fixed))
    t.tombstones;
  Hashtbl.fold (fun category (filed, fixed) acc -> (category, filed, fixed) :: acc) table []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
