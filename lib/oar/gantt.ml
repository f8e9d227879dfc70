type interval = { start : float; stop : float; job : int }

(* One mutable cell per host, never replaced, so [prune] can shorten
   lists in place and callers may hold a cell. *)
type slot = { mutable intervals : interval list }

type t = {
  slots : (string, slot) Hashtbl.t;
  mutable order : slot array;  (* [count] slots in registration order *)
  mutable count : int;
  by_job : (int, slot list) Hashtbl.t;
      (* slots a job has (or had) reservations on, so [release_job]
         touches only those instead of folding over the whole cluster;
         entries may go stale after [truncate]/[prune] (releasing a
         slot the job no longer occupies is a no-op) and are dropped on
         [release_job] *)
}
(* Interval lists are kept sorted by [start] and non-overlapping, so
   they are sorted by [stop] too, and all starts are distinct. *)

let create () =
  { slots = Hashtbl.create 1024; order = [||]; count = 0; by_job = Hashtbl.create 256 }

let get t host =
  match Hashtbl.find t.slots host with
  | slot -> slot.intervals
  | exception Not_found -> []

let slot t host =
  match Hashtbl.find t.slots host with
  | slot -> slot
  | exception Not_found ->
    let slot = { intervals = [] } in
    Hashtbl.add t.slots host slot;
    if t.count = Array.length t.order then
      t.order <- Array.append t.order (Array.make (max 8 t.count) slot);
    t.order.(t.count) <- slot;
    t.count <- t.count + 1;
    slot

let set t host intervals = (slot t host).intervals <- intervals

let overlaps a b = a.start < b.stop && b.start < a.stop

let reserve_slot t slot ~start ~stop ~job =
  if stop <= start then invalid_arg "Gantt.reserve: empty interval";
  let interval = { start; stop; job } in
  let existing = slot.intervals in
  if List.exists (overlaps interval) existing then
    invalid_arg "Gantt.reserve: overlapping reservation";
  (* Starts are distinct, so the new interval has exactly one place in
     the order; only the intervals starting before it are copied. *)
  let rec insert = function
    | i :: rest when i.start < start -> i :: insert rest
    | later -> interval :: later
  in
  slot.intervals <- insert existing;
  let slots = try Hashtbl.find t.by_job job with Not_found -> [] in
  if not (List.memq slot slots) then Hashtbl.replace t.by_job job (slot :: slots)

let reserve t ~host ~start ~stop ~job = reserve_slot t (slot t host) ~start ~stop ~job

(* [intervals] without [job]'s; the suffix after the last one dropped is
   shared, so a list without any allocates nothing. *)
let rec without_job job = function
  | [] -> []
  | i :: rest as intervals ->
    let kept = without_job job rest in
    if i.job = job then kept else if kept == rest then intervals else i :: kept

let release t ~host ~job =
  let slot = slot t host in
  slot.intervals <- without_job job slot.intervals;
  match Hashtbl.find_opt t.by_job job with
  | Some slots when List.memq slot slots ->
    Hashtbl.replace t.by_job job (List.filter (( != ) slot) slots)
  | _ -> ()

let release_job t ~job =
  match Hashtbl.find_opt t.by_job job with
  | None -> ()
  | Some slots ->
    Hashtbl.remove t.by_job job;
    List.iter (fun slot -> slot.intervals <- without_job job slot.intervals) slots

let truncate t ~host ~job ~stop =
  let updated =
    List.filter_map
      (fun i ->
        if i.job <> job then Some i
        else if stop <= i.start then None
        else Some { i with stop = Float.min i.stop stop })
      (get t host)
  in
  set t host updated

(* Intervals are sorted by start, so the first one starting at or after
   [stop] ends the scan; allocates nothing. *)
let rec free_over ~start ~stop = function
  | [] -> true
  | i :: rest -> i.start >= stop || (i.stop <= start && free_over ~start ~stop rest)

let is_free t ~host ~start ~stop = free_over ~start ~stop (get t host)
let slot_is_free slot ~start ~stop = free_over ~start ~stop slot.intervals

(* The earliest [t >= after] free for [duration], stored at
   [windows.(k)]: the candidate stays an unboxed local, so a scan
   allocates nothing however many intervals it passes. *)
let slot_next_free_window_into windows k slot ~after ~duration =
  let candidate = ref after and rest = ref slot.intervals in
  while
    match !rest with
    | i :: tail when i.stop <= !candidate || i.start < !candidate +. duration ->
      if i.stop > !candidate then candidate := i.stop;
      rest := tail;
      true
    | _ -> false
  do
    ()
  done;
  Float.Array.set windows k !candidate

let next_free_window t ~host ~after ~duration =
  let w = Float.Array.create 1 in
  slot_next_free_window_into w 0 { intervals = get t host } ~after ~duration;
  Float.Array.get w 0

let reservations t ~host = List.map (fun i -> (i.start, i.stop, i.job)) (get t host)

(* Stops are sorted, so the expired intervals are a prefix; dropping it
   shares the rest of the list, and a host with nothing expired is left
   untouched. *)
let rec drop_expired ~before = function
  | i :: rest when i.stop < before -> drop_expired ~before rest
  | live -> live

let prune t ~before =
  for k = 0 to t.count - 1 do
    let slot = t.order.(k) in
    match slot.intervals with
    | i :: _ when i.stop < before -> slot.intervals <- drop_expired ~before slot.intervals
    | _ -> ()
  done

let utilisation t ~host ~lo ~hi =
  if hi <= lo then 0.0
  else begin
    let covered =
      List.fold_left
        (fun acc i ->
          let s = Float.max lo i.start and e = Float.min hi i.stop in
          if e > s then acc +. (e -. s) else acc)
        0.0 (get t host)
    in
    covered /. (hi -. lo)
  end
