type interval = { start : float; stop : float; job : int }

(* One mutable cell per host, never replaced, so [prune] can shorten
   lists in place and callers may hold a cell. *)
type slot = { host : string; mutable intervals : interval list }

type t = {
  slots : (string, slot) Hashtbl.t;
  by_job : (int, string list) Hashtbl.t;
      (* hosts a job has (or had) reservations on, so [release_job]
         touches only those instead of folding over the whole cluster;
         entries may go stale after [truncate]/[prune] (releasing a
         host the job no longer occupies is a no-op) and are dropped on
         [release_job] *)
}
(* Interval lists are kept sorted by [start] and non-overlapping, so
   they are sorted by [stop] too, and all starts are distinct. *)

let create () = { slots = Hashtbl.create 1024; by_job = Hashtbl.create 256 }

let get t host =
  match Hashtbl.find t.slots host with
  | slot -> slot.intervals
  | exception Not_found -> []

let slot t host =
  match Hashtbl.find t.slots host with
  | slot -> slot
  | exception Not_found ->
    let slot = { host; intervals = [] } in
    Hashtbl.add t.slots host slot;
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
  let hosts = try Hashtbl.find t.by_job job with Not_found -> [] in
  if not (List.mem slot.host hosts) then Hashtbl.replace t.by_job job (slot.host :: hosts)

let reserve t ~host ~start ~stop ~job = reserve_slot t (slot t host) ~start ~stop ~job

let release t ~host ~job =
  set t host (List.filter (fun i -> i.job <> job) (get t host));
  match Hashtbl.find_opt t.by_job job with
  | Some hosts when List.mem host hosts ->
    Hashtbl.replace t.by_job job (List.filter (fun h -> h <> host) hosts)
  | _ -> ()

let release_job t ~job =
  match Hashtbl.find_opt t.by_job job with
  | None -> ()
  | Some hosts ->
    Hashtbl.remove t.by_job job;
    List.iter
      (fun host -> set t host (List.filter (fun i -> i.job <> job) (get t host)))
      hosts

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

let rec scan_windows ~duration candidate = function
  | [] -> candidate
  | i :: rest ->
    if i.stop <= candidate then scan_windows ~duration candidate rest
    else if i.start >= candidate +. duration then candidate
    else scan_windows ~duration (Float.max candidate i.stop) rest

let next_free_window t ~host ~after ~duration = scan_windows ~duration after (get t host)
let slot_next_free_window slot ~after ~duration = scan_windows ~duration after slot.intervals

let reservations t ~host = List.map (fun i -> (i.start, i.stop, i.job)) (get t host)

(* Stops are sorted, so the expired intervals are a prefix; dropping it
   shares the rest of the list, and a host with nothing expired is left
   untouched. *)
let rec drop_expired ~before = function
  | i :: rest when i.stop < before -> drop_expired ~before rest
  | live -> live

let prune t ~before =
  Hashtbl.iter (fun _ slot -> slot.intervals <- drop_expired ~before slot.intervals) t.slots

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
