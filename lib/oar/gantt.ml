type interval = { start : float; stop : float; job : int }

type t = {
  slots : (string, interval list) Hashtbl.t;
  by_job : (int, string list) Hashtbl.t;
      (* hosts a job has (or had) reservations on, so [release_job]
         touches only those instead of folding over the whole cluster;
         entries may go stale after [truncate]/[prune] (releasing a
         host the job no longer occupies is a no-op) and are dropped on
         [release_job] *)
}
(* Interval lists are kept sorted by [start] and non-overlapping. *)

let create () = { slots = Hashtbl.create 1024; by_job = Hashtbl.create 256 }

let get t host = Option.value ~default:[] (Hashtbl.find_opt t.slots host)
let set t host intervals = Hashtbl.replace t.slots host intervals

let overlaps a b = a.start < b.stop && b.start < a.stop

let reserve t ~host ~start ~stop ~job =
  if stop <= start then invalid_arg "Gantt.reserve: empty interval";
  let interval = { start; stop; job } in
  let existing = get t host in
  if List.exists (overlaps interval) existing then
    invalid_arg "Gantt.reserve: overlapping reservation";
  let sorted =
    List.sort (fun a b -> compare a.start b.start) (interval :: existing)
  in
  set t host sorted;
  let hosts = Option.value ~default:[] (Hashtbl.find_opt t.by_job job) in
  if not (List.mem host hosts) then Hashtbl.replace t.by_job job (host :: hosts)

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

let is_free t ~host ~start ~stop =
  let probe = { start; stop; job = -1 } in
  not (List.exists (overlaps probe) (get t host))

let next_free_window t ~host ~after ~duration =
  let intervals = get t host in
  let rec scan candidate = function
    | [] -> candidate
    | i :: rest ->
      if i.stop <= candidate then scan candidate rest
      else if i.start >= candidate +. duration then candidate
      else scan (Float.max candidate i.stop) rest
  in
  scan after intervals

let reservations t ~host = List.map (fun i -> (i.start, i.stop, i.job)) (get t host)

let prune t ~before =
  let hosts = Hashtbl.fold (fun host _ acc -> host :: acc) t.slots [] in
  List.iter
    (fun host ->
      let intervals = get t host in
      (* Only rebuild lists that actually hold expired intervals. *)
      if List.exists (fun i -> i.stop < before) intervals then
        set t host (List.filter (fun i -> i.stop >= before) intervals))
    hosts

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
