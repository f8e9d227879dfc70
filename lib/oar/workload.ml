type profile = {
  base_rate_per_hour : float;
  peak_multiplier : float;
  users : int;
  small_max_nodes : int;
  whole_cluster_share : float;
}

let default_profile =
  {
    base_rate_per_hour = 20.0;
    peak_multiplier = 3.0;
    users = 550;
    small_max_nodes = 4;
    whole_cluster_share = 0.02;
  }

type t = {
  manager : Manager.t;
  rng : Simkit.Prng.t;
  prof : profile;
  mutable running : bool;
  mutable count : int;
  in_flight : int array;  (* cluster index -> queued+running jobs *)
  job_cluster : (int, int) Hashtbl.t;  (* job id -> cluster index *)
}

(* Everything a request depends on that the inventory fixes, built once
   at module initialisation and never mutated (so domains may share
   it): cluster [i] is [Inventory.clusters]'s [i]-th, which is Zipf
   rank [i + 1]. *)
let clusters = Array.of_list Testbed.Inventory.clusters

let filters =
  Array.map
    (fun spec -> Expr.parse_exn (Printf.sprintf "cluster='%s'" spec.Testbed.Inventory.cluster))
    clusters

(* Users stop piling onto a saturated cluster: the backlog they tolerate
   is bounded, which keeps the simulated queue (and the scheduler's Gantt)
   from growing without bound on popular clusters. *)
let backlog_limits =
  Array.map (fun spec -> Stdlib.max 8 spec.Testbed.Inventory.nodes) clusters

(* Zipf-weighted popularity: a few clusters absorb most jobs, which is
   what makes whole-cluster availability rare there. *)
let popularity = Simkit.Dist.zipf_table ~n:(Array.length clusters) ~s:1.1

let scale prof factor =
  if not (factor > 0.0) then invalid_arg "Workload.scale: factor must be positive";
  {
    prof with
    base_rate_per_hour = prof.base_rate_per_hour *. factor;
    users = max 1 (int_of_float (Float.round (float_of_int prof.users *. factor)));
  }

let profile t = t.prof
let submitted t = t.count
let stop t = t.running <- false

let make_request t =
  let rng = t.rng in
  let cluster = Simkit.Dist.zipf_sample rng popularity - 1 in
  let walltime =
    (* Median ~1.5 h with a heavy tail capped at 24 h. *)
    Float.min (24.0 *. 3600.0)
      (Simkit.Dist.sample rng (Simkit.Dist.Lognormal (8.6, 1.0)))
  in
  let u = Simkit.Prng.float rng in
  let count =
    if u < t.prof.whole_cluster_share then `All
    else if u < 0.75 then `N (Simkit.Prng.int_in rng 1 t.prof.small_max_nodes)
    else if u < 0.95 then `N (Simkit.Prng.int_in rng 5 16)
    else `N (Simkit.Prng.int_in rng 17 40)
  in
  let request =
    { Request.groups = [ { Request.filter = filters.(cluster); count } ]; walltime }
  in
  let duration = walltime *. (0.3 +. (0.7 *. Simkit.Prng.float rng)) in
  (cluster, request, duration)

let rate_at prof time =
  let base = prof.base_rate_per_hour /. 3600.0 in
  if Simkit.Calendar.is_peak_hours time then base *. prof.peak_multiplier
  else if Simkit.Calendar.is_weekend time then base *. 0.5
  else base

let start ?(profile = default_profile) ~rng manager =
  let t =
    { manager; rng; prof = profile; running = true; count = 0;
      in_flight = Array.make (Array.length clusters) 0; job_cluster = Hashtbl.create 256 }
  in
  Manager.on_job_end manager (fun job ->
      match Hashtbl.find t.job_cluster job.Job.id with
      | cluster ->
        Hashtbl.remove t.job_cluster job.Job.id;
        t.in_flight.(cluster) <- Stdlib.max 0 (t.in_flight.(cluster) - 1)
      | exception Not_found -> ());
  let engine = (Manager.instance manager).Testbed.Instance.engine in
  let peak_rate = profile.base_rate_per_hour /. 3600.0 *. profile.peak_multiplier in
  (* Thinning (Lewis-Shedler) for the non-homogeneous Poisson process. *)
  let rec next_arrival () =
    if t.running then begin
      let gap = Simkit.Dist.exponential t.rng ~mean:(1.0 /. peak_rate) in
      ignore
        (Simkit.Engine.schedule engine ~label:"workload" ~delay:gap (fun eng ->
             let time = Simkit.Engine.now eng in
             if t.running then begin
               if Simkit.Prng.chance t.rng (rate_at t.prof time /. peak_rate) then begin
                 let cluster, request, duration = make_request t in
                 if t.in_flight.(cluster) < backlog_limits.(cluster) then begin
                   let user =
                     Printf.sprintf "user%03d" (Simkit.Prng.int t.rng t.prof.users)
                   in
                   let jtype =
                     if Simkit.Prng.chance t.rng 0.3 then Job.Deploy else Job.Default
                   in
                   match Manager.submit t.manager ~user ~jtype ~duration request with
                   | Ok job ->
                     t.count <- t.count + 1;
                     Hashtbl.replace t.job_cluster job.Job.id cluster;
                     t.in_flight.(cluster) <- t.in_flight.(cluster) + 1
                   | Error _ -> ()
                 end
               end;
               next_arrival ()
             end))
    end
  in
  next_arrival ();
  t
