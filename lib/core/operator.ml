type config = {
  fix_capacity_per_day : float;
  triage_delay : float;
  maintenance_period : float;
  maintenance_fault_rate : float;
  complaint_rate_per_day : float;
  prioritize_reopened : bool;
}

let default_config =
  {
    fix_capacity_per_day = 0.72;
    triage_delay = 2.0 *. Simkit.Calendar.day;
    maintenance_period = 10.0 *. Simkit.Calendar.day;
    maintenance_fault_rate = 0.8;
    complaint_rate_per_day = 0.05;
    prioritize_reopened = false;
  }

type t = {
  env : Env.t;
  tracker : Bugtracker.t;
  cfg : config;
  rng : Simkit.Prng.t;
  mutable running : bool;
  mutable credit : float;  (* accumulated fixing capacity *)
  mutable fixed : int;
  mutable windows : int;
}

let bugs_fixed t = t.fixed
let maintenance_windows t = t.windows
let stop t = t.running <- false

let fix_bug t bug =
  let faults = Env.faults t.env in
  let now = Env.now t.env in
  let history = Testbed.Faults.history faults in
  List.iter
    (fun fault_id ->
      match
        List.find_opt (fun f -> f.Testbed.Faults.id = fault_id) history
      with
      | Some fault -> Testbed.Faults.repair faults ~now fault
      | None -> ())
    bug.Bugtracker.fault_ids;
  Bugtracker.mark_fixed t.tracker ~now bug;
  (* A repaired description change must reach the OAR database too. *)
  Oar.Manager.refresh_properties t.env.Env.oar;
  t.fixed <- t.fixed + 1

let fixing_sweep t =
  let now = Env.now t.env in
  let period_days = 6.0 /. 24.0 in
  t.credit <- t.credit +. (t.cfg.fix_capacity_per_day *. period_days);
  let workable =
    Bugtracker.open_bugs t.tracker
    |> List.filter (fun b -> now -. b.Bugtracker.filed_at >= t.cfg.triage_delay)
  in
  let workable =
    (* Regressions first: a bug that keeps coming back blocks trust in
       the fix loop more than a fresh filing does.  Off by default so
       historical campaigns replay bit-for-bit. *)
    if t.cfg.prioritize_reopened then
      List.stable_sort
        (fun a b ->
          match compare b.Bugtracker.reopens a.Bugtracker.reopens with
          | 0 -> compare a.Bugtracker.filed_at b.Bugtracker.filed_at
          | c -> c)
        workable
    else workable
  in
  let rec work = function
    | [] -> ()
    | bug :: rest ->
      if t.credit >= 1.0 then begin
        t.credit <- t.credit -. 1.0;
        fix_bug t bug;
        work rest
      end
  in
  work workable;
  (* Capacity does not accumulate without bound: idle operators do other
     work. *)
  t.credit <- Float.min t.credit 3.0

let maintenance_window t =
  t.windows <- t.windows + 1;
  let faults = Env.faults t.env in
  let now = Env.now t.env in
  let n = Simkit.Dist.poisson t.rng ~mean:t.cfg.maintenance_fault_rate in
  let drift_kinds =
    [| Testbed.Faults.Cpu_cstates; Testbed.Faults.Cpu_hyperthreading;
       Testbed.Faults.Cpu_turbo; Testbed.Faults.Cpu_governor;
       Testbed.Faults.Bios_drift; Testbed.Faults.Disk_firmware;
       Testbed.Faults.Ram_dimm_loss; Testbed.Faults.Refapi_desync |]
  in
  for _ = 1 to n do
    ignore (Testbed.Faults.inject faults ~now (Simkit.Prng.choose t.rng drift_kinds))
  done

let complaint_sweep t =
  (* Once in a while a user reports a long-standing undetected problem. *)
  if Simkit.Prng.chance t.rng t.cfg.complaint_rate_per_day then begin
    let faults = Env.faults t.env in
    let now = Env.now t.env in
    let old_undetected =
      Testbed.Faults.active faults
      |> List.filter (fun f ->
             f.Testbed.Faults.detected_at = None
             && now -. f.Testbed.Faults.injected_at > 14.0 *. Simkit.Calendar.day)
    in
    match old_undetected with
    | [] -> ()
    | fault :: _ ->
      Testbed.Faults.repair faults ~now fault;
      Oar.Manager.refresh_properties t.env.Env.oar
  end

let start ?(config = default_config) env tracker =
  let t =
    {
      env;
      tracker;
      cfg = config;
      rng = Simkit.Prng.split (Simkit.Engine.rng (Env.engine env));
      running = true;
      credit = 0.0;
      fixed = 0;
      windows = 0;
    }
  in
  let engine = Env.engine env in
  Simkit.Engine.every engine ~period:(6.0 *. Simkit.Calendar.hour) (fun _ ->
      if t.running then fixing_sweep t;
      t.running);
  Simkit.Engine.every engine ~period:config.maintenance_period
    ~jitter:Simkit.Calendar.day (fun _ ->
      if t.running then maintenance_window t;
      t.running);
  Simkit.Engine.every engine ~period:Simkit.Calendar.day (fun _ ->
      if t.running then complaint_sweep t;
      t.running);
  t
