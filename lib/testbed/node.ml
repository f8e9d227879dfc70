type state = Alive | Rebooting | Deploying | Down

type health =
  | Healthy
  | Suspected
  | Quarantined
  | Repairing
  | Reverifying
  | Retired

type behaviour = {
  mutable boot_race : bool;
  mutable ofed_flaky : bool;
  mutable console_broken : bool;
}

type t = {
  name : string;
  host : string;
  site_name : string;
  cluster_name : string;
  index : int;
  reference : Hardware.t;
  mutable actual : Hardware.t;
  mutable state : state;
  mutable health : health;
  mutable deployed_env : string;
  mutable vlan : int;
  behaviour : behaviour;
  rng : Simkit.Prng.t;
  mutable boot_count : int;
  mutable unexpected_reboots : int;
  reboot : reboot;
}

and reboot = { mutable mtbf : float option; ordinal : int; set : reboot_set }

(* [prone] is in ascending ordinal order. *)
and reboot_set = { mutable made : int; mutable prone : t list }

let create_reboot_set () = { made = 0; prone = [] }
let reboot_prone set = set.prone
let random_reboot_mtbf t = t.reboot.mtbf

let set_random_reboot_mtbf t mtbf =
  let r = t.reboot in
  let set = r.set in
  (match (r.mtbf, mtbf) with
   | None, Some _ ->
     let rec insert = function
       | n :: rest when n.reboot.ordinal < r.ordinal -> n :: insert rest
       | later -> t :: later
     in
     set.prone <- insert set.prone
   | Some _, None -> set.prone <- List.filter (fun n -> n != t) set.prone
   | None, None | Some _, Some _ -> ());
  r.mtbf <- mtbf

let make ~rng ~reboot_set ~site ~cluster ~index hw =
  let ordinal = reboot_set.made in
  reboot_set.made <- ordinal + 1;
  let name = Printf.sprintf "%s-%d" cluster index in
  {
    name;
    host = Printf.sprintf "%s.%s" name site;
    site_name = site;
    cluster_name = cluster;
    index;
    reference = hw;
    actual = hw;
    state = Alive;
    health = Healthy;
    deployed_env = "std";
    vlan = 0;
    behaviour = { boot_race = false; ofed_flaky = false; console_broken = false };
    rng;
    boot_count = 0;
    unexpected_reboots = 0;
    reboot = { mtbf = None; ordinal; set = reboot_set };
  }

let state_to_string = function
  | Alive -> "alive"
  | Rebooting -> "rebooting"
  | Deploying -> "deploying"
  | Down -> "down"

let health_to_string = function
  | Healthy -> "healthy"
  | Suspected -> "suspected"
  | Quarantined -> "quarantined"
  | Repairing -> "repairing"
  | Reverifying -> "reverifying"
  | Retired -> "retired"

let is_available t = t.state = Alive
let in_service t = t.health = Healthy

let boot_duration t =
  let base = Float.max 30.0 (Simkit.Dist.normal t.rng ~mu:120.0 ~sigma:15.0) in
  if t.behaviour.boot_race && Simkit.Prng.chance t.rng 0.30 then
    base +. Simkit.Dist.exponential t.rng ~mean:300.0
  else base

let boot_fails t =
  let p = if t.reboot.mtbf <> None then 0.05 else 0.004 in
  Simkit.Prng.chance t.rng p

let cpu_benchmark t =
  let hw = t.actual in
  let nominal = 1000.0 *. (hw.Hardware.cpu.Hardware.base_freq_ghz /. 2.0) in
  let factor = Hardware.cpu_perf_factor hw.Hardware.settings in
  let noise = Simkit.Dist.normal t.rng ~mu:1.0 ~sigma:0.01 in
  nominal *. factor *. noise

let disk_benchmark t =
  match t.actual.Hardware.disks with
  | [] -> invalid_arg "Node.disk_benchmark: node has no disk"
  | disk :: _ ->
    let noise = Simkit.Dist.normal t.rng ~mu:1.0 ~sigma:0.02 in
    Hardware.disk_bandwidth disk *. noise

let ib_start_ok t =
  match t.actual.Hardware.ib with
  | None -> true
  | Some _ -> if t.behaviour.ofed_flaky then not (Simkit.Prng.chance t.rng 0.35) else true

let reset_to_reference t =
  t.actual <- t.reference;
  set_random_reboot_mtbf t None;
  t.behaviour.boot_race <- false;
  t.behaviour.ofed_flaky <- false;
  t.behaviour.console_broken <- false;
  if t.state = Down then t.state <- Alive

let pp ppf t =
  Format.fprintf ppf "%s [%s] env=%s vlan=%d %a" t.host (state_to_string t.state)
    t.deployed_env t.vlan Hardware.pp t.actual
