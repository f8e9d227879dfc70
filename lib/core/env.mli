(** The full simulated platform a test campaign runs against: testbed
    instance, OAR, image registry, monitoring collector and CI server,
    all sharing one simulation engine. *)

type t = {
  instance : Testbed.Instance.t;
  oar : Oar.Manager.t;
  registry : Kadeploy.Image.registry;
  collector : Monitoring.Collector.t;
  ci : Ci.Server.t;
}

val create : ?seed:int64 -> ?executors:int -> unit -> t
(** Build everything on a fresh engine (default seed 42, 10 executors). *)

val engine : t -> Simkit.Engine.t
val now : t -> float
val faults : t -> Testbed.Faults.t
val fault_ctx : t -> Testbed.Faults.ctx
val run_until : t -> float -> unit
