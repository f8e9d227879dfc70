type t = {
  instance : Testbed.Instance.t;
  oar : Oar.Manager.t;
  registry : Kadeploy.Image.registry;
  collector : Monitoring.Collector.t;
  ci : Ci.Server.t;
}

let create ?(seed = 42L) ?(executors = 10) () =
  let instance = Testbed.Instance.build ~seed () in
  let oar = Oar.Manager.create instance in
  let registry =
    Kadeploy.Image.registry (Testbed.Faults.context instance.Testbed.Instance.faults)
  in
  let collector = Monitoring.Collector.create instance in
  let ci = Ci.Server.create ~executors instance.Testbed.Instance.engine in
  { instance; oar; registry; collector; ci }

let engine t = t.instance.Testbed.Instance.engine
let now t = Simkit.Engine.now (engine t)
let faults t = t.instance.Testbed.Instance.faults
let fault_ctx t = Testbed.Faults.context (faults t)
let run_until t horizon = Simkit.Engine.run_until (engine t) horizon
