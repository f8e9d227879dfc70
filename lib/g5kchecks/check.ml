type severity = Perf_affecting | Capacity | Descriptive

type mismatch = {
  path : string;
  described : string;
  observed : string;
  severity : severity;
}

type report = { host : string; checked_at : float; mismatches : mismatch list }

let conforms report = report.mismatches = []

let classify path =
  let contains sub =
    let n = String.length sub and m = String.length path in
    let rec scan i = i + n <= m && (String.sub path i n = sub || scan (i + 1)) in
    n = 0 || scan 0
  in
  if contains "settings" || contains "write_cache" || contains "read_cache"
     || contains "disks" && contains "firmware"
  then Perf_affecting
  else if contains "ram_gb" || contains "dimm_count" || contains "cores_per_cpu"
          || contains "cpu/count"
  then Capacity
  else Descriptive

let value_to_string = function
  | None -> "-"
  | Some v -> Simkit.Json.to_string v

let run instance node =
  let now = Testbed.Instance.now instance in
  let host = node.Testbed.Node.host in
  let refapi = instance.Testbed.Instance.refapi in
  (* A node still on the very hardware its document was described from
     conforms: [Ohai.acquire] would rebuild that document. *)
  if Testbed.Refapi.described_from refapi host node.Testbed.Node.actual then
    { host; checked_at = now; mismatches = [] }
  else
    match Testbed.Refapi.get refapi host with
    | None ->
      {
        host;
        checked_at = now;
        mismatches =
          [ { path = "(document)"; described = "-"; observed = "present";
              severity = Descriptive } ];
      }
    | Some described_doc ->
      let observed_doc = Ohai.acquire node in
      let diffs = Simkit.Json.diff described_doc observed_doc in
      let mismatches =
        List.map
          (fun (path, described, observed) ->
            {
              path;
              described = value_to_string described;
              observed = value_to_string observed;
              severity = classify path;
            })
          diffs
      in
      { host; checked_at = now; mismatches }

let run_cluster instance cluster =
  Testbed.Instance.nodes_of_cluster instance cluster
  |> List.filter (fun n -> n.Testbed.Node.state = Testbed.Node.Alive)
  |> List.map (run instance)

let worst_severity report =
  let rank = function Perf_affecting -> 2 | Capacity -> 1 | Descriptive -> 0 in
  List.fold_left
    (fun acc m ->
      match acc with
      | None -> Some m.severity
      | Some s -> if rank m.severity > rank s then Some m.severity else acc)
    None report.mismatches
