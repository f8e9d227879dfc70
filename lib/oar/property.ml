(* A row is a pure function of the host's Reference API document and its
   [oar_desync] flag; both are kept so a refresh recomputes only rows
   whose inputs moved. *)
type row = {
  mutable doc : Simkit.Json.t;
  mutable desync : bool;
  mutable props : (string * string) list;
}

type t = {
  rows : (string, row) Hashtbl.t;
  mutable sorted : string list;  (* row keys, sorted; rebuilt when a host is added *)
}

let create () = { rows = Hashtbl.create 1024; sorted = [] }

let yes_no b = if b then "YES" else "NO"

let expected_of_doc doc =
  let open Simkit.Json in
  let hw = Option.value ~default:Null (member "hardware" doc) in
  let cpu = Option.value ~default:Null (member "cpu" hw) in
  let cores_per_cpu = Option.value ~default:0 (int_member "cores_per_cpu" cpu) in
  let cpu_count = Option.value ~default:0 (int_member "count" cpu) in
  let memory = Option.value ~default:Null (member "memory" hw) in
  let nics = Option.value ~default:[] (list_member "nics" hw) in
  let max_rate =
    List.fold_left
      (fun acc nic -> Float.max acc (Option.value ~default:0.0 (float_member "rate_gbps" nic)))
      0.0 nics
  in
  let site = Option.value ~default:"" (string_member "site" doc) in
  let props =
    [ ("host", Option.value ~default:"" (string_member "uid" doc));
      ("cluster", Option.value ~default:"" (string_member "cluster" doc));
      ("site", site);
      ("cores", string_of_int (cores_per_cpu * cpu_count));
      ("cpufreq",
       Printf.sprintf "%.2f" (Option.value ~default:0.0 (float_member "base_freq_ghz" cpu)));
      ("memnode", string_of_int (Option.value ~default:0 (int_member "ram_gb" memory)));
      ("gpu", yes_no (Option.value ~default:false (bool_member "gpu" hw)));
      ("eth10g", if max_rate >= 10.0 then "Y" else "N");
      ("ib", yes_no (member "infiniband" hw <> Some Null && member "infiniband" hw <> None));
      ("wattmeter", yes_no (List.mem site Testbed.Inventory.wattmeter_sites));
      ("deploy", "YES") ]
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) props

let desync_prefix = "oar_desync:"

(* Active desync corruption: flip the gpu property. *)
let row_props doc ~desync =
  let props = expected_of_doc doc in
  if desync then
    List.map
      (fun (k, v) ->
        if String.equal k "gpu" then (k, if v = "YES" then "NO" else "YES")
        else (k, v))
      props
  else props

let refresh_from_refapi t ctx =
  (* The flags table holds a handful of entries; collect the desynced
     hosts once instead of building a key per host. *)
  let desynced =
    Hashtbl.fold
      (fun key _ acc ->
        if String.starts_with ~prefix:desync_prefix key then
          let n = String.length desync_prefix in
          String.sub key n (String.length key - n) :: acc
        else acc)
      ctx.Testbed.Faults.flags []
  in
  let changed = ref [] in
  let added = ref false in
  Testbed.Refapi.iter ctx.Testbed.Faults.refapi (fun host doc ->
      let desync = List.exists (String.equal host) desynced in
      match Hashtbl.find t.rows host with
      | row ->
        if row.doc != doc || row.desync <> desync then begin
          let props = row_props doc ~desync in
          if props <> row.props then changed := host :: !changed;
          row.doc <- doc;
          row.desync <- desync;
          row.props <- props
        end
      | exception Not_found ->
        added := true;
        Hashtbl.replace t.rows host { doc; desync; props = row_props doc ~desync });
  (* The Reference API never drops a host, so only additions change the
     host set. *)
  if !added then begin
    t.sorted <-
      Hashtbl.fold (fun host _ acc -> host :: acc) t.rows [] |> List.sort String.compare;
    `Hosts_added
  end
  else match !changed with [] -> `Unchanged | hosts -> `Rows hosts

let get t ~host key =
  match Hashtbl.find_opt t.rows host with
  | None -> None
  | Some row -> List.assoc_opt key row.props

let props_fun t ~host key = get t ~host key
let all_of t ~host =
  match Hashtbl.find_opt t.rows host with None -> [] | Some row -> row.props

let hosts t = t.sorted

let induced_by t ~host doc =
  match Hashtbl.find_opt t.rows host with
  | None -> false
  | Some row -> row.doc == doc && not row.desync
