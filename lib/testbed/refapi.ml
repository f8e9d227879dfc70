type t = {
  docs : (string, Simkit.Json.t) Hashtbl.t;
  sources : (string, Hardware.t) Hashtbl.t;
      (* host -> the reference hardware its current document was
         described from; absent once the document is corrupted *)
  mutable current_version : int;
  mutable snapshots : (int * float * (string * Simkit.Json.t) list) list;
}

let create () =
  { docs = Hashtbl.create 1024; sources = Hashtbl.create 1024; current_version = 0;
    snapshots = [] }

let describe node =
  let open Simkit.Json in
  Obj
    [ ("uid", String node.Node.host);
      ("cluster", String node.Node.cluster_name);
      ("site", String node.Node.site_name);
      ("index", Int node.Node.index);
      ("hardware", Hardware.to_json node.Node.reference) ]

let publish_node t node =
  Hashtbl.replace t.docs node.Node.host (describe node);
  Hashtbl.replace t.sources node.Node.host node.Node.reference

let described_from t host hw =
  match Hashtbl.find t.sources host with
  | source -> source == hw
  | exception Not_found -> false

let publish_all t ~now nodes =
  List.iter (publish_node t) nodes;
  t.current_version <- t.current_version + 1;
  let archive =
    Hashtbl.fold (fun host doc acc -> (host, doc) :: acc) t.docs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  t.snapshots <- (t.current_version, now, archive) :: t.snapshots

let get t host = Hashtbl.find_opt t.docs host
let iter t f = Hashtbl.iter f t.docs
let version t = t.current_version

let snapshot t v =
  List.find_map
    (fun (version, time, docs) -> if version = v then Some (time, docs) else None)
    t.snapshots

(* Replace the value at [path] (object member names) inside a document. *)
let rec update_path json path f =
  match (json, path) with
  | _, [] -> f json
  | Simkit.Json.Obj members, key :: rest ->
    Simkit.Json.Obj
      (List.map
         (fun (k, v) -> if String.equal k key then (k, update_path v rest f) else (k, v))
         members)
  | other, _ -> other

let corrupt t ~rng ~host =
  match Hashtbl.find_opt t.docs host with
  | None -> None
  | Some doc ->
    let choice = Simkit.Prng.int rng 4 in
    let doc, what =
      match choice with
      | 0 ->
        ( update_path doc [ "hardware"; "memory"; "ram_gb" ] (function
            | Simkit.Json.Int n -> Simkit.Json.Int (n * 2)
            | v -> v),
          "ram_gb doubled in description" )
      | 1 ->
        ( update_path doc [ "hardware"; "cpu"; "cores_per_cpu" ] (function
            | Simkit.Json.Int n -> Simkit.Json.Int (n + 2)
            | v -> v),
          "cores_per_cpu wrong in description" )
      | 2 ->
        ( update_path doc [ "hardware"; "bios"; "version" ] (function
            | Simkit.Json.String _ -> Simkit.Json.String "0.0.0"
            | v -> v),
          "bios version wrong in description" )
      | _ ->
        ( update_path doc [ "hardware"; "settings"; "hyperthreading" ] (function
            | Simkit.Json.Bool b -> Simkit.Json.Bool (not b)
            | v -> v),
          "hyperthreading flag wrong in description" )
    in
    Hashtbl.replace t.docs host doc;
    Hashtbl.remove t.sources host;
    Some what

let hosts t =
  Hashtbl.fold (fun host _ acc -> host :: acc) t.docs [] |> List.sort String.compare
