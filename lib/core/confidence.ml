let family_weight = function
  (* Silent performance skew: worst for reproducibility. *)
  | Testdef.Refapi | Testdef.Disk -> 3.0
  | Testdef.Mpigraph | Testdef.Dellbios -> 2.0
  (* Availability/reliability of the machinery. *)
  | Testdef.Environments | Testdef.Stdenv | Testdef.Multireboot | Testdef.Multideploy ->
    1.5
  | Testdef.Oarproperties | Testdef.Console | Testdef.Kavlan | Testdef.Kwapi
  | Testdef.Paralleldeploy | Testdef.Oarstate | Testdef.Cmdline | Testdef.Sidapi ->
    1.0

(* Cluster -> families with a configuration keyed by that cluster, in
   [Testdef.all_families] order (so the score sums add up in a fixed
   order), computed once: a render scores every cluster. *)
let families_of_cluster =
  let table = Hashtbl.create 64 in
  List.iter
    (fun family ->
      Testdef.expand family
      |> List.filter_map (fun c -> c.Testdef.cluster)
      |> List.sort_uniq String.compare
      |> List.iter (fun cluster ->
             Hashtbl.replace table cluster
               (family :: Option.value ~default:[] (Hashtbl.find_opt table cluster))))
    (List.rev Testdef.all_families);
  table

let cell_value = function
  | Statuspage.Ok_ -> Some 1.0
  | Statuspage.Unst -> Some 0.5
  | Statuspage.Ko -> Some 0.0
  | Statuspage.Missing -> None

let cluster_score page ~cluster =
  let total_weight, score =
    List.fold_left
      (fun (weight_acc, score_acc) family ->
        match cell_value (Statuspage.latest page ~family ~scope:cluster) with
        | Some v ->
          let w = family_weight family in
          (weight_acc +. w, score_acc +. (w *. v))
        | None -> (weight_acc, score_acc))
      (0.0, 0.0)
      (Option.value ~default:[] (Hashtbl.find_opt families_of_cluster cluster))
  in
  if total_weight = 0.0 then None else Some (score /. total_weight)

let grade score =
  if score >= 0.9 then "A" else if score >= 0.75 then "B" else if score >= 0.5 then "C"
  else "D"

let ranking page =
  Testbed.Inventory.clusters
  |> List.filter_map (fun spec ->
         let cluster = spec.Testbed.Inventory.cluster in
         Option.map (fun s -> (cluster, s)) (cluster_score page ~cluster))
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let render page =
  Simkit.Table.render ~header:[ "cluster"; "site"; "confidence"; "grade" ]
    (List.map
       (fun (cluster, score) ->
         let site =
           match Testbed.Inventory.find_cluster cluster with
           | Some spec -> spec.Testbed.Inventory.site
           | None -> "?"
         in
         [ cluster; site; Simkit.Table.fmt_pct score; grade score ])
       (ranking page))
