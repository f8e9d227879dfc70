let job_name family = "test_" ^ Testdef.family_to_string family

(* Job name -> [Some family], built once, so a lookup allocates nothing. *)
let families_by_job = Hashtbl.create 16

let () =
  List.iter (fun f -> Hashtbl.replace families_by_job (job_name f) (Some f)) Testdef.all_families

let family_of_job name = try Hashtbl.find families_by_job name with Not_found -> None

let config_of_build build =
  match family_of_job build.Ci.Build.job_name with
  | None -> None
  | Some family -> Testdef.config_of_axes family build.Ci.Build.axes

let define_all ?(on_outcome = fun ~build:_ _ -> ()) env ~on_evidence =
  List.iter
    (fun family ->
      let body ~engine:_ ~build ~finish =
        match Testdef.config_of_axes family build.Ci.Build.axes with
        | None ->
          Ci.Build.append_log build "unknown matrix combination";
          finish Ci.Build.Failure
        | Some config ->
          Scripts.run env config ~build ~finish:(fun outcome ->
              List.iter on_evidence outcome.Scripts.evidences;
              on_outcome ~build outcome;
              finish outcome.Scripts.result)
      in
      (* Keep at least a few complete sweeps of the matrix in history, or
         the status page loses whole combinations (448 for environments). *)
      let retention = Stdlib.max 400 (3 * List.length (Testdef.expand family)) in
      let job =
        Ci.Jobdef.matrix
          ~description:
            (Printf.sprintf "%s checks (%s)"
               (Testdef.family_to_string family)
               (Testdef.category family))
          ~retention ~name:(job_name family)
          ~axes:(Testdef.matrix_axes family) body
      in
      Ci.Server.define env.Env.ci job)
    Testdef.all_families

let total_configurations () =
  List.fold_left
    (fun acc family -> acc + List.length (Testdef.expand family))
    0 Testdef.all_families
