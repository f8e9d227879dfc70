type cell = Ok_ | Ko | Unst | Missing

type record = { mutable latest : (float * cell) option }

type month_counter = {
  mutable completed : int;
  mutable successful : int;
  mutable failed : int;
  mutable unstable_n : int;
}

type family_counter = {
  mutable f_ok : int;
  mutable f_ko : int;
  mutable f_unstable : int;
}

type t = {
  env : Env.t;
  cells : (string * string, record) Hashtbl.t;  (* (family, scope) -> latest *)
  site_cells : (string * string, (string, record) Hashtbl.t) Hashtbl.t;
      (* (family, site) -> scope -> latest: a site cell of the matrix
         folds only its own scopes *)
  months : (int, month_counter) Hashtbl.t;
  families : (string, family_counter) Hashtbl.t;
  (* Snapshot versioning for the serving layer: bumped on every recorded
     completion.  Monotonic for the lifetime of the value: [reset] wipes
     the aggregates but never rewinds it, so a cache keyed on a
     generation can never mistake a post-reset page for the one it
     stamped. *)
  mutable generation : int;
  (* Bumped only when a completion changes a latest cell's value (a new
     scope, or e.g. OK -> KO) in [cells] or [site_cells], and by
     [reset]: the matrix and the confidence ranking read nothing else,
     so a rendering of them stays current while it is unchanged. *)
  mutable cells_generation : int;
}

let cell_to_string = function
  | Ok_ -> "OK"
  | Ko -> "KO"
  | Unst -> "??"
  | Missing -> "--"

(* Success ratios over an empty store are [nan]; rendered pages show the
   same "--" placeholder as a [Missing] cell instead of leaking a float
   artifact.  Non-empty stores never produce [nan] (counters only exist
   once a completion was recorded), so populated pages are unchanged. *)
let fmt_ratio ratio =
  if Float.is_nan ratio then cell_to_string Missing else Simkit.Table.fmt_pct ratio

let cell_of_result = function
  | Ci.Build.Success -> Ok_
  | Ci.Build.Unstable -> Unst
  | Ci.Build.Failure | Ci.Build.Aborted | Ci.Build.Not_built -> Ko

let worse a b =
  let rank = function Missing -> 0 | Ok_ -> 1 | Unst -> 2 | Ko -> 3 in
  if rank a >= rank b then a else b

let scope_of_config config =
  match config.Testdef.cluster with
  | Some cluster -> cluster
  | None -> (
    match config.Testdef.vlan with
    | Some vlan -> string_of_int vlan
    | None -> Option.value ~default:"global" config.Testdef.site)

let find_or_add table key make =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace table key v;
    v

let month_counter t month =
  find_or_add t.months month (fun () ->
      { completed = 0; successful = 0; failed = 0; unstable_n = 0 })

let family_counter t family =
  find_or_add t.families (Testdef.family_to_string family) (fun () ->
      { f_ok = 0; f_ko = 0; f_unstable = 0 })

let on_completed t build =
  match (Jobs.config_of_build build, build.Ci.Build.result) with
  | Some config, Some result ->
    let family = Testdef.family_to_string config.Testdef.family in
    let scope = scope_of_config config in
    (* Timestamp with the build's own completion time (the CI server sets
       it before notifying listeners, so live operation is unchanged):
       replaying the same builds later — the serving layer's crash
       recovery — reproduces every record byte for byte. *)
    let now =
      match build.Ci.Build.finished_at with
      | Some finished -> finished
      | None -> Env.now t.env
    in
    let cell = cell_of_result result in
    (* Record the latest result; true when the cell's value changed. *)
    let store table key =
      let record = find_or_add table key (fun () -> { latest = None }) in
      let changed =
        match record.latest with Some (_, previous) -> previous <> cell | None -> true
      in
      record.latest <- Some (now, cell);
      changed
    in
    let changed = store t.cells (family, scope) in
    t.generation <- t.generation + 1;
    let site_changed =
      match config.Testdef.site with
      | Some site ->
        store
          (find_or_add t.site_cells (family, site) (fun () -> Hashtbl.create 8))
          scope
      | None -> false
    in
    if changed || site_changed then t.cells_generation <- t.cells_generation + 1;
    let mc = month_counter t (Simkit.Calendar.month_index now) in
    let fc = family_counter t config.Testdef.family in
    mc.completed <- mc.completed + 1;
    (match cell with
     | Ok_ ->
       mc.successful <- mc.successful + 1;
       fc.f_ok <- fc.f_ok + 1
     | Ko ->
       mc.failed <- mc.failed + 1;
       fc.f_ko <- fc.f_ko + 1
     | Unst | Missing ->
       mc.unstable_n <- mc.unstable_n + 1;
       fc.f_unstable <- fc.f_unstable + 1)
  | _ -> ()

let create env =
  let t =
    {
      env;
      cells = Hashtbl.create 2048;
      site_cells = Hashtbl.create 128;
      months = Hashtbl.create 16;
      families = Hashtbl.create 16;
      generation = 0;
      cells_generation = 0;
    }
  in
  Ci.Server.on_build_complete env.Env.ci (fun build -> on_completed t build);
  t

let apply t build = on_completed t build

let reset t =
  (* Wipe the aggregates (the serving layer's crash drill) but keep both
     generation counters monotonic — see the type comment.  Every cell
     just went back to Missing, so the cell views moved. *)
  Hashtbl.reset t.cells;
  Hashtbl.reset t.site_cells;
  Hashtbl.reset t.months;
  Hashtbl.reset t.families;
  t.cells_generation <- t.cells_generation + 1

let generation t = t.generation
let cells_generation t = t.cells_generation

let latest t ~family ~scope =
  match Hashtbl.find_opt t.cells (Testdef.family_to_string family, scope) with
  | Some { latest = Some (_, cell) } -> cell
  | _ -> Missing

let site_status t ~family ~site =
  match Hashtbl.find_opt t.site_cells (Testdef.family_to_string family, site) with
  | None -> Missing
  | Some scopes ->
    (* [worse] is commutative and associative: fold order is irrelevant. *)
    Hashtbl.fold
      (fun _ record acc ->
        match record.latest with Some (_, cell) -> worse acc cell | None -> acc)
      scopes Missing

let per_test_matrix t =
  let header = "test" :: Testbed.Inventory.sites in
  let rows =
    List.map
      (fun family ->
        Testdef.family_to_string family
        :: List.map
             (fun site -> cell_to_string (site_status t ~family ~site))
             Testbed.Inventory.sites)
      Testdef.all_families
  in
  Simkit.Table.render ~header rows

let per_cluster_matrix t ~site =
  let clusters =
    List.map
      (fun spec -> spec.Testbed.Inventory.cluster)
      (Testbed.Inventory.clusters_of_site site)
  in
  let families =
    List.filter
      (fun family ->
        List.exists
          (fun config -> config.Testdef.site = Some site && config.Testdef.cluster <> None)
          (Testdef.expand family))
      Testdef.all_families
  in
  let header = ("test@" ^ site) :: clusters in
  let rows =
    List.map
      (fun family ->
        Testdef.family_to_string family
        :: List.map (fun cluster -> cell_to_string (latest t ~family ~scope:cluster)) clusters)
      families
  in
  Simkit.Table.render ~header rows

let summary_rows t =
  List.filter_map
    (fun family ->
      let key = Testdef.family_to_string family in
      match Hashtbl.find_opt t.families key with
      | None -> None
      | Some c ->
        let total = c.f_ok + c.f_ko + c.f_unstable in
        let ratio =
          if total = 0 then nan else float_of_int c.f_ok /. float_of_int total
        in
        Some (key, c.f_ok, c.f_ko, c.f_unstable, ratio))
    Testdef.all_families

let monthly_success t =
  Hashtbl.fold (fun month c acc -> (month, c) :: acc) t.months []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (month, c) ->
         let ratio =
           if c.completed = 0 then nan
           else float_of_int c.successful /. float_of_int c.completed
         in
         (month, c.completed, c.successful, ratio))

let render_overview t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Status: latest result per test and site ==\n";
  Buffer.add_string buf (per_test_matrix t);
  Buffer.add_string buf "\n== Per-test summary (all completed runs) ==\n";
  Buffer.add_string buf
    (Simkit.Table.render
       ~header:[ "test"; "ok"; "ko"; "unstable"; "success" ]
       (List.map
          (fun (name, ok, ko, unstable, ratio) ->
            [ name; string_of_int ok; string_of_int ko; string_of_int unstable;
              fmt_ratio ratio ])
          (summary_rows t)));
  Buffer.add_string buf "\n== Job weather (stability over the last 5 builds) ==\n";
  Buffer.add_string buf (Ci.Weather.render t.env.Env.ci);
  Buffer.add_string buf "\n== History (per 30-day month) ==\n";
  Buffer.add_string buf
    (Simkit.Table.render
       ~header:[ "month"; "builds"; "successful"; "success" ]
       (List.map
          (fun (month, completed, successful, ratio) ->
            [ string_of_int month; string_of_int completed; string_of_int successful;
              fmt_ratio ratio ])
          (monthly_success t)));
  Buffer.contents buf
