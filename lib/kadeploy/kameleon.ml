type step = { section : string; action : string }
type recipe = { recipe_name : string; base : string; steps : step list }

let make ~name ~base actions =
  let bootstrap =
    [ { section = "bootstrap"; action = "download " ^ base };
      { section = "bootstrap"; action = "debootstrap/rootfs" } ]
  in
  let setup = List.map (fun action -> { section = "setup"; action }) actions in
  let export =
    [ { section = "export"; action = "save_appliance tgz" };
      { section = "export"; action = "checksum" } ]
  in
  { recipe_name = name; base; steps = bootstrap @ setup @ export }

(* FNV-1a over the canonical text; deterministic across runs. *)
let checksum recipe =
  let text =
    recipe.recipe_name ^ "|" ^ recipe.base ^ "|"
    ^ String.concat ";" (List.map (fun s -> s.section ^ ":" ^ s.action) recipe.steps)
  in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    text;
  Printf.sprintf "%016Lx" !h

let step_count recipe = List.length recipe.steps
