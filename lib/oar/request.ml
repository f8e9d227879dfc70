type group = { filter : Expr.t; count : [ `N of int | `All ] }
type t = { groups : group list; walltime : float }

let parse_walltime text =
  match String.split_on_char ':' (String.trim text) with
  | [ h ] -> (
    match float_of_string_opt h with
    | Some hours -> Ok (hours *. 3600.0)
    | None -> Error "bad walltime")
  | [ h; m ] -> (
    match (int_of_string_opt h, int_of_string_opt m) with
    | Some h, Some m -> Ok (float_of_int ((h * 3600) + (m * 60)))
    | _ -> Error "bad walltime")
  | [ h; m; s ] -> (
    match (int_of_string_opt h, int_of_string_opt m, int_of_string_opt s) with
    | Some h, Some m, Some s -> Ok (float_of_int ((h * 3600) + (m * 60) + s))
    | _ -> Error "bad walltime")
  | _ -> Error "bad walltime"

let parse_group text =
  let text = String.trim text in
  (* The resource part is the suffix after the last '/'; everything before
     is the property filter. *)
  match String.rindex_opt text '/' with
  | None -> (
    (* No filter at all: "nodes=2". *)
    match String.index_opt text '=' with
    | Some _ when String.length text >= 6 && String.sub text 0 6 = "nodes=" -> (
      let v = String.sub text 6 (String.length text - 6) in
      match v with
      | "ALL" | "all" -> Ok { filter = Expr.True; count = `All }
      | v -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> Ok { filter = Expr.True; count = `N n }
        | _ -> Error "bad node count"))
    | _ -> Error "expected nodes=<n>")
  | Some slash -> (
    let filter_text = String.sub text 0 slash in
    let resource = String.trim (String.sub text (slash + 1) (String.length text - slash - 1)) in
    match Expr.parse filter_text with
    | Error e -> Error e
    | Ok filter ->
      if String.length resource >= 6 && String.sub resource 0 6 = "nodes=" then begin
        let v = String.sub resource 6 (String.length resource - 6) in
        match v with
        | "ALL" | "all" -> Ok { filter; count = `All }
        | v -> (
          match int_of_string_opt v with
          | Some n when n > 0 -> Ok { filter; count = `N n }
          | _ -> Error "bad node count")
      end
      else Error "expected nodes=<n> after '/'")

let parse input =
  let input = String.trim input in
  let body, walltime =
    (* walltime is introduced by the last ",walltime=" occurrence. *)
    let marker = ",walltime=" in
    let rec find_last from acc =
      match String.index_from_opt input from ',' with
      | None -> acc
      | Some i ->
        let acc =
          if
            i + String.length marker <= String.length input
            && String.sub input i (String.length marker) = marker
          then Some i
          else acc
        in
        find_last (i + 1) acc
    in
    match find_last 0 None with
    | Some i ->
      ( String.sub input 0 i,
        Some (String.sub input (i + String.length marker)
                (String.length input - i - String.length marker)) )
    | None -> (input, None)
  in
  let walltime_result =
    match walltime with None -> Ok 3600.0 | Some w -> parse_walltime w
  in
  match walltime_result with
  | Error e -> Error e
  | Ok walltime ->
    let group_texts = String.split_on_char '+' body in
    let rec build acc = function
      | [] -> Ok { groups = List.rev acc; walltime }
      | text :: rest -> (
        match parse_group text with
        | Ok g -> build (g :: acc) rest
        | Error e -> Error e)
    in
    build [] group_texts

let parse_exn input =
  match parse input with
  | Ok t -> t
  | Error msg -> invalid_arg ("Request.parse_exn: " ^ msg)

let nodes ?(filter = "") count ~walltime =
  { groups = [ { filter = Expr.parse_exn filter; count } ]; walltime }

let count_to_string = function `N n -> string_of_int n | `All -> "ALL"

let to_string t =
  let groups =
    List.map
      (fun g ->
        let f = Expr.to_string g.filter in
        if f = "" then Printf.sprintf "nodes=%s" (count_to_string g.count)
        else Printf.sprintf "%s/nodes=%s" f (count_to_string g.count))
      t.groups
  in
  Printf.sprintf "%s,walltime=%g" (String.concat "+" groups) (t.walltime /. 3600.0)
