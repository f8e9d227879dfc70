type field = Any | Step of int | Values of int list

type t = {
  minute : field;
  hour : field;
  dom : field;  (* 1..30 in the simulated calendar *)
  month : field;  (* 1..12 *)
  dow : field;  (* 0 = Sunday *)
}

let parse_field text ~lo ~hi =
  let in_range v = v >= lo && v <= hi in
  if text = "*" then Ok Any
  else if String.length text > 2 && String.sub text 0 2 = "*/" then begin
    match int_of_string_opt (String.sub text 2 (String.length text - 2)) with
    | Some n when n > 0 -> Ok (Step n)
    | _ -> Error ("bad step in " ^ text)
  end
  else begin
    let parts = String.split_on_char ',' text in
    let expand part =
      match String.index_opt part '-' with
      | Some i -> (
        let a = String.sub part 0 i in
        let b = String.sub part (i + 1) (String.length part - i - 1) in
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b when a <= b && in_range a && in_range b ->
          Ok (List.init (b - a + 1) (fun k -> a + k))
        | _ -> Error ("bad range " ^ part))
      | None -> (
        match int_of_string_opt part with
        | Some v when in_range v -> Ok [ v ]
        | _ -> Error ("bad value " ^ part))
    in
    let rec collect acc = function
      | [] -> Ok (Values (List.sort_uniq compare acc))
      | part :: rest -> (
        match expand part with
        | Ok vs -> collect (vs @ acc) rest
        | Error e -> Error e)
    in
    collect [] parts
  end

let parse source =
  match String.split_on_char ' ' (String.trim source) |> List.filter (( <> ) "") with
  | [ m; h; dom; mon; dow ] -> (
    match
      ( parse_field m ~lo:0 ~hi:59,
        parse_field h ~lo:0 ~hi:23,
        parse_field dom ~lo:1 ~hi:30,
        parse_field mon ~lo:1 ~hi:12,
        parse_field dow ~lo:0 ~hi:7 )
    with
    | Ok minute, Ok hour, Ok dom, Ok month, Ok dow ->
      (* cron allows 7 for Sunday; normalise to 0. *)
      let dow =
        match dow with
        | Values vs -> Values (List.sort_uniq compare (List.map (fun v -> v mod 7) vs))
        | f -> f
      in
      Ok { minute; hour; dom; month; dow }
    | Error e, _, _, _, _
    | _, Error e, _, _, _
    | _, _, Error e, _, _
    | _, _, _, Error e, _
    | _, _, _, _, Error e -> Error e)
  | _ -> Error "expected 5 fields"

let parse_exn source =
  match parse source with Ok t -> t | Error e -> invalid_arg ("Cron.parse_exn: " ^ e)

let field_matches field v =
  match field with
  | Any -> true
  | Step n -> v mod n = 0
  | Values vs -> List.mem v vs

let minute_of time =
  let day_seconds = time -. (float_of_int (Simkit.Calendar.day_index time) *. Simkit.Calendar.day) in
  int_of_float day_seconds / 60 mod 60

let matches t time =
  let day = Simkit.Calendar.day_index time in
  let dom = (day mod 30) + 1 in
  let month = (day / 30 mod 12) + 1 in
  let cal_dow = Simkit.Calendar.day_of_week time in
  (* calendar: 0 = Monday; cron: 0 = Sunday *)
  let cron_dow = (cal_dow + 1) mod 7 in
  field_matches t.minute (minute_of time)
  && field_matches t.hour (Simkit.Calendar.hour_of_day time)
  && field_matches t.dom dom
  && field_matches t.month month
  && field_matches t.dow cron_dow

let next_fire t ~after =
  let minute = 60.0 in
  let start = (Float.of_int (int_of_float (after /. minute)) +. 1.0) *. minute in
  let horizon = after +. (10.0 *. 365.0 *. Simkit.Calendar.day) in
  let rec scan time =
    if time > horizon then failwith "Cron.next_fire: no match within 10 years"
    else if matches t time then time
    else scan (time +. minute)
  in
  scan start
