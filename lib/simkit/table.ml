type align = Left | Right | Center

let normalise ncols row =
  let len = List.length row in
  if len = ncols then row
  else if len < ncols then row @ List.init (ncols - len) (fun _ -> "")
  else List.filteri (fun i _ -> i < ncols) row

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s
    | Center ->
      let left = (width - n) / 2 in
      String.make left ' ' ^ s ^ String.make (width - n - left) ' '

let render ?align ~header rows =
  let ncols = List.length header in
  let rows = List.map (normalise ncols) rows in
  let aligns =
    match align with
    | Some a when List.length a = ncols -> a
    | Some _ | None -> List.init ncols (fun _ -> Left)
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let buf = Buffer.create 512 in
  let rule () =
    Buffer.add_char buf '+';
    List.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad (List.nth aligns i) (List.nth widths i) cell);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  rule ();
  line header;
  rule ();
  List.iter line rows;
  rule ();
  Buffer.contents buf

let fmt_float ?(decimals = 2) f =
  if Float.is_nan f then "-" else Printf.sprintf "%.*f" decimals f

let fmt_pct r = if Float.is_nan r then "-" else Printf.sprintf "%.1f%%" (100.0 *. r)
