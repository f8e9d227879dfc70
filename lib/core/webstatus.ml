let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s

let html_escape s =
  let buf = Buffer.create (String.length s) in
  add_escaped buf s;
  Buffer.contents buf

let cell_class = function
  | Statuspage.Ok_ -> "ok"
  | Statuspage.Ko -> "ko"
  | Statuspage.Unst -> "unstable"
  | Statuspage.Missing -> "missing"

let style =
  {|<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-bottom: 2em; }
th, td { border: 1px solid #999; padding: 4px 10px; text-align: center; }
th { background: #eee; }
td.ok { background: #bfe8bf; }
td.ko { background: #f2b3b3; }
td.unstable { background: #f8e6a0; }
td.missing { background: #e8e8e8; color: #888; }
caption { font-weight: bold; padding: 6px; text-align: left; }
</style>|}

(* ---- constant fragments, built once ------------------------------------- *)

let head =
  String.concat "\n"
    [ "<!DOCTYPE html><html><head><meta charset=\"utf-8\">";
      "<title>Grid'5000 testing status</title>"; style; "</head><body>";
      "<h1>Testbed testing status</h1>"; "" ]

let family_rows =
  List.map
    (fun family ->
      (family, "<tr><th>" ^ html_escape (Testdef.family_to_string family) ^ "</th>"))
    Testdef.all_families

let matrix_head =
  String.concat ""
    ("<table><caption>Latest result per test and site</caption><tr><th>test</th>"
    :: List.map (fun site -> "<th>" ^ html_escape site ^ "</th>") Testbed.Inventory.sites
    @ [ "</tr>" ])

let cell_td =
  let td cell =
    Printf.sprintf "<td class=\"%s\">%s</td>" (cell_class cell)
      (Statuspage.cell_to_string cell)
  in
  let ok = td Statuspage.Ok_
  and ko = td Statuspage.Ko
  and unst = td Statuspage.Unst
  and missing = td Statuspage.Missing in
  function
  | Statuspage.Ok_ -> ok
  | Statuspage.Ko -> ko
  | Statuspage.Unst -> unst
  | Statuspage.Missing -> missing

(* ---- sections ------------------------------------------------------------ *)

let matrix_table buf page =
  Buffer.add_string buf matrix_head;
  List.iter
    (fun (family, row) ->
      Buffer.add_string buf row;
      List.iter
        (fun site -> Buffer.add_string buf (cell_td (Statuspage.site_status page ~family ~site)))
        Testbed.Inventory.sites;
      Buffer.add_string buf "</tr>")
    family_rows;
  Buffer.add_string buf "</table>"

let add_td_int buf n =
  Buffer.add_string buf "<td>";
  Buffer.add_string buf (string_of_int n);
  Buffer.add_string buf "</td>"

let add_td_ratio buf ratio =
  Buffer.add_string buf "<td>";
  add_escaped buf (Statuspage.fmt_ratio ratio);
  Buffer.add_string buf "</td>"

let summary_table buf page =
  Buffer.add_string buf
    "<table><caption>Per-test summary</caption>\
     <tr><th>test</th><th>ok</th><th>ko</th><th>unstable</th><th>success</th></tr>";
  List.iter
    (fun (name, ok, ko, unstable, ratio) ->
      Buffer.add_string buf "<tr><th>";
      add_escaped buf name;
      Buffer.add_string buf "</th>";
      add_td_int buf ok;
      add_td_int buf ko;
      add_td_int buf unstable;
      add_td_ratio buf ratio;
      Buffer.add_string buf "</tr>")
    (Statuspage.summary_rows page);
  Buffer.add_string buf "</table>"

let history_table buf page =
  Buffer.add_string buf
    "<table><caption>History (30-day months)</caption>\
     <tr><th>month</th><th>builds</th><th>successful</th><th>success</th></tr>";
  List.iter
    (fun (month, completed, successful, ratio) ->
      Buffer.add_string buf "<tr><th>";
      Buffer.add_string buf (string_of_int month);
      Buffer.add_string buf "</th>";
      add_td_int buf completed;
      add_td_int buf successful;
      add_td_ratio buf ratio;
      Buffer.add_string buf "</tr>")
    (Statuspage.monthly_success page);
  Buffer.add_string buf "</table>"

let confidence_table buf page =
  Buffer.add_string buf
    "<table><caption>Cluster confidence</caption>\
     <tr><th>cluster</th><th>score</th><th>grade</th></tr>";
  List.iter
    (fun (cluster, score) ->
      let cls = if score >= 0.9 then "ok" else if score >= 0.5 then "unstable" else "ko" in
      Buffer.add_string buf "<tr><th>";
      add_escaped buf cluster;
      Buffer.add_string buf "</th><td class=\"";
      Buffer.add_string buf cls;
      Buffer.add_string buf "\">";
      add_escaped buf (Simkit.Table.fmt_pct score);
      Buffer.add_string buf "</td><td>";
      Buffer.add_string buf (Confidence.grade score);
      Buffer.add_string buf "</td></tr>")
    (Confidence.ranking page);
  Buffer.add_string buf "</table>"

(* ---- the renderer --------------------------------------------------------- *)

type t = {
  page : Statuspage.t;
  buf : Buffer.t;  (* the page being written, reused across renders *)
  scratch : Buffer.t;  (* a cell section being written *)
  (* The matrix and confidence sections read only the latest cells, so
     they are kept as text stamped with the page's [cells_generation]. *)
  mutable cells_gen : int;  (* -1 = nothing rendered yet *)
  mutable matrix : string;
  mutable confidence : string;
}

let create page =
  {
    page;
    buf = Buffer.create 16384;
    scratch = Buffer.create 8192;
    cells_gen = -1;
    matrix = "";
    confidence = "";
  }

let section t write =
  Buffer.clear t.scratch;
  write t.scratch t.page;
  Buffer.contents t.scratch

let refresh t =
  let gen = Statuspage.cells_generation t.page in
  if t.cells_gen <> gen then begin
    t.matrix <- section t matrix_table;
    t.confidence <- section t confidence_table;
    t.cells_gen <- gen
  end;
  let buf = t.buf in
  Buffer.clear buf;
  Buffer.add_string buf head;
  Buffer.add_string buf t.matrix;
  Buffer.add_char buf '\n';
  summary_table buf t.page;
  Buffer.add_char buf '\n';
  Buffer.add_string buf t.confidence;
  Buffer.add_char buf '\n';
  history_table buf t.page;
  Buffer.add_string buf "\n</body></html>";
  Buffer.contents buf

let render page = refresh (create page)
