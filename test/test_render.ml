(* Tests for the user-facing HTML status page renderer. *)

let checkb = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i = i + n <= m && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* ---- webstatus ---------------------------------------------------------------- *)

let test_html_escape () =
  Alcotest.(check string) "escapes" "a&lt;b&gt;&amp;&quot;c"
    (Framework.Webstatus.html_escape "a<b>&\"c")

let test_cell_classes () =
  Alcotest.(check string) "ok" "ok" (Framework.Webstatus.cell_class Framework.Statuspage.Ok_);
  Alcotest.(check string) "ko" "ko" (Framework.Webstatus.cell_class Framework.Statuspage.Ko);
  Alcotest.(check string) "unstable" "unstable"
    (Framework.Webstatus.cell_class Framework.Statuspage.Unst);
  Alcotest.(check string) "missing" "missing"
    (Framework.Webstatus.cell_class Framework.Statuspage.Missing)

(* Whatever the input, the escaped output carries no unescaped markup
   character: every '<', '>' and '"' is gone, and every remaining '&'
   starts one of the four entities the escaper emits. *)
let prop_html_escape_no_unescaped_markup =
  QCheck.Test.make ~count:500 ~name:"html_escape leaves no unescaped markup"
    QCheck.string
    (fun s ->
      let escaped = Framework.Webstatus.html_escape s in
      let n = String.length escaped in
      let entity_at i =
        List.exists
          (fun entity ->
            let k = String.length entity in
            i + k <= n && String.sub escaped i k = entity)
          [ "&lt;"; "&gt;"; "&amp;"; "&quot;" ]
      in
      let ok = ref true in
      String.iteri
        (fun i c ->
          match c with
          | '<' | '>' | '"' -> ok := false
          | '&' -> if not (entity_at i) then ok := false
          | _ -> ())
        escaped;
      !ok)

let test_html_document_structure () =
  let env = Framework.Env.create ~seed:8001L () in
  let page = Framework.Statuspage.create env in
  Framework.Jobs.define_all env ~on_evidence:(fun _ -> ());
  ignore
    (Testbed.Faults.inject_on (Framework.Env.faults env) ~now:0.0
       Testbed.Faults.Cpu_cstates (Testbed.Faults.Host "grisou-1.nancy"));
  ignore
    (Ci.Server.trigger_subset env.Framework.Env.ci "test_refapi"
       ~axes:[ [ ("cluster", "grisou") ] ]);
  ignore
    (Ci.Server.trigger_subset env.Framework.Env.ci "test_refapi"
       ~axes:[ [ ("cluster", "nyx") ] ]);
  Framework.Env.run_until env (4.0 *. Simkit.Calendar.hour);
  let html = Framework.Webstatus.render page in
  checkb "doctype" true (contains html "<!DOCTYPE html>");
  checkb "closes" true (contains html "</html>");
  checkb "red cell for the drifted cluster" true (contains html "class=\"ko\"");
  checkb "green cell for the healthy one" true (contains html "class=\"ok\"");
  checkb "all sites in the header" true
    (List.for_all (fun site -> contains html ("<th>" ^ site ^ "</th>"))
       Testbed.Inventory.sites);
  checkb "confidence section" true (contains html "Cluster confidence");
  checkb "history section" true (contains html "History")

let () =
  Alcotest.run "render"
    [
      ( "webstatus",
        [ Alcotest.test_case "escape" `Quick test_html_escape;
          Qc.to_alcotest prop_html_escape_no_unescaped_markup;
          Alcotest.test_case "cell classes" `Quick test_cell_classes;
          Alcotest.test_case "document structure" `Quick test_html_document_structure ] );
    ]
