(* Each host's lines sit in an array ring: [total] lines were ever
   written, the newest at [(total - 1) mod length].  The array doubles
   from [initial] up to [cap] and only then wraps, so a host that logs
   little holds a small array.  [boot] is the host's last boot banner
   with the environment and (immutable) hardware it was formatted for. *)
type ring = { mutable lines : string array; mutable total : int; mutable boot : boot option }
and boot = { env : string; hw : Hardware.t; banner : string list }

type t = { rings : (string, ring) Hashtbl.t }

let cap = 200
let initial = 8

let create () = { rings = Hashtbl.create 1024 }

let ring t host =
  match Hashtbl.find t.rings host with
  | ring -> ring
  | exception Not_found ->
    let ring = { lines = Array.make initial ""; total = 0; boot = None } in
    Hashtbl.add t.rings host ring;
    ring

let push ring line =
  let len = Array.length ring.lines in
  if ring.total = len && len < cap then begin
    let grown = Array.make (min cap (2 * len)) "" in
    Array.blit ring.lines 0 grown 0 len;
    ring.lines <- grown
  end;
  ring.lines.(ring.total mod Array.length ring.lines) <- line;
  ring.total <- ring.total + 1

let log_line t ~host line = push (ring t host) line

let log_boot t node =
  let ring = ring t node.Node.host in
  let env = node.Node.deployed_env and hw = node.Node.actual in
  match ring.boot with
  | Some b when String.equal b.env env && b.hw == hw -> List.iter (push ring) b.banner
  | _ ->
    let banner =
      [ Printf.sprintf "[    0.000000] Linux version (%s)" env;
        Printf.sprintf "[    2.345678] %s: %d cores, %d MB" hw.Hardware.cpu.Hardware.cpu_model
          (Hardware.total_cores hw)
          (hw.Hardware.memory.Hardware.ram_gb * 1024);
        node.Node.host ^ " login:" ]
    in
    ring.boot <- Some { env; hw; banner };
    List.iter (push ring) banner

let tail t ~host n =
  match Hashtbl.find_opt t.rings host with
  | None -> []
  | Some ring ->
    let len = Array.length ring.lines in
    let k = max 0 (min n (min ring.total len)) in
    List.init k (fun i -> ring.lines.((ring.total - k + i) mod len))

let roundtrip t ~services node ~marker =
  let host = node.Node.host in
  let site = node.Node.site_name in
  if node.Node.state = Node.Down then false
  else if not (Services.use services ~site Services.Console) then false
  else if node.Node.behaviour.Node.console_broken then begin
    (* The connection opens but the line is dead: nothing echoes. *)
    log_line t ~host "(no output)";
    false
  end
  else begin
    log_line t ~host marker;
    match tail t ~host 1 with
    | [ line ] -> String.equal line marker
    | _ -> false
  end
