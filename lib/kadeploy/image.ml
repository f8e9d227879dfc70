type t = {
  name : string;
  index : int;
  size_mb : int;
  recipe : Kameleon.recipe;
  checksum : string;
}

let build index (name, base, size_mb, actions) =
  let recipe = Kameleon.make ~name ~base actions in
  { name; index; size_mb; recipe; checksum = Kameleon.checksum recipe }

let standard =
  let common = [ "install openssh-server"; "configure serial console"; "install g5k-checks" ] in
  let std extra = common @ extra in
  List.mapi build
    [
      ("debian7-x64-min", "debian/wheezy", 450, common);
      ("debian7-x64-base", "debian/wheezy", 700, std [ "install build-essential" ]);
      ("debian7-x64-std", "debian/wheezy", 1100, std [ "install build-essential"; "install ganglia-monitor" ]);
      ("debian7-x64-big", "debian/wheezy", 2300, std [ "install build-essential"; "install ganglia-monitor"; "install openmpi"; "install hadoop" ]);
      ("debian7-x64-nfs", "debian/wheezy", 1200, std [ "configure nfs-home"; "configure ldap" ]);
      ("debian8-x64-min", "debian/jessie", 500, common);
      ("debian8-x64-base", "debian/jessie", 750, std [ "install build-essential" ]);
      ("debian8-x64-std", "debian/jessie", 1200, std [ "install build-essential"; "install ganglia-monitor" ]);
      ("debian8-x64-big", "debian/jessie", 2500, std [ "install build-essential"; "install ganglia-monitor"; "install openmpi"; "install hadoop" ]);
      ("debian8-x64-nfs", "debian/jessie", 1300, std [ "configure nfs-home"; "configure ldap" ]);
      ("centos6-x64-min", "centos/6", 600, common);
      ("centos7-x64-min", "centos/7", 700, common);
      ("ubuntu1404-x64-min", "ubuntu/trusty", 550, common);
      ("ubuntu1604-x64-min", "ubuntu/xenial", 650, common);
    ]

let count = List.length standard
let find name = List.find_opt (fun img -> String.equal img.name name) standard

let std_env =
  match find "debian8-x64-std" with
  | Some img -> img
  | None -> assert false

type registry = {
  ctx : Testbed.Faults.ctx;
  mutable user_images : t list;  (* registration order *)
  mutable next_index : int;
}

let registry ctx = { ctx; user_images = []; next_index = count }

let is_corrupt reg img =
  Testbed.Faults.flag reg.ctx (Printf.sprintf "env_corrupt:%d" img.index) <> None

let get reg name =
  match find name with
  | Some img -> Some img
  | None -> List.find_opt (fun img -> String.equal img.name name) reg.user_images

let all reg = standard @ reg.user_images

let register reg ~name ~base ~size_mb actions =
  if size_mb <= 0 then Error "image size must be positive"
  else if String.trim name = "" then Error "image name must not be empty"
  else if get reg name <> None then Error (Printf.sprintf "image %s already exists" name)
  else begin
    let recipe = Kameleon.make ~name ~base actions in
    let img =
      { name; index = reg.next_index; size_mb; recipe;
        checksum = Kameleon.checksum recipe }
    in
    reg.next_index <- reg.next_index + 1;
    reg.user_images <- reg.user_images @ [ img ];
    Ok img
  end
