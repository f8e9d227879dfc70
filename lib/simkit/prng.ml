type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create (next_int64 t)
let copy t = { state = t.state }

let derive seed index =
  if index < 0 then invalid_arg "Prng.derive: negative index";
  (* One SplitMix64 step over (seed + (index+1) * gamma): stateless, so
     shard i's stream is a pure function of (master seed, i) and never
     depends on how many sibling streams were derived before it. *)
  next_int64 (create (Int64.add seed (Int64.mul (Int64.of_int (index + 1)) golden_gamma)))

let float t =
  (* Top 53 bits give a uniform dyadic rational in [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the low bits to avoid modulo bias. *)
  let mask =
    let rec widen m = if m >= bound - 1 then m else widen ((m lsl 1) lor 1) in
    widen 1
  in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (next_int64 t) 0x7FFFFFFFFFFFFFFFL) land mask in
    if v < bound then v else draw ()
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)


let chance t p = if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Prng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  let n = Array.length arr in
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  let copy = Array.copy arr in
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 k
