(* Parallel-array binary min-heap.  Keys and insertion sequence numbers
   live in flat unboxed arrays so comparisons never chase entry records,
   and values sit in their own array whose vacated slots are cleared on
   [pop] — a popped element must not stay reachable from the heap (it
   used to pin event closures and their captured state until the slot
   happened to be overwritten). *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable values : 'a option array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { keys = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let length t = t.size

let grow t =
  let cap = Array.length t.keys in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nkeys = Array.make ncap 0.0 in
    let nseqs = Array.make ncap 0 in
    let nvalues = Array.make ncap None in
    Array.blit t.keys 0 nkeys 0 t.size;
    Array.blit t.seqs 0 nseqs 0 t.size;
    Array.blit t.values 0 nvalues 0 t.size;
    t.keys <- nkeys;
    t.seqs <- nseqs;
    t.values <- nvalues
  end

let push t ~key value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  grow t;
  (* Sift up with a hole: move larger parents down, store once. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = t.keys.(parent) in
    if key < pk || (key = pk && seq < t.seqs.(parent)) then begin
      t.keys.(!i) <- pk;
      t.seqs.(!i) <- t.seqs.(parent);
      t.values.(!i) <- t.values.(parent);
      i := parent
    end
    else continue := false
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- Some value

let peek t =
  if t.size = 0 then None
  else
    match t.values.(0) with
    | Some v -> Some (t.keys.(0), v)
    | None -> assert false

let pop t =
  if t.size = 0 then None
  else begin
    let top_key = t.keys.(0) in
    let top_value = t.values.(0) in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      (* Sift the detached last element down from the root hole. *)
      let key = t.keys.(last) in
      let seq = t.seqs.(last) in
      let value = t.values.(last) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= last then continue := false
        else begin
          let r = l + 1 in
          let c =
            if r < last then begin
              let lk = t.keys.(l) and rk = t.keys.(r) in
              if rk < lk || (rk = lk && t.seqs.(r) < t.seqs.(l)) then r else l
            end
            else l
          in
          let ck = t.keys.(c) in
          if ck < key || (ck = key && t.seqs.(c) < seq) then begin
            t.keys.(!i) <- ck;
            t.seqs.(!i) <- t.seqs.(c);
            t.values.(!i) <- t.values.(c);
            i := c
          end
          else continue := false
        end
      done;
      t.keys.(!i) <- key;
      t.seqs.(!i) <- seq;
      t.values.(!i) <- value
    end;
    (* Clear the vacated slot so the heap does not retain the popped
       (or moved) element beyond its lifetime. *)
    t.values.(last) <- None;
    match top_value with
    | Some v -> Some (top_key, v)
    | None -> assert false
  end

let to_list t =
  let idx = Array.init t.size (fun i -> i) in
  Array.sort
    (fun a b ->
      let ka = t.keys.(a) and kb = t.keys.(b) in
      if ka < kb then -1
      else if ka > kb then 1
      else compare t.seqs.(a) t.seqs.(b))
    idx;
  Array.to_list
    (Array.map
       (fun i ->
         match t.values.(i) with
         | Some v -> (t.keys.(i), v)
         | None -> assert false)
       idx)
