(* The event arena.

   Events live in a binary min-heap laid out as parallel flat arrays
   (time, id, interned label, action) ordered by (time, id); the id
   doubles as the FIFO tie-break since ids are allocated in scheduling
   order.  Nothing is boxed per event on the schedule/step path.

   [run]/[run_until]/[step] drain the queue one event at a time: pop
   the root, run it.  Popped slots are cleared so the arena never
   retains dead closures.

   Cancellation bookkeeping is two small structures keyed by event id:
   a bitmap of consumed ids (so cancelling an already-fired handle is a
   true no-op) and an {!Intset} of live cancelled ids, pruned when the
   event is skipped — the set can only shrink back to empty, and
   [pending] can never go negative. *)

type t = {
  mutable clock : float;
  (* heap arrays *)
  mutable times : float array;
  mutable ids : int array;
  mutable labels : int array;  (* interned label index, -1 = none *)
  mutable actions : (t -> unit) array;
  mutable size : int;
  (* cancellation bookkeeping *)
  cancelled : Intset.t;
  mutable consumed : Bytes.t;  (* bitmap over ids: executed or skipped *)
  master_rng : Prng.t;
  mutable next_id : int;
  mutable executed : int;
  mutable observer : (time:float -> label:string option -> unit) option;
      (* post-event hook used by Audit's race detector; None (the
         default) keeps event execution on the historical path *)
  (* label interning: observer dispatch reuses the cached option *)
  label_index : (string, int) Hashtbl.t;
  mutable label_names : string option array;
  mutable label_count : int;
}

type handle = int

let noop (_ : t) = ()

let create ?(seed = 42L) () =
  {
    clock = 0.0;
    times = [||];
    ids = [||];
    labels = [||];
    actions = [||];
    size = 0;
    cancelled = Intset.create ();
    consumed = Bytes.make 64 '\000';
    master_rng = Prng.create seed;
    next_id = 0;
    executed = 0;
    observer = None;
    label_index = Hashtbl.create 16;
    label_names = [||];
    label_count = 0;
  }

let now t = t.clock
let rng t = t.master_rng
let set_observer t observer = t.observer <- observer

(* Consumed-id bitmap. *)

let consumed_mem t id =
  Char.code (Bytes.get t.consumed (id lsr 3)) land (1 lsl (id land 7)) <> 0

let consumed_add t id =
  let byte = id lsr 3 in
  Bytes.set t.consumed byte
    (Char.chr (Char.code (Bytes.get t.consumed byte) lor (1 lsl (id land 7))))

let ensure_consumed_capacity t id =
  let len = Bytes.length t.consumed in
  if id lsr 3 >= len then begin
    let nlen = max (2 * len) ((id lsr 3) + 1) in
    let nbytes = Bytes.make nlen '\000' in
    Bytes.blit t.consumed 0 nbytes 0 len;
    t.consumed <- nbytes
  end

(* Label interning. *)

(* Labels are string literals, so a physical-equality scan of the few
   interned names usually finds one without hashing it; -1 when the
   name is new. *)
let rec interned t name i =
  if i >= t.label_count then
    match Hashtbl.find_opt t.label_index name with Some i -> i | None -> -1
  else
    match t.label_names.(i) with
    | Some n when n == name -> i
    | _ -> interned t name (i + 1)

let intern t = function
  | None -> -1
  | Some name -> (
    match interned t name 0 with
    | -1 ->
      let i = t.label_count in
      let cap = Array.length t.label_names in
      if i = cap then begin
        let ncap = if cap = 0 then 8 else 2 * cap in
        let names = Array.make ncap None in
        Array.blit t.label_names 0 names 0 cap;
        t.label_names <- names
      end;
      t.label_names.(i) <- Some name;
      t.label_count <- i + 1;
      Hashtbl.add t.label_index name i;
      i
    | i -> i)

let label_option t idx = if idx < 0 then None else t.label_names.(idx)

(* Heap primitives over the parallel arrays; order is (time, id). *)

let heap_grow t =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = if cap = 0 then 64 else 2 * cap in
    let times = Array.make ncap 0.0 in
    let ids = Array.make ncap 0 in
    let labels = Array.make ncap (-1) in
    let actions = Array.make ncap noop in
    Array.blit t.times 0 times 0 cap;
    Array.blit t.ids 0 ids 0 cap;
    Array.blit t.labels 0 labels 0 cap;
    Array.blit t.actions 0 actions 0 cap;
    t.times <- times;
    t.ids <- ids;
    t.labels <- labels;
    t.actions <- actions
  end

let heap_push t time id label action =
  heap_grow t;
  (* Sift up with a hole: move later-ordered parents down, store once. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = t.times.(parent) in
    if time < pt || (time = pt && id < t.ids.(parent)) then begin
      t.times.(!i) <- pt;
      t.ids.(!i) <- t.ids.(parent);
      t.labels.(!i) <- t.labels.(parent);
      t.actions.(!i) <- t.actions.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.ids.(!i) <- id;
  t.labels.(!i) <- label;
  t.actions.(!i) <- action

(* Remove the root; the caller has already copied it out. *)
let heap_remove_min t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let time = t.times.(last) in
    let id = t.ids.(last) in
    let label = t.labels.(last) in
    let action = t.actions.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last then begin
            let lt = t.times.(l) and rt = t.times.(r) in
            if rt < lt || (rt = lt && t.ids.(r) < t.ids.(l)) then r else l
          end
          else l
        in
        let ct = t.times.(c) in
        if ct < time || (ct = time && t.ids.(c) < id) then begin
          t.times.(!i) <- ct;
          t.ids.(!i) <- t.ids.(c);
          t.labels.(!i) <- t.labels.(c);
          t.actions.(!i) <- t.actions.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- time;
    t.ids.(!i) <- id;
    t.labels.(!i) <- label;
    t.actions.(!i) <- action
  end;
  t.actions.(last) <- noop

(* Scheduling. *)

let schedule_at t ?label ~time action =
  let id = t.next_id in
  t.next_id <- id + 1;
  ensure_consumed_capacity t id;
  let time = Float.max time t.clock in
  heap_push t time id (intern t label) action;
  id

let schedule t ?label ~delay action =
  schedule_at t ?label ~time:(t.clock +. Float.max 0.0 delay) action

let cancel t handle =
  (* An already-consumed (fired or skipped) handle is a true no-op: it
     must not be remembered, or the cancelled set would grow without
     bound and [pending] could go negative. *)
  if handle >= 0 && handle < t.next_id && not (consumed_mem t handle) then
    Intset.add t.cancelled handle

let cancelled t handle = Intset.mem t.cancelled handle

let every t ?label ~period ?(jitter = 0.0) f =
  (* Jittered timers draw from a dedicated stream split off once at
     registration, so their draws never perturb the master sequence
     consumed by the rest of the simulation. *)
  let jrng = if jitter > 0.0 then Some (Prng.split t.master_rng) else None in
  let rec tick engine =
    if f engine then begin
      let j = match jrng with None -> 0.0 | Some r -> Prng.float r *. jitter in
      ignore (schedule engine ?label ~delay:(period +. j) tick)
    end
  in
  tick t

(* Draining. *)

(* Pop the root and consume it: skip it if cancelled (no clock
   advance), otherwise execute it.  Requires a non-empty heap. *)
let consume_root t =
  let time = t.times.(0) in
  let id = t.ids.(0) in
  let label = t.labels.(0) in
  let action = t.actions.(0) in
  heap_remove_min t;
  consumed_add t id;
  if (not (Intset.is_empty t.cancelled)) && Intset.mem t.cancelled id then
    Intset.remove t.cancelled id
  else begin
    t.clock <- Float.max t.clock time;
    t.executed <- t.executed + 1;
    action t;
    match t.observer with
    | None -> ()
    | Some f -> f ~time:t.clock ~label:(label_option t label)
  end

let step t =
  if t.size = 0 then false
  else begin
    consume_root t;
    true
  end

let run_until t horizon =
  while t.size > 0 && t.times.(0) <= horizon do
    consume_root t
  done;
  t.clock <- Float.max t.clock horizon

let run t = while step t do () done

let next_time t = if t.size = 0 then None else Some t.times.(0)

(* Cancelled ids are a subset of the ids still in the heap. *)
let pending t = t.size - Intset.cardinal t.cancelled

let events_executed t = t.executed
