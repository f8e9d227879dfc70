module Online = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable minv : float;
    mutable maxv : float;
    mutable sum : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; minv = infinity; maxv = neg_infinity; sum = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.minv then t.minv <- x;
    if x > t.maxv then t.maxv <- x;
    t.sum <- t.sum +. x

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let min t = t.minv
  let max t = t.maxv
  let sum t = t.sum

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        minv = Float.min a.minv b.minv;
        maxv = Float.max a.maxv b.maxv;
        sum = a.sum +. b.sum;
      }
    end
end

let percentile data p =
  let n = Array.length data in
  if n = 0 then invalid_arg "Stats.percentile: empty data";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy data in
  Array.sort Float.compare sorted;
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median data = percentile data 0.5

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    bins : int array;
    mutable under : int;
    mutable over : int;
    mutable total : int;
  }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
    { lo; hi; bins = Array.make bins 0; under = 0; over = 0; total = 0 }

  let add t x =
    t.total <- t.total + 1;
    if x < t.lo then t.under <- t.under + 1
    else if x >= t.hi then t.over <- t.over + 1
    else begin
      let width = (t.hi -. t.lo) /. float_of_int (Array.length t.bins) in
      let i = int_of_float ((x -. t.lo) /. width) in
      let i = Stdlib.min i (Array.length t.bins - 1) in
      t.bins.(i) <- t.bins.(i) + 1
    end

  let count t = t.total
  let bin_count t i = t.bins.(i)
  let underflow t = t.under
  let overflow t = t.over

  let bin_bounds t i =
    let width = (t.hi -. t.lo) /. float_of_int (Array.length t.bins) in
    (t.lo +. (float_of_int i *. width), t.lo +. (float_of_int (i + 1) *. width))

  let render ?(width = 40) t =
    let maxc = Array.fold_left Stdlib.max 1 t.bins in
    let buf = Buffer.create 256 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let lo, hi = bin_bounds t i in
          let bar = String.make (c * width / maxc) '#' in
          Buffer.add_string buf (Printf.sprintf "[%10.2f, %10.2f) %6d %s\n" lo hi c bar)
        end)
      t.bins;
    if t.under > 0 then Buffer.add_string buf (Printf.sprintf "underflow %d\n" t.under);
    if t.over > 0 then Buffer.add_string buf (Printf.sprintf "overflow %d\n" t.over);
    Buffer.contents buf
end
