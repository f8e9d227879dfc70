type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Normal of float * float
  | Lognormal of float * float
  | Weibull of float * float
  | Pareto of float * float
  | Erlang of int * float
  | Mixture of (float * t) list

let exponential rng ~mean =
  let u = Prng.float rng in
  (* 1 - u avoids log 0. *)
  -.mean *. log (1.0 -. u)

let normal rng ~mu ~sigma =
  (* Box-Muller; one value per call keeps the stream usage predictable. *)
  let u1 = 1.0 -. Prng.float rng in
  let u2 = Prng.float rng in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let rec sample rng t =
  match t with
  | Constant c -> c
  | Uniform (lo, hi) -> lo +. ((hi -. lo) *. Prng.float rng)
  | Exponential mean -> exponential rng ~mean
  | Normal (mu, sigma) -> normal rng ~mu ~sigma
  | Lognormal (mu, sigma) -> exp (normal rng ~mu ~sigma)
  | Weibull (shape, scale) ->
    let u = 1.0 -. Prng.float rng in
    scale *. ((-.log u) ** (1.0 /. shape))
  | Pareto (alpha, xmin) ->
    let u = 1.0 -. Prng.float rng in
    xmin /. (u ** (1.0 /. alpha))
  | Erlang (k, mean_per_stage) ->
    let acc = ref 0.0 in
    for _ = 1 to k do
      acc := !acc +. exponential rng ~mean:mean_per_stage
    done;
    !acc
  | Mixture weighted ->
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    let target = Prng.float rng *. total in
    let rec pick acc = function
      | [] -> invalid_arg "Dist.sample: empty mixture"
      | [ (_, d) ] -> sample rng d
      | (w, d) :: rest -> if acc +. w >= target then sample rng d else pick (acc +. w) rest
    in
    pick 0.0 weighted

let sample_positive rng t = Float.max 0.0 (sample rng t)

let rec mean t =
  match t with
  | Constant c -> c
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential m -> m
  | Normal (mu, _) -> mu
  | Lognormal (mu, sigma) -> exp (mu +. (sigma *. sigma /. 2.0))
  | Weibull (shape, scale) ->
    (* Gamma(1 + 1/shape) via Stirling-quality Lanczos approximation. *)
    let gamma x =
      let g = 7.0 in
      let c =
        [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
           771.32342877765313; -176.61502916214059; 12.507343278686905;
           -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
      in
      let x = x -. 1.0 in
      let a = ref c.(0) in
      let tt = x +. g +. 0.5 in
      for i = 1 to 8 do
        a := !a +. (c.(i) /. (x +. float_of_int i))
      done;
      sqrt (2.0 *. Float.pi) *. (tt ** (x +. 0.5)) *. exp (-.tt) *. !a
    in
    scale *. gamma (1.0 +. (1.0 /. shape))
  | Pareto (alpha, xmin) ->
    if alpha <= 1.0 then infinity else alpha *. xmin /. (alpha -. 1.0)
  | Erlang (k, mean_per_stage) -> float_of_int k *. mean_per_stage
  | Mixture weighted ->
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    List.fold_left (fun acc (w, d) -> acc +. (w /. total *. mean d)) 0.0 weighted

type zipf_table = float array

let zipf_table ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  (* Prefix sums of the weights, accumulated left to right; the last
     entry is the total. *)
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  cdf

let zipf_sample rng cdf =
  let n = Array.length cdf in
  let target = Prng.float rng *. cdf.(n - 1) in
  (* Smallest [i < n - 1] with [cdf.(i) >= target], else [n - 1]: the
     first rank whose cumulative weight reaches the target.  The sums
     never decrease, so a binary search finds it. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= target then hi := mid else lo := mid + 1
  done;
  !lo + 1

let zipf rng ~n ~s = zipf_sample rng (zipf_table ~n ~s)

let poisson rng ~mean =
  if mean <= 0.0 then 0
  else if mean > 50.0 then
    (* Normal approximation with continuity correction. *)
    let v = normal rng ~mu:mean ~sigma:(sqrt mean) in
    Stdlib.max 0 (int_of_float (Float.round v))
  else begin
    let l = exp (-.mean) in
    let k = ref 0 in
    let p = ref 1.0 in
    let continue = ref true in
    while !continue do
      incr k;
      p := !p *. Prng.float rng;
      if !p <= l then continue := false
    done;
    !k - 1
  end
