(* The SplitMix64 state lives unboxed in 8 bytes: a [mutable int64]
   field would box a fresh value on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* SplitMix64 output function: advance by the golden gamma, then mix. *)
let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int b) 1L in
  let r = ref (Int64.shift_right_logical (bits64 t) 1) in
  while Int64.sub !r (Int64.rem !r b) > limit do
    r := Int64.shift_right_logical (bits64 t) 1
  done;
  Int64.to_int (Int64.rem !r b)

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let uniform t =
  (* 53 random bits into [0,1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let float t bound =
  if bound <= 0. then invalid_arg "Prng.float: bound must be positive";
  uniform t *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let normal t ~mean ~sd =
  if sd < 0. then invalid_arg "Prng.normal: sd must be non-negative";
  (* Box–Muller; guard against log 0. *)
  let u1 = 1.0 -. uniform t in
  let u2 = uniform t in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (sd *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (normal t ~mean:mu ~sd:sigma)

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate must be positive";
  -.log (1.0 -. uniform t) /. rate

let pareto t ~scale ~shape =
  if scale <= 0. || shape <= 0. then invalid_arg "Prng.pareto: parameters must be positive";
  scale /. ((1.0 -. uniform t) ** (1.0 /. shape))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choice t a =
  if Array.length a = 0 then invalid_arg "Prng.choice: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  let a = permutation t n in
  Array.sub a 0 k
