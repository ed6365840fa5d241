(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   field would box a fresh Int64 on every draw. [mix], [next] and [float]
   are inlined, so a draw that returns an [int] or a [bool] allocates
   nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (mix (next t))

let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (next t) mask) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -. mean *. log u

let geometric t ~p =
  (* Total over all float inputs, always consuming exactly one draw, so a
     malformed parameter can neither raise nor desynchronise the stream:
     NaN and p >= 1 degenerate to the point mass at 0; p <= 0 clamps to a
     tiny success probability (log 1.0 = 0 would otherwise divide by
     zero); a non-finite or negative quotient clamps to 0 and an
     overflowing one to max_int. *)
  let p = if Float.is_nan p then 1.0 else Float.min 1.0 (Float.max 1e-12 p) in
  let u = 1.0 -. float t 1.0 in
  if p >= 1.0 then 0
  else
    let x = Float.floor (log u /. log (1.0 -. p)) in
    if Float.is_nan x || x < 0.0 then 0
    else if x >= float_of_int max_int then max_int
    else int_of_float x
