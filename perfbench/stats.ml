(* Clock, order statistics and JSON helpers. Nothing here runs inside a
   timed region except [now]. *)

(* Host time is this process's CPU time (user + system, from getrusage, in
   microseconds): on a shared machine, time the host spends running other
   processes would otherwise land in every measurement. The benchmark is
   one single-domain process that never blocks, so on an idle host this
   equals wall time. *)
let now = Sys.time

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of an ascending array, with the number of
   samples strictly above the rank: [(value, samples beyond)]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then (0.0, 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
    (sorted.(rank - 1), n - rank)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let per num den = if den = 0 then 0.0 else num /. float_of_int den

(* Shortest decimal that reads back as the same float: every digit as
   measured, and integers without a fractional part. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
