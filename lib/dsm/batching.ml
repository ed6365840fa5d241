(* Message-combining switch (paper §5: LOTEC trades bytes for more, smaller
   messages, so per-message software cost is its Achilles heel; combining
   small control messages is the standard countermeasure). [Off] leaves the
   runtime byte-identical to the un-batched protocol. *)

type t = Off | All

let ack_flush_us = 50.0
let ack_rider_bytes = 8
let release_flush_us = 0.0
let off = Off
let all = All
let enabled = function Off -> false | All -> true

let of_string s =
  match String.lowercase_ascii s with
  | "off" | "none" -> Ok Off
  | "all" | "on" -> Ok All
  | other -> Error (Printf.sprintf "unknown batching policy %S (expected off|all)" other)

let to_string = function Off -> "off" | All -> "all"

let pp fmt = function
  | Off -> Format.pp_print_string fmt "off"
  | All -> Format.fprintf fmt "acks(flush %.0fus)+fetch+release+heartbeat" ack_flush_us
