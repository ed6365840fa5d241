(* Function-shipping policy: a per-invocation cost model that decides, at
   method-dispatch time, whether to move the predicted pages to the invoker
   (LOTEC's default data shipping) or to move the *invocation* to the node
   that already stores most of them. The model is pure — the runtime feeds
   it the invoked method's page prediction, the GDO page map and the
   invoker's local freshness, and acts on the verdict. *)

type params = { invoke_bytes : int; reply_bytes : int; min_remote_pages : int }

type policy = Off | On of params

type decision = Stay | Ship of { site : int; saved_bytes : int }

let default_params = { invoke_bytes = 256; reply_bytes = 64; min_remote_pages = 2 }

let off = Off

let policy_enabled = function Off -> false | On _ -> true

let validate_policy = function
  | Off -> Ok ()
  | On p ->
      let check cond msg = if cond then Ok () else Error msg in
      let ( let* ) = Result.bind in
      let* () = check (p.invoke_bytes > 0) "shipping invoke_bytes must be positive" in
      let* () = check (p.reply_bytes > 0) "shipping reply_bytes must be positive" in
      check (p.min_remote_pages >= 1) "shipping min_remote_pages must be >= 1"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "off" | "none" -> Ok Off
  | "on" -> Ok (On default_params)
  | other -> Error (Printf.sprintf "unknown shipping policy %S (expected off|on)" other)

let policy_to_string = function Off -> "off" | On _ -> "on"

let pp_policy fmt = function
  | Off -> Format.pp_print_string fmt "off"
  | On p ->
      Format.fprintf fmt "on(min %d, inv %dB, rep %dB)" p.min_remote_pages p.invoke_bytes
        p.reply_bytes

(* Number of distinct source nodes in a page list: each source costs one
   request/reply exchange under the runtime's grouped demand fetch. *)
let group_count owners =
  let nodes = List.sort_uniq compare (List.map snd owners) in
  List.length nodes

(* The plurality owner among the invoker's stale pages; ties break to the
   lowest node id so the decision is deterministic across runs. *)
let plurality_owner stale =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (_, node) ->
      Hashtbl.replace counts node (1 + Option.value ~default:0 (Hashtbl.find_opt counts node)))
    stale;
  Hashtbl.fold
    (fun node count best ->
      match best with
      | Some (bn, bc) when bc > count || (bc = count && bn < node) -> best
      | _ -> Some (node, count))
    counts None

let decide p ~(link : Sim.Network.link) ~invoker ~owners ~fresh ~page_bytes =
  (* σ and β come from the link being costed: β is the wire time of one
     byte, 8 bits at [bandwidth_bps]. *)
  let software_us = link.Sim.Network.software_cost_us in
  let byte_us = 8e6 /. link.Sim.Network.bandwidth_bps in
  (* Pages the invoker would have to pull over the wire: owned elsewhere and
     not already locally fresh. *)
  let stale = List.filter (fun (page, node) -> node <> invoker && not (fresh page)) owners in
  if List.length stale < p.min_remote_pages then Stay
  else
    match plurality_owner stale with
    | None -> Stay
    | Some (site, _) ->
        (* Residual pages the *home* would still have to pull if the method
           ran there: everything predicted but not already resident at it.
           The invoker's freshness does not transfer — the home fetches from
           the page map like any other site. *)
        let residual = List.filter (fun (_, node) -> node <> site) owners in
        let cost_fetch =
          (2.0 *. software_us *. float_of_int (group_count stale))
          +. (byte_us *. float_of_int (page_bytes * List.length stale))
        in
        let ship_bytes =
          p.invoke_bytes + p.reply_bytes + (page_bytes * List.length residual)
        in
        let cost_ship =
          (software_us *. float_of_int (2 + (2 * group_count residual)))
          +. (byte_us *. float_of_int ship_bytes)
        in
        if cost_ship < cost_fetch then
          Ship { site; saved_bytes = (page_bytes * List.length stale) - ship_bytes }
        else Stay
