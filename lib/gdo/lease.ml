open Objmodel
open Txn

(* Default used by policy_of_string; the CLI overrides it from a flag. *)
let default_ttl_us = 20_000.0

type policy = Off | Fixed_ttl of { ttl_us : float }

let policy_enabled = function Off -> false | Fixed_ttl _ -> true

let validate_policy = function
  | Off -> Ok ()
  | Fixed_ttl { ttl_us } ->
      if ttl_us > 0.0 then Ok () else Error "lease ttl_us must be positive"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "off" | "none" -> Ok Off
  | "ttl" | "on" | "fixed" -> Ok (Fixed_ttl { ttl_us = default_ttl_us })
  | other -> Error (Printf.sprintf "unknown lease policy %S (expected off|ttl)" other)

let policy_to_string = function Off -> "off" | Fixed_ttl _ -> "ttl"

let pp_policy fmt = function
  | Off -> Format.pp_print_string fmt "off"
  | Fixed_ttl { ttl_us } -> Format.fprintf fmt "ttl(%.0fus)" ttl_us

(* ------------------------------------------------------------------ *)
(* Home side.                                                          *)

type recall_state = {
  r_token : int;
  mutable r_awaiting : int list;
  r_excluded : Txn_id.t option;
}

type entry = {
  mutable grants : (int * float) list;  (* node, expires *)
  mutable epoch : int;
  mutable recall : recall_state option;
}

type t = { policy : policy; entries : entry Oid.Table.t; mutable next_token : int }

let create policy = { policy; entries = Oid.Table.create 64; next_token = 0 }

let enabled t = policy_enabled t.policy

let entry t oid =
  match Oid.Table.find_opt t.entries oid with
  | Some e -> e
  | None ->
      let e = { grants = []; epoch = 0; recall = None } in
      Oid.Table.add t.entries oid e;
      e

let prune e ~now = e.grants <- List.filter (fun (_, exp) -> now < exp) e.grants

let lease_for_grant t oid ~node ~now ~writer_queued =
  match t.policy with
  | Off -> None
  | Fixed_ttl { ttl_us } ->
      let e = entry t oid in
      if e.recall <> None || writer_queued then None
      else begin
        let expires = now +. ttl_us in
        e.grants <- (node, expires) :: List.remove_assoc node e.grants;
        Some (expires, e.epoch)
      end

let outstanding t oid ~now =
  match Oid.Table.find_opt t.entries oid with
  | None -> []
  | Some e ->
      prune e ~now;
      List.sort Int.compare (List.map fst e.grants)

(* Split-brain fencing (see Core.Runtime's failover): the latest expiry
   among the object's outstanding grants. A failover successor must not
   serve a dead home's partition before every lease that home granted has
   provably expired or been recalled — until then a fenced-out node could
   still be serving leased reads of the old regime. [now] when nothing is
   outstanding, so lease-off runs fence to "immediately". *)
let fence_deadline t oid ~now =
  match Oid.Table.find_opt t.entries oid with
  | None -> now
  | Some e ->
      prune e ~now;
      List.fold_left (fun acc (_, exp) -> Float.max acc exp) now e.grants

let recall_in_progress t oid =
  match Oid.Table.find_opt t.entries oid with None -> false | Some e -> e.recall <> None

let excluded_family t oid =
  match Oid.Table.find_opt t.entries oid with
  | None -> None
  | Some e -> ( match e.recall with None -> None | Some r -> r.r_excluded)

type recall_order = { ro_nodes : int list; ro_epoch : int; ro_deadline : float; ro_token : int }

let begin_recall t oid ~now ~excluded =
  let e = entry t oid in
  match e.recall with
  | Some _ -> `In_progress
  | None -> (
      prune e ~now;
      match e.grants with
      | [] -> `Clear
      | grants ->
          t.next_token <- t.next_token + 1;
          let token = t.next_token in
          let nodes = List.sort Int.compare (List.map fst grants) in
          let deadline = List.fold_left (fun acc (_, exp) -> Float.max acc exp) now grants in
          e.recall <- Some { r_token = token; r_awaiting = nodes; r_excluded = excluded };
          `Recall { ro_nodes = nodes; ro_epoch = e.epoch; ro_deadline = deadline; ro_token = token })

let note_yield t oid ~node =
  match Oid.Table.find_opt t.entries oid with
  | None -> `Stale
  | Some e -> (
      match e.recall with
      | None -> `Stale
      | Some r ->
          r.r_awaiting <- List.filter (fun n -> n <> node) r.r_awaiting;
          e.grants <- List.remove_assoc node e.grants;
          if r.r_awaiting = [] then begin
            e.recall <- None;
            e.grants <- [];
            `Cleared
          end
          else `Waiting)

let recall_token t oid =
  match Oid.Table.find_opt t.entries oid with
  | None -> None
  | Some e -> ( match e.recall with None -> None | Some r -> Some r.r_token)

let force_clear t oid ~token =
  match Oid.Table.find_opt t.entries oid with
  | None -> false
  | Some e -> (
      match e.recall with
      | Some r when r.r_token = token ->
          e.recall <- None;
          e.grants <- [];
          true
      | Some _ | None -> false)

(* Crash recovery: a node declared dead can neither use nor yield its
   leases. Drop every lease granted to it; a recall that was waiting only
   on the dead node thereby clears — the caller must run the blocked
   writes for the returned objects, exactly as after a final yield. *)
let evict_node t ~node =
  let cleared = ref [] in
  Oid.Table.iter
    (fun oid e ->
      e.grants <- List.remove_assoc node e.grants;
      match e.recall with
      | Some r when List.mem node r.r_awaiting ->
          r.r_awaiting <- List.filter (fun n -> n <> node) r.r_awaiting;
          if r.r_awaiting = [] then begin
            e.recall <- None;
            e.grants <- [];
            cleared := oid :: !cleared
          end
      | Some _ | None -> ())
    t.entries;
  List.sort Oid.compare !cleared

let note_write_granted t oid =
  if enabled t then
    let e = entry t oid in
    e.epoch <- e.epoch + 1

let epoch t oid = match Oid.Table.find_opt t.entries oid with None -> 0 | Some e -> e.epoch

(* ------------------------------------------------------------------ *)
(* Node side.                                                          *)

module Cache = struct
  type centry = {
    mutable grant : Directory.grant;
    mutable expires : float;
    mutable c_epoch : int;
    mutable readers : (Txn_id.t * int) list;  (* family, admission epoch *)
    mutable recalled : bool;
    mutable yielded : bool;
    mutable c_excluded : Txn_id.t option;
  }

  type cache = {
    c_entries : centry Oid.Table.t;
    (* Highest epoch a recall was seen for, per object; survives entry drops
       so a reordered or retransmitted grant can never resurrect a recalled
       lease (the epoch fence). *)
    recall_floor : int Oid.Table.t;
    (* Invalidation subscriber (the runtime's method-result cache): called
       with the object whenever this cache learns its leased view is over —
       recall delivery, expiry GC, epoch-superseding re-install. *)
    mutable on_invalidate : (Oid.t -> unit) option;
  }

  let create () =
    {
      c_entries = Oid.Table.create 32;
      recall_floor = Oid.Table.create 32;
      on_invalidate = None;
    }

  let set_on_invalidate c f = c.on_invalidate <- Some f

  let invalidated c oid = match c.on_invalidate with None -> () | Some f -> f oid

  let floor_of c oid =
    match Oid.Table.find_opt c.recall_floor oid with Some e -> e | None -> -1

  let install c oid ~grant ~expires ~epoch =
    if epoch > floor_of c oid then
      match Oid.Table.find_opt c.c_entries oid with
      | None ->
          Oid.Table.add c.c_entries oid
            {
              grant;
              expires;
              c_epoch = epoch;
              readers = [];
              recalled = false;
              yielded = false;
              c_excluded = None;
            }
      | Some e ->
          if epoch > e.c_epoch then begin
            (* Superseding lease from a later epoch: existing readers keep
               their admission epoch and will fail validation. The epoch
               bump means a write was granted in between — anything derived
               from the old leased view is stale. *)
            invalidated c oid;
            e.grant <- grant;
            e.expires <- expires;
            e.c_epoch <- epoch;
            e.recalled <- false;
            e.yielded <- false;
            e.c_excluded <- None
          end
          else if epoch = e.c_epoch && not e.recalled then begin
            (* Renewal. *)
            e.grant <- grant;
            e.expires <- Float.max e.expires expires
          end

  let hit c oid ~now =
    match Oid.Table.find_opt c.c_entries oid with
    | Some e when (not e.recalled) && now < e.expires -> Some e.grant
    | Some _ | None -> None

  let add_reader c oid ~family =
    match Oid.Table.find_opt c.c_entries oid with
    | None -> invalid_arg "Lease.Cache.add_reader: no cached lease"
    | Some e ->
        if not (List.mem_assoc family e.readers) then
          e.readers <- (family, e.c_epoch) :: e.readers

  let blocking_readers e =
    List.filter
      (fun (f, _) ->
        match e.c_excluded with Some x -> not (Txn_id.equal f x) | None -> true)
      e.readers

  let drop c oid = Oid.Table.remove c.c_entries oid

  let remove_reader c oid ~family =
    match Oid.Table.find_opt c.c_entries oid with
    | None -> `Nothing
    | Some e ->
        e.readers <- List.filter (fun (f, _) -> not (Txn_id.equal f family)) e.readers;
        if e.recalled && (not e.yielded) && blocking_readers e = [] then begin
          e.yielded <- true;
          if e.readers = [] then drop c oid;
          `Yield
        end
        else begin
          if e.readers = [] && e.yielded then drop c oid;
          `Nothing
        end

  let recall c oid ~epoch ~excluded =
    (* A recall means a write is imminent: whatever subscribers derived from
       the leased view must go, whether or not a lease entry survives here.
       Fired on every delivery; retransmitted recalls find nothing to drop. *)
    invalidated c oid;
    if epoch > floor_of c oid then Oid.Table.replace c.recall_floor oid epoch;
    match Oid.Table.find_opt c.c_entries oid with
    | None -> `Yield
    | Some e ->
        if e.c_epoch > epoch then
          (* Recall for an older lease generation than the one installed:
             answer it without touching the newer lease. *)
          `Yield
        else begin
          e.recalled <- true;
          e.c_excluded <- (match excluded with Some _ as x -> x | None -> e.c_excluded);
          if e.yielded then `Yield  (* retransmitted recall: re-yield, home dedups *)
          else if blocking_readers e = [] then begin
            e.yielded <- true;
            if e.readers = [] then drop c oid;
            `Yield
          end
          else `Deferred
        end

  let valid c oid ~family ~now =
    match Oid.Table.find_opt c.c_entries oid with
    | None -> false
    | Some e -> (
        match List.assoc_opt family e.readers with
        | Some admission_epoch -> admission_epoch = e.c_epoch && now < e.expires
        | None -> false)

  let reader_count c oid =
    match Oid.Table.find_opt c.c_entries oid with
    | None -> 0
    | Some e -> List.length e.readers

  let entry_count c = Oid.Table.length c.c_entries

  let drop_expired c ~now =
    let dead =
      Oid.Table.fold
        (fun oid e acc -> if e.readers = [] && now >= e.expires then oid :: acc else acc)
        c.c_entries []
    in
    List.iter
      (fun oid ->
        invalidated c oid;
        drop c oid)
      dead
end
