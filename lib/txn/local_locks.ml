open Objmodel

type waiter = { w_txn : Txn_id.t; w_mode : Lock.mode; w_wake : unit -> unit }

(* Cached state of one family's global lock on one object. *)
type family_entry = {
  f_oid : Oid.t;
  f_root : Txn_id.t;
  mutable f_mode : Lock.mode;  (* mode the GDO granted to this family *)
  mutable holders : (Txn_id.t * Lock.mode) list;
  mutable retained : (Txn_id.t * Lock.mode) list;
  waiters : waiter Queue.t;
}

type outcome = Granted | Queued | Not_cached | Needs_upgrade

(* Transaction ids are assigned monotonically, so the identity hash spreads
   families evenly. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x
end)

type t = {
  tree : Txn_tree.t;
  (* An object may be cached by several co-located families simultaneously
     (concurrent global readers), hence a list. Keys are never removed: the
     table's layout fixes the order in which [abort] visits objects, and that
     order is observable. *)
  entries : family_entry list ref Oid.Table.t;
  (* Family (root id) -> its entries here, ascending by oid: what precommit,
     root release and [objects_of_family] walk. Never iterated, so its hash
     order cannot reach any output. *)
  families : family_entry list Itbl.t;
}

let create tree = { tree; entries = Oid.Table.create 128; families = Itbl.create 16 }

let entries_for t oid =
  match Oid.Table.find_opt t.entries oid with
  | Some l -> l
  | None ->
      let l = ref [] in
      Oid.Table.add t.entries oid l;
      l

let find_family_entry t oid ~family =
  match Oid.Table.find_opt t.entries oid with
  | None -> None
  | Some l -> List.find_opt (fun e -> Txn_id.equal e.f_root family) !l

let family_entries t family =
  match Itbl.find_opt t.families (Txn_id.to_int family) with Some es -> es | None -> []

(* Rule 1, with the permissive ancestor-hold extension: [txn] may take the
   lock if (a) every retainer is an ancestor of [txn], and (b) no
   *non-ancestor* holder conflicts with the requested mode. *)
let grantable t e ~txn ~mode =
  let is_anc other = Txn_tree.is_strict_ancestor t.tree ~ancestor:other txn in
  List.for_all (fun (r, _) -> is_anc r) e.retained
  && List.for_all
       (fun (h, hm) -> Txn_id.equal h txn || is_anc h || not (Lock.conflicts hm mode))
       e.holders

let add_holder e txn mode =
  (* A transaction re-acquiring in a stronger mode replaces its entry. *)
  let rest = List.filter (fun (h, _) -> not (Txn_id.equal h txn)) e.holders in
  let prev_mode =
    List.assoc_opt txn (List.filter (fun (h, _) -> Txn_id.equal h txn) e.holders)
  in
  let mode = match prev_mode with Some m -> Lock.max m mode | None -> mode in
  e.holders <- (txn, mode) :: rest

let wake_grantable t e =
  (* Grant to waiters (FIFO) while the head is grantable. *)
  let rec loop () =
    match Queue.peek_opt e.waiters with
    | Some w when grantable t e ~txn:w.w_txn ~mode:w.w_mode ->
        ignore (Queue.take e.waiters);
        add_holder e w.w_txn w.w_mode;
        w.w_wake ();
        loop ()
    | _ -> ()
  in
  loop ()

let acquire t oid ~txn ~mode ~wake =
  let family = Txn_tree.root_of t.tree txn in
  match find_family_entry t oid ~family with
  | None -> Not_cached
  | Some e ->
      if Lock.equal mode Lock.Write && Lock.equal e.f_mode Lock.Read then Needs_upgrade
      else if grantable t e ~txn ~mode then begin
        add_holder e txn mode;
        Granted
      end
      else begin
        Queue.add { w_txn = txn; w_mode = mode; w_wake = wake } e.waiters;
        Queued
      end

let rec insert_by_oid e = function
  | x :: rest when Oid.compare x.f_oid e.f_oid < 0 -> x :: insert_by_oid e rest
  | l -> e :: l

let install_grant t oid ~txn ~mode =
  let family = Txn_tree.root_of t.tree txn in
  (match find_family_entry t oid ~family with
  | Some _ -> invalid_arg "Local_locks.install_grant: family already caches this object"
  | None -> ());
  let e =
    {
      f_oid = oid;
      f_root = family;
      f_mode = mode;
      holders = [ (txn, mode) ];
      retained = [];
      waiters = Queue.create ();
    }
  in
  let l = entries_for t oid in
  l := e :: !l;
  Itbl.replace t.families (Txn_id.to_int family) (insert_by_oid e (family_entries t family))

(* Forget [e] in the site table; its key stays (see [t.entries]). *)
let unlink t e =
  let l = entries_for t e.f_oid in
  l := List.filter (fun x -> x != e) !l

(* Forget [e] in the site table and in its family's index. *)
let drop t e =
  unlink t e;
  match List.filter (fun x -> x != e) (family_entries t e.f_root) with
  | [] -> Itbl.remove t.families (Txn_id.to_int e.f_root)
  | es -> Itbl.replace t.families (Txn_id.to_int e.f_root) es

let upgrade_granted t oid ~txn =
  let family = Txn_tree.root_of t.tree txn in
  match find_family_entry t oid ~family with
  | None -> invalid_arg "Local_locks.upgrade_granted: no cached entry"
  | Some e ->
      e.f_mode <- Lock.Write;
      add_holder e txn Lock.Write

let family_mode t oid ~family =
  match find_family_entry t oid ~family with None -> None | Some e -> Some e.f_mode

let held_mode t oid ~txn =
  let family = Txn_tree.root_of t.tree txn in
  match find_family_entry t oid ~family with
  | None -> None
  | Some e ->
      List.fold_left
        (fun acc (h, m) -> if Txn_id.equal h txn then Some m else acc)
        None e.holders

let retainers t oid ~family =
  match find_family_entry t oid ~family with None -> [] | Some e -> e.retained

let add_retained e txn mode =
  let prev = List.assoc_opt txn e.retained in
  let rest = List.filter (fun (r, _) -> not (Txn_id.equal r txn)) e.retained in
  let mode = match prev with Some m -> Lock.max m mode | None -> mode in
  e.retained <- (txn, mode) :: rest

let precommit t txn =
  let parent =
    match Txn_tree.parent t.tree txn with
    | Some p -> p
    | None -> invalid_arg "Local_locks.precommit: root transactions use root_release"
  in
  let is_txn (x, _) = Txn_id.equal x txn in
  List.iter
    (fun e ->
      if List.exists is_txn e.holders || List.exists is_txn e.retained then begin
        let held, holders = List.partition is_txn e.holders in
        let mine, kept = List.partition is_txn e.retained in
        e.holders <- holders;
        e.retained <- kept;
        List.iter (fun (_, m) -> add_retained e parent m) held;
        List.iter (fun (_, m) -> add_retained e parent m) mine;
        wake_grantable t e
      end)
    (family_entries t (Txn_tree.root_of t.tree txn))

let abort t txn ~to_release =
  let family = Txn_tree.root_of t.tree txn in
  let is_txn (x, _) = Txn_id.equal x txn in
  let emptied = ref [] in
  (* Unlike the other family-wide operations, abort walks the whole site
     table, in the table's own order: that order sequences the releases
     [to_release] sends and the waiters woken here, so it is part of the
     simulated outcome. Aborts are rare (injected failures, deadlock victims,
     crash unwinding), so the walk costs little. *)
  Oid.Table.iter
    (fun _ l ->
      List.iter
        (fun e ->
          if
            Txn_id.equal e.f_root family
            && (List.exists is_txn e.holders || List.exists is_txn e.retained)
          then begin
            e.holders <- List.filter (fun h -> not (is_txn h)) e.holders;
            e.retained <- List.filter (fun r -> not (is_txn r)) e.retained;
            (* An ancestor who retains keeps retaining: nothing to do — its
               entry is untouched. If the family no longer has any interest,
               the global lock goes back to the GDO. *)
            if e.holders = [] && e.retained = [] && Queue.is_empty e.waiters then
              emptied := e :: !emptied
            else wake_grantable t e
          end)
        !l)
    t.entries;
  List.iter
    (fun e ->
      drop t e;
      to_release e.f_oid)
    !emptied

let root_release t ~root =
  let es = family_entries t root in
  Itbl.remove t.families (Txn_id.to_int root);
  List.iter (unlink t) es;
  List.map (fun e -> e.f_oid) es

let objects_of_family t ~family = List.map (fun e -> e.f_oid) (family_entries t family)
