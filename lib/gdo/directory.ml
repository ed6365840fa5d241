open Objmodel
open Txn

type lock_state = Free | Held_read | Held_write

type holder = { family : Txn_id.t; node : int }

type grant = {
  g_oid : Oid.t;
  g_mode : Lock.mode;
  g_page_nodes : int array;
  g_page_versions : int array;
}

type acquire_result = Granted of grant | Queued | Busy | Deadlock of Txn_id.t list

type delivery = { d_family : Txn_id.t; d_node : int; d_grant : grant }

type waiter = { wt_family : Txn_id.t; wt_node : int; wt_mode : Lock.mode; wt_upgrade : bool }

let is_writer w = w.wt_upgrade || Lock.equal w.wt_mode Lock.Write

(* Figure 1's NonHoldersPtr: the FIFO of waiting families. A two-list
   queue, so that enqueue at the tail, an upgrade's push at the head and
   the head pop are all amortised O(1): [front] holds the head in order,
   [back] the tail newest-first, and [back] is reversed onto [front] only
   when [front] runs dry. The length and the number of queued writers
   (pending upgrades included) are cached beside the lists. *)
module Waitq = struct
  type t = {
    mutable front : waiter list;
    mutable back : waiter list;
    mutable len : int;
    mutable writers : int;
  }

  let create () = { front = []; back = []; len = 0; writers = 0 }

  let count q w d =
    q.len <- q.len + d;
    if is_writer w then q.writers <- q.writers + d

  let push q w =
    q.back <- w :: q.back;
    count q w 1

  let push_front q w =
    q.front <- w :: q.front;
    count q w 1

  (* The queue from its head; [pop] then drops the first element. An empty
     queue, the uncontended case, is read without a write. *)
  let head q =
    match (q.front, q.back) with
    | [], (_ :: _ as back) ->
        q.front <- List.rev back;
        q.back <- [];
        q.front
    | front, _ -> front

  let pop q =
    match head q with
    | w :: rest ->
        q.front <- rest;
        count q w (-1)
    | [] -> ()

  let to_list q = q.front @ List.rev q.back

  (* Remove every waiter satisfying [p] in one pass; returns them in queue
     order. *)
  let extract q p =
    let out, kept = List.partition p (to_list q) in
    if out <> [] then begin
      q.front <- kept;
      q.back <- [];
      List.iter (fun w -> count q w (-1)) out
    end;
    out
end

(* Escrow ledger of one object: the committed quantity, its invariant
   bounds, the outstanding (uncommitted) per-family delta reservations, and
   the per-node delegated quotas backing the zero-message local fast path.
   Locks and escrow exclude each other: a reservation is refused while a
   normal lock is held, and a normal acquire queues while foreign
   reservations or any delegated quota are outstanding. *)
type escrow_state = {
  mutable esc_value : int;
  esc_lower : int;
  esc_upper : int;
  (* (family, node, aggregated delta); each family appears at most once. *)
  mutable esc_res : (Txn_id.t * int * int) list;
  (* (node, remaining units), ascending by node; absent = 0. *)
  mutable esc_quota_up : (int * int) list;
  mutable esc_quota_down : (int * int) list;
  (* Bumped by begin_recall; a yield stamped with an older epoch is stale
     (the fencing mirrors lease recall). *)
  mutable esc_epoch : int;
}

type escrow_result = Escrow_admitted | Escrow_refused_bounds | Escrow_refused_locked

type entry = {
  oid : Oid.t;
  mutable state : lock_state;
  mutable holders : holder list;  (* one writer, or >= 1 readers *)
  waiting : Waitq.t;  (* upgrades are pushed at the head *)
  page_nodes : int array;
  page_versions : int array;
  mutable copyset : int list;  (* ascending *)
  mutable escrow : escrow_state option;
}

type t = {
  entries : entry Oid.Table.t;
  (* family -> objects it is currently queued on: exactly the (family,
     object) pairs with a waiter in that object's queue. Usually a
     singleton (a family executes sequentially), but optimistic
     pre-acquisition can have a family waiting on several locks at once. *)
  mutable waiting_on : Oid.Set.t Txn_id.Map.t;
}

let create () = { entries = Oid.Table.create 128; waiting_on = Txn_id.Map.empty }

let waits_of t f =
  match Txn_id.Map.find_opt f t.waiting_on with Some s -> s | None -> Oid.Set.empty

let add_wait t f oid = t.waiting_on <- Txn_id.Map.add f (Oid.Set.add oid (waits_of t f)) t.waiting_on

let remove_wait t f oid =
  let s = Oid.Set.remove oid (waits_of t f) in
  t.waiting_on <-
    (if Oid.Set.is_empty s then Txn_id.Map.remove f t.waiting_on
     else Txn_id.Map.add f s t.waiting_on)

let register_object t oid ~pages ~initial_node =
  if Oid.Table.mem t.entries oid then
    invalid_arg (Format.asprintf "Directory.register_object: duplicate %a" Oid.pp oid);
  if pages <= 0 then invalid_arg "Directory.register_object: pages must be positive";
  Oid.Table.add t.entries oid
    {
      oid;
      state = Free;
      holders = [];
      waiting = Waitq.create ();
      page_nodes = Array.make pages initial_node;
      page_versions = Array.make pages 0;
      copyset = [ initial_node ];
      escrow = None;
    }

let get t oid =
  match Oid.Table.find_opt t.entries oid with
  | Some e -> e
  | None -> invalid_arg (Format.asprintf "Directory: unregistered object %a" Oid.pp oid)

let make_grant e mode =
  {
    g_oid = e.oid;
    g_mode = mode;
    g_page_nodes = Array.copy e.page_nodes;
    g_page_versions = Array.copy e.page_versions;
  }

let holds e family = List.exists (fun h -> Txn_id.equal h.family family) e.holders

(* --- escrow worst-case accounting ------------------------------------- *)

let quota_sum q = List.fold_left (fun acc (_, u) -> acc + u) 0 q

(* Sum of every outstanding obligation that could still lower (raise) the
   committed quantity: uncommitted negative (positive) reservations plus
   delegated down- (up-) quota. worst_down <= 0 <= worst_up. *)
let esc_worst_down es =
  List.fold_left (fun acc (_, _, d) -> if d < 0 then acc + d else acc) 0 es.esc_res
  - quota_sum es.esc_quota_down

let esc_worst_up es =
  List.fold_left (fun acc (_, _, d) -> if d > 0 then acc + d else acc) 0 es.esc_res
  + quota_sum es.esc_quota_up

(* Headroom-form admission test (no overflow on an unbounded side). *)
let esc_admits es ~delta =
  if delta < 0 then es.esc_value + esc_worst_down es - es.esc_lower + delta >= 0
  else if delta > 0 then es.esc_upper - es.esc_value - esc_worst_up es - delta >= 0
  else true

(* Is a normal lock grant to [family] blocked by escrow state? Foreign
   reservations and any delegated quota must drain first (the runtime
   recalls quotas when a waiter queues); the family's own reservations do
   not block it — both commit together at its root commit. *)
let escrow_blocked e family =
  match e.escrow with
  | None -> false
  | Some es ->
      List.exists (fun (f, _, _) -> not (Txn_id.equal f family)) es.esc_res
      || List.exists (fun (_, u) -> u > 0) es.esc_quota_up
      || List.exists (fun (_, u) -> u > 0) es.esc_quota_down

(* Families that [family] would wait on if queued on [e] with [mode]:
   the current lock holders, plus — while the entry is escrow-blocked —
   the foreign escrow reservation families (a queued waiter cannot be
   promoted until they commit or abort, so they are real wait targets;
   a reservation family that itself waits on a lock elsewhere can close
   a cycle through them). Delegated quota has no family to point at; it
   is recalled actively, so a wait on quota always resolves. *)
let blockers e ~family ~upgrade:_ =
  let held =
    List.filter_map
      (fun h -> if Txn_id.equal h.family family then None else Some h.family)
      e.holders
  in
  let reserved =
    match e.escrow with
    | None -> []
    | Some es ->
        List.filter_map
          (fun (f, _, _) -> if Txn_id.equal f family then None else Some f)
          es.esc_res
  in
  held @ List.filter (fun f -> not (List.exists (Txn_id.equal f) held)) reserved

(* Does making [family] wait on [oid] close a cycle? Walk the dynamic
   waits-for graph: a waiting family points at the current holders — and
   escrow reservers — of the object it waits on. *)
let would_deadlock t ~family ~on_oid =
  let visited = ref Txn_id.Set.empty in
  let rec reaches_requester f =
    if Txn_id.equal f family then true
    else if Txn_id.Set.mem f !visited then false
    else begin
      visited := Txn_id.Set.add f !visited;
      Oid.Set.exists
        (fun oid ->
          let e = get t oid in
          List.exists reaches_requester (blockers e ~family:f ~upgrade:false))
        (waits_of t f)
    end
  in
  let e = get t on_oid in
  let bs = blockers e ~family ~upgrade:false in
  let cycle = List.filter reaches_requester bs in
  if cycle = [] then None else Some (family :: cycle)

let enqueue t e w =
  if w.wt_upgrade then Waitq.push_front e.waiting w else Waitq.push e.waiting w;
  add_wait t w.wt_family e.oid

let acquire t oid ~family ~node ~mode ?(block = true) () =
  let e = get t oid in
  let wait_or_busy ~upgrade =
    if not block then Busy
      (* Idempotence under retransmitted requests: a family already in the
         wait queue is told Queued again without a second entry (and without
         re-running the deadlock check — its wait is already recorded). The
         waits-for map names exactly the queued (family, object) pairs. *)
    else if Oid.Set.mem oid (waits_of t family) then Queued
    else
      match would_deadlock t ~family ~on_oid:oid with
      | Some cycle -> Deadlock cycle
      | None ->
          enqueue t e { wt_family = family; wt_node = node; wt_mode = mode; wt_upgrade = upgrade };
          Queued
  in
  let grant_fresh m =
    e.state <- (match m with Lock.Read -> Held_read | Lock.Write -> Held_write);
    e.holders <- e.holders @ [ { family; node } ];
    Granted (make_grant e m)
  in
  match e.state with
  | Free when escrow_blocked e family ->
      (* Outstanding escrow work excludes a normal grant; queue behind it.
         Escrow families never wait (reservations are refused, not queued),
         so they can have no outgoing waits-for edge and no cycle can run
         through them — the deadlock check stays sound. *)
      wait_or_busy ~upgrade:false
  | Free -> grant_fresh mode
  | Held_read when holds e family -> (
      match mode with
      | Lock.Read -> Granted (make_grant e Lock.Read)  (* re-entrant *)
      | Lock.Write ->
          (* Upgrade. Sole reader: grant. Otherwise wait at the front. *)
          if List.length e.holders = 1 then begin
            e.state <- Held_write;
            Granted (make_grant e Lock.Write)
          end
          else wait_or_busy ~upgrade:true)
  | Held_write when holds e family ->
      (* Re-entrant in either mode: Write subsumes Read. *)
      Granted (make_grant e Lock.Write)
  | Held_read when Lock.equal mode Lock.Read && e.waiting.len = 0 ->
      (* Concurrent reading is OK — but do not overtake queued writers. *)
      e.holders <- e.holders @ [ { family; node } ];
      Granted (make_grant e Lock.Read)
  | Held_read | Held_write -> wait_or_busy ~upgrade:false

let apply_dirty e dirty =
  List.iter
    (fun (page, version, node) ->
      if page < 0 || page >= Array.length e.page_nodes then
        invalid_arg "Directory.release: dirty page out of range";
      if version > e.page_versions.(page) then begin
        e.page_versions.(page) <- version;
        e.page_nodes.(page) <- node
      end)
    dirty

(* After a release, hand the lock over per Algorithm 4.4: first a pending
   upgrade if its family is now the sole reader, then the FIFO prefix of
   compatible waiters (one writer, or a maximal batch of readers). *)
let promote t e =
  let deliveries = ref [] in
  let grant_to w mode =
    remove_wait t w.wt_family e.oid;
    (match mode with
    | Lock.Read ->
        e.state <- Held_read;
        if not (holds e w.wt_family) then
          e.holders <- e.holders @ [ { family = w.wt_family; node = w.wt_node } ]
    | Lock.Write ->
        e.state <- Held_write;
        if not (holds e w.wt_family) then
          e.holders <- e.holders @ [ { family = w.wt_family; node = w.wt_node } ]);
    deliveries :=
      { d_family = w.wt_family; d_node = w.wt_node; d_grant = make_grant e mode } :: !deliveries
  in
  let rec loop () =
    match Waitq.head e.waiting with
    | [] -> ()
    | w :: _ -> (
        match e.state with
        | Free when escrow_blocked e w.wt_family ->
            (* Deferred until the escrow side drains (commit/abort of every
               foreign reservation, yield of every delegated quota). *)
            ()
        | Free ->
            Waitq.pop e.waiting;
            grant_to w w.wt_mode;
            loop ()
        | Held_read
          when w.wt_upgrade
               && List.length e.holders = 1
               && holds e w.wt_family ->
            Waitq.pop e.waiting;
            grant_to w Lock.Write
        | Held_read when Lock.equal w.wt_mode Lock.Read && not w.wt_upgrade ->
            Waitq.pop e.waiting;
            grant_to w Lock.Read;
            loop ()
        | Held_read | Held_write -> ())
  in
  loop ();
  List.rev !deliveries

let release t oid ~family ~dirty =
  let e = get t oid in
  if not (holds e family) then []
  else begin
    apply_dirty e dirty;
    e.holders <- List.filter (fun h -> not (Txn_id.equal h.family family)) e.holders;
    if e.holders = [] then e.state <- Free;
    promote t e
  end

(* Crash recovery: drop every trace of the families [dead] judges dead —
   held locks, wait-queue entries and their waits-for edges — then promote,
   so queued survivors receive their deferred grants. Sorted by oid for a
   deterministic delivery order. *)
let evict_families t ~dead =
  let entries =
    Oid.Table.fold (fun _ e acc -> e :: acc) t.entries []
    |> List.sort (fun a b -> Oid.compare a.oid b.oid)
  in
  let evicted = ref Txn_id.Set.empty in
  let deliveries = ref [] in
  List.iter
    (fun e ->
      let note f = evicted := Txn_id.Set.add f !evicted in
      (* A dead family's escrow reservations are released un-committed, as
         its page writes are — the reserved delta was never published. *)
      (match e.escrow with
      | Some es when List.exists (fun (f, _, _) -> dead f) es.esc_res ->
          List.iter (fun (f, _, _) -> if dead f then note f) es.esc_res;
          es.esc_res <- List.filter (fun (f, _, _) -> not (dead f)) es.esc_res
      | Some _ | None -> ());
      let doomed_holders = List.filter (fun h -> dead h.family) e.holders in
      let doomed_waiters = Waitq.extract e.waiting (fun w -> dead w.wt_family) in
      if doomed_holders <> [] || doomed_waiters <> [] then begin
        List.iter (fun (h : holder) -> note h.family) doomed_holders;
        List.iter
          (fun w ->
            note w.wt_family;
            remove_wait t w.wt_family e.oid)
          doomed_waiters;
        e.holders <- List.filter (fun h -> not (dead h.family)) e.holders;
        if e.holders = [] then e.state <- Free;
        deliveries := List.rev_append (promote t e) !deliveries
      end)
    entries;
  (Txn_id.Set.cardinal !evicted, List.rev !deliveries)

(* Crash recovery: repoint page-map entries naming [dead_node] at a
   surviving copy of the same committed version, found by [find_copy]
   (typically a scan of the live nodes' page stores). Entries with no
   surviving copy are left in place: the versions the map records are
   durable at their owner, so the rejoining node serves them again after
   restart. Returns the number of entries repointed. *)
let repoint_pages t ~dead_node ~find_copy =
  let entries =
    Oid.Table.fold (fun _ e acc -> e :: acc) t.entries []
    |> List.sort (fun a b -> Oid.compare a.oid b.oid)
  in
  let repointed = ref 0 in
  List.iter
    (fun e ->
      Array.iteri
        (fun page node ->
          if node = dead_node then
            match find_copy e.oid ~page ~version:e.page_versions.(page) with
            | Some live when live <> dead_node ->
                e.page_nodes.(page) <- live;
                incr repointed
            | Some _ | None -> ())
        e.page_nodes)
    entries;
  !repointed

let lock_state t oid = (get t oid).state
let holders t oid = (get t oid).holders

let read_count t oid =
  let e = get t oid in
  match e.state with Held_read -> List.length e.holders | _ -> 0

let waiting_count t oid = (get t oid).waiting.len
let has_queued_writer t oid = (get t oid).waiting.writers > 0

let page_map t oid =
  let e = get t oid in
  (Array.copy e.page_nodes, Array.copy e.page_versions)

(* [node] inserted into the ascending list [l]; [l] itself when already
   there, so a repeat grant allocates nothing. *)
let rec insert_node (node : int) = function
  | [] -> [ node ]
  | x :: rest as l ->
      if node < x then node :: l
      else if node = x then l
      else
        let rest' = insert_node node rest in
        if rest' == rest then l else x :: rest'

let note_cached t oid ~node =
  let e = get t oid in
  e.copyset <- insert_node node e.copyset

let copyset t oid = (get t oid).copyset

let object_count t = Oid.Table.length t.entries

(* --- escrow API -------------------------------------------------------- *)

let register_escrow t oid ~lower ~upper ~initial =
  let e = get t oid in
  if e.escrow <> None then
    invalid_arg (Format.asprintf "Directory.register_escrow: duplicate %a" Oid.pp oid);
  if lower > upper || initial < lower || initial > upper then
    invalid_arg "Directory.register_escrow: initial must lie within [lower, upper]";
  e.escrow <-
    Some
      {
        esc_value = initial;
        esc_lower = lower;
        esc_upper = upper;
        esc_res = [];
        esc_quota_up = [];
        esc_quota_down = [];
        esc_epoch = 0;
      }

let esc_get t oid =
  match (get t oid).escrow with
  | Some es -> es
  | None -> invalid_arg (Format.asprintf "Directory: object %a has no escrow" Oid.pp oid)

let has_escrow t oid = (get t oid).escrow <> None
let escrow_value t oid = (esc_get t oid).esc_value
let escrow_epoch t oid = (esc_get t oid).esc_epoch

let escrow_reservations t oid =
  List.sort
    (fun (a, _, _) (b, _, _) -> Txn_id.compare a b)
    (esc_get t oid).esc_res

let escrow_quotas t oid =
  let es = esc_get t oid in
  let nodes =
    List.sort_uniq Int.compare (List.map fst es.esc_quota_up @ List.map fst es.esc_quota_down)
  in
  List.filter_map
    (fun n ->
      let up = Option.value ~default:0 (List.assoc_opt n es.esc_quota_up) in
      let down = Option.value ~default:0 (List.assoc_opt n es.esc_quota_down) in
      if up > 0 || down > 0 then Some (n, up, down) else None)
    nodes

let escrow_outstanding t oid =
  match (get t oid).escrow with
  | None -> false
  | Some es ->
      es.esc_res <> []
      || List.exists (fun (_, u) -> u > 0) es.esc_quota_up
      || List.exists (fun (_, u) -> u > 0) es.esc_quota_down

let escrow_reserve t oid ~family ~node ~delta =
  let e = get t oid in
  let es = esc_get t oid in
  (* Queued waiters also refuse: a stream of reservations must not starve
     a parked exclusive acquirer, and refusing keeps the waiters' recorded
     wait edges complete — no reservation family appears after the
     deadlock check that queued them ran (yield carry-over, the one
     exception, re-runs the check itself). *)
  if e.state <> Free || e.waiting.len > 0 then Escrow_refused_locked
  else if not (esc_admits es ~delta) then Escrow_refused_bounds
  else begin
    (match List.find_opt (fun (f, _, _) -> Txn_id.equal f family) es.esc_res with
    | Some (_, n, d) ->
        es.esc_res <-
          (family, n, d + delta)
          :: List.filter (fun (f, _, _) -> not (Txn_id.equal f family)) es.esc_res
    | None -> es.esc_res <- (family, node, delta) :: es.esc_res);
    Escrow_admitted
  end

let esc_drop_res es family =
  match List.find_opt (fun (f, _, _) -> Txn_id.equal f family) es.esc_res with
  | None -> None
  | Some (_, _, d) ->
      es.esc_res <- List.filter (fun (f, _, _) -> not (Txn_id.equal f family)) es.esc_res;
      Some d

let escrow_commit t oid ~family =
  let e = get t oid in
  let es = esc_get t oid in
  (match esc_drop_res es family with
  | Some d -> es.esc_value <- es.esc_value + d
  | None -> ());
  promote t e

let escrow_abort t oid ~family =
  let e = get t oid in
  let es = esc_get t oid in
  ignore (esc_drop_res es family : int option);
  promote t e

let quota_add q node units =
  let cur = Option.value ~default:0 (List.assoc_opt node q) in
  (node, cur + units) :: List.remove_assoc node q |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let quota_take q node units =
  let cur = Option.value ~default:0 (List.assoc_opt node q) in
  if units > cur then
    invalid_arg "Directory: escrow quota underflow (node returned more than delegated)";
  let rest = List.remove_assoc node q in
  if cur - units = 0 then rest
  else (node, cur - units) :: rest |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let escrow_delegate t oid ~node ~up ~down =
  let e = get t oid in
  let es = esc_get t oid in
  if e.state <> Free || up < 0 || down < 0 then (0, 0)
  else begin
    (* Clamp each side to the worst-case headroom left after every
       outstanding obligation; delegated units become part of that worst
       case, so the invariant holds even if the node spends them all. *)
    let up_avail = max 0 (es.esc_upper - es.esc_value - esc_worst_up es) in
    let down_avail = max 0 (es.esc_value + esc_worst_down es - es.esc_lower) in
    let gu = min up up_avail and gd = min down down_avail in
    if gu > 0 then es.esc_quota_up <- quota_add es.esc_quota_up node gu;
    if gd > 0 then es.esc_quota_down <- quota_add es.esc_quota_down node gd;
    (gu, gd)
  end

let escrow_reconcile t oid ~node ~delta ~used_up ~used_down =
  let es = esc_get t oid in
  if used_up < 0 || used_down < 0 || delta <> used_up - used_down then
    invalid_arg "Directory.escrow_reconcile: delta must equal used_up - used_down";
  es.esc_quota_up <- quota_take es.esc_quota_up node used_up;
  es.esc_quota_down <- quota_take es.esc_quota_down node used_down;
  es.esc_value <- es.esc_value + delta

let escrow_begin_recall t oid =
  let es = esc_get t oid in
  es.esc_epoch <- es.esc_epoch + 1;
  es.esc_epoch

let escrow_yield t oid ~node ~epoch ~delta ~used_up ~used_down ~carried =
  let e = get t oid in
  let es = esc_get t oid in
  if epoch < es.esc_epoch then ([], [])
  else begin
    escrow_reconcile t oid ~node ~delta ~used_up ~used_down;
    (* Surrendering zeroes whatever quota remains after the final
       reconcile — the node keeps nothing across a recall. *)
    es.esc_quota_up <- List.remove_assoc node es.esc_quota_up;
    es.esc_quota_down <- List.remove_assoc node es.esc_quota_down;
    (* Re-book the units still held by the node's uncommitted families as
       home reservations. Admission is guaranteed: the units were part of
       the just-surrendered quota, so worst-case headroom only improved.
       The carried families are new wait targets the queued waiters never
       saw — re-run the deadlock check for each waiter and evict those
       whose wait now closes a cycle (the runtime delivers them the usual
       deadlock refusal). *)
    List.iter
      (fun (f, d) ->
        match List.find_opt (fun (f', _, _) -> Txn_id.equal f' f) es.esc_res with
        | Some (_, n, d0) ->
            es.esc_res <-
              (f, n, d0 + d) :: List.filter (fun (f', _, _) -> not (Txn_id.equal f' f)) es.esc_res
        | None -> es.esc_res <- (f, node, d) :: es.esc_res)
      carried;
    let victims =
      if carried = [] then []
      else
        Waitq.extract e.waiting (fun w ->
            Option.is_some (would_deadlock t ~family:w.wt_family ~on_oid:oid))
    in
    List.iter (fun w -> remove_wait t w.wt_family e.oid) victims;
    (promote t e, List.map (fun w -> (w.wt_family, w.wt_node)) victims)
  end

(* Structural invariants every reachable directory state must satisfy;
   the split-brain auditor's per-object half. Returns human-readable
   violation descriptions, [] when clean. Each queue is walked once: its
   (object, family) pairs are collected in [queued], and the waits-for map
   is checked against them at the end. *)
let audit t =
  let entries =
    Oid.Table.fold (fun _ e acc -> e :: acc) t.entries []
    |> List.sort (fun a b -> Oid.compare a.oid b.oid)
  in
  let queued = Hashtbl.create 16 in
  let per_entry =
    List.concat_map
      (fun e ->
        let v = ref [] in
        let bad fmt = Format.kasprintf (fun s -> v := s :: !v) fmt in
        (match e.state with
        | Held_write ->
            if List.length e.holders <> 1 then
              bad "%a: Held_write with %d holders (exactly one exclusive holder required)"
                Oid.pp e.oid (List.length e.holders)
        | Held_read ->
            if e.holders = [] then bad "%a: Held_read with no holders" Oid.pp e.oid
        | Free -> if e.holders <> [] then bad "%a: Free but has holders" Oid.pp e.oid);
        let rec dup = function
          | [] -> ()
          | h :: rest ->
              if List.exists (fun h' -> Txn_id.equal h'.family h.family) rest then
                bad "%a: family %a holds twice" Oid.pp e.oid Txn_id.pp h.family;
              dup rest
        in
        dup e.holders;
        let waiters = Waitq.to_list e.waiting in
        let len = List.length waiters and writers = List.length (List.filter is_writer waiters) in
        if len <> e.waiting.len || writers <> e.waiting.writers then
          bad "%a: wait queue caches %d waiters (%d writers) but holds %d (%d writers)" Oid.pp
            e.oid e.waiting.len e.waiting.writers len writers;
        List.iter
          (fun w ->
            if Hashtbl.mem queued (e.oid, w.wt_family) then
              bad "%a: family %a queued twice" Oid.pp e.oid Txn_id.pp w.wt_family
            else Hashtbl.add queued (e.oid, w.wt_family) ();
            if not (Oid.Set.mem e.oid (waits_of t w.wt_family)) then
              bad "%a: waiter %a has no waits-for edge" Oid.pp e.oid Txn_id.pp w.wt_family)
          waiters;
        (match e.escrow with
        | None -> ()
        | Some es ->
            if es.esc_value < es.esc_lower || es.esc_value > es.esc_upper then
              bad "%a: escrow value %d outside [%d, %d]" Oid.pp e.oid es.esc_value es.esc_lower
                es.esc_upper;
            if es.esc_value + esc_worst_down es < es.esc_lower then
              bad "%a: escrow worst-case low breaches the floor" Oid.pp e.oid;
            if es.esc_upper - es.esc_value - esc_worst_up es < 0 then
              bad "%a: escrow worst-case high breaches the ceiling" Oid.pp e.oid;
            List.iter
              (fun (n, u) -> if u < 0 then bad "%a: negative up-quota at node %d" Oid.pp e.oid n)
              es.esc_quota_up;
            List.iter
              (fun (n, u) ->
                if u < 0 then bad "%a: negative down-quota at node %d" Oid.pp e.oid n)
              es.esc_quota_down;
            let rec dup_res = function
              | [] -> ()
              | (f, _, _) :: rest ->
                  if List.exists (fun (f', _, _) -> Txn_id.equal f' f) rest then
                    bad "%a: family %a reserves twice" Oid.pp e.oid Txn_id.pp f;
                  dup_res rest
            in
            dup_res es.esc_res;
            if
              e.state <> Free
              && List.exists
                   (fun (f, _, _) -> not (List.exists (fun h -> Txn_id.equal h.family f) e.holders))
                   es.esc_res
            then bad "%a: locked with foreign escrow reservations outstanding" Oid.pp e.oid);
        List.rev !v)
      entries
  in
  (* The converse of "every waiter has an edge": acquire's idempotence
     check reads the waits-for map in place of scanning the queue. *)
  let stray_edges =
    Txn_id.Map.fold
      (fun f oids acc ->
        Oid.Set.fold
          (fun oid acc ->
            if Hashtbl.mem queued (oid, f) then acc
            else
              Format.asprintf "%a: waits-for edge of %a has no waiter" Oid.pp oid Txn_id.pp f
              :: acc)
          oids acc)
      t.waiting_on []
  in
  per_entry @ List.rev stray_edges

let dump ?partition_info t =
  let buf = Buffer.create 256 in
  let entries =
    Oid.Table.fold (fun _ e acc -> e :: acc) t.entries []
    |> List.sort (fun a b -> Oid.compare a.oid b.oid)
  in
  let esc_active e =
    match e.escrow with
    | None -> false
    | Some es -> es.esc_res <> [] || es.esc_quota_up <> [] || es.esc_quota_down <> []
  in
  List.iter
    (fun e ->
      if e.state <> Free || e.waiting.len > 0 || esc_active e then begin
        let state =
          match e.state with Free -> "free" | Held_read -> "R" | Held_write -> "W"
        in
        let holders =
          String.concat ","
            (List.map
               (fun h -> Format.asprintf "%a@%d" Txn_id.pp h.family h.node)
               e.holders)
        in
        let waiters =
          String.concat ","
            (List.map
               (fun w ->
                 Format.asprintf "%a@%d:%a%s" Txn_id.pp w.wt_family w.wt_node Lock.pp w.wt_mode
                   (if w.wt_upgrade then "!" else ""))
               (Waitq.to_list e.waiting))
        in
        let extra =
          match partition_info with
          | None -> ""
          | Some f -> " " ^ f e.oid
        in
        let escrow =
          match e.escrow with
          | Some es when esc_active e ->
              let res =
                String.concat ","
                  (List.map
                     (fun (f, n, d) -> Format.asprintf "%a@%d:%+d" Txn_id.pp f n d)
                     (List.sort (fun (a, _, _) (b, _, _) -> Txn_id.compare a b) es.esc_res))
              in
              let quotas =
                String.concat ","
                  (List.map
                     (fun (n, up, down) -> Printf.sprintf "n%d:+%d/-%d" n up down)
                     (escrow_quotas t e.oid))
              in
              Printf.sprintf " escrow{v=%d res=[%s] quota=[%s] epoch=%d}" es.esc_value res
                quotas es.esc_epoch
          | Some _ | None -> ""
        in
        Buffer.add_string buf
          (Format.asprintf "%a: %s holders=[%s] waiting=[%s]%s%s\n" Oid.pp e.oid state holders
             waiters escrow extra)
      end)
    entries;
  Buffer.contents buf

let waits_for_edges t =
  Txn_id.Map.fold
    (fun waiter oids acc ->
      Oid.Set.fold
        (fun oid acc ->
          let e = get t oid in
          List.fold_left
            (fun acc h ->
              if Txn_id.equal h.family waiter then acc else (waiter, h.family) :: acc)
            acc e.holders)
        oids acc)
    t.waiting_on []
