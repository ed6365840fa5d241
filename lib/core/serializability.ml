open Objmodel
open Txn

type access = { oid : Oid.t; page : int; version : int }

type committed_root = { root : Txn_id.t; reads : access list; writes : access list }

type verdict = Serializable of Txn_id.t list | Cyclic of Txn_id.t list

type write = { version : int; writer : Txn_id.t }

let compare_edge (a1, b1) (a2, b2) =
  let c = Txn_id.compare a1 a2 in
  if c <> 0 then c else Txn_id.compare b1 b2

let edges roots =
  (* Dense page slots: oid [o]'s page [p] is slot [base.(o) + p] (oids are
     dense catalog indices). *)
  let each f = List.iter (fun r -> List.iter f r.reads; List.iter f r.writes) roots in
  let oids = ref 0 in
  each (fun a -> oids := Int.max !oids (Oid.to_int a.oid + 1));
  let base = Array.make (!oids + 1) 0 in
  each (fun a ->
      let o = Oid.to_int a.oid + 1 in
      base.(o) <- Int.max base.(o) (a.page + 1));
  for o = 1 to !oids do
    base.(o) <- base.(o - 1) + base.(o)
  done;
  let slot a = base.(Oid.to_int a.oid) + a.page in
  (* Each page's writers, sorted by version. They are filled in from the
     back and sorted stably, so writers that claim the same version stay in
     reverse listing order. *)
  let count = Array.make base.(!oids) 0 in
  let each_write f = List.iter (fun r -> List.iter (f r) r.writes) roots in
  each_write (fun _ a ->
      let s = slot a in
      count.(s) <- count.(s) + 1);
  let pages = Array.map (fun n -> Array.make n { version = 0; writer = Txn_id.of_int 0 }) count in
  each_write (fun r a ->
      let s = slot a in
      count.(s) <- count.(s) - 1;
      pages.(s).(count.(s)) <- { version = a.version; writer = r.root });
  Array.iter (Array.stable_sort (fun w1 w2 -> Int.compare w1.version w2.version)) pages;
  let acc = ref [] in
  let add a b = if not (Txn_id.equal a b) then acc := (a, b) :: !acc in
  (* ww edges between consecutive writers. *)
  Array.iter
    (fun ws ->
      for i = 1 to Array.length ws - 1 do
        add ws.(i - 1).writer ws.(i).writer
      done)
    pages;
  List.iter
    (fun r ->
      List.iter
        (fun (a : access) ->
          let ws = pages.(slot a) in
          let n = Array.length ws in
          let lo = ref 0 and hi = ref n in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if ws.(mid).version < a.version then lo := mid + 1 else hi := mid
          done;
          (* wr: whoever wrote the version read precedes the reader. *)
          while !lo < n && ws.(!lo).version = a.version do
            add ws.(!lo).writer r.root;
            incr lo
          done;
          (* rw: the reader precedes the writer of the next version. *)
          if !lo < n then add r.root ws.(!lo).writer)
        r.reads)
    roots;
  List.sort_uniq compare_edge !acc

let check roots =
  let es = edges roots in
  let nodes = List.map (fun r -> r.root) roots in
  let succs = Txn_id.Table.create 64 in
  List.iter
    (fun (a, b) ->
      let cur = Option.value ~default:[] (Txn_id.Table.find_opt succs a) in
      Txn_id.Table.replace succs a (b :: cur))
    es;
  (* DFS with colours; produces reverse topological order or finds a cycle.
     [visit] recurses once per node of a path, on OCaml 5's growable stack:
     a 1,000,000-root single-page ww chain checks without overflow. *)
  let colour = Txn_id.Table.create 64 in
  (* 1 = in progress, 2 = done *)
  let order = ref [] in
  let cycle = ref None in
  let rec visit path n =
    if !cycle <> None then ()
    else
      match Txn_id.Table.find_opt colour n with
      | Some 2 -> ()
      | Some _ ->
          let rec take acc = function
            | [] -> acc
            | x :: rest -> if Txn_id.equal x n then x :: acc else take (x :: acc) rest
          in
          cycle := Some (take [] path)
      | None ->
          Txn_id.Table.replace colour n 1;
          List.iter (visit (n :: path)) (Option.value ~default:[] (Txn_id.Table.find_opt succs n));
          Txn_id.Table.replace colour n 2;
          order := n :: !order
  in
  List.iter (fun n -> visit [] n) nodes;
  match !cycle with Some c -> Cyclic c | None -> Serializable !order

(* --- escrow semantics -------------------------------------------------- *)

type escrow_op =
  | E_reserve of { oid : Oid.t; family : Txn_id.t; delta : int }
  | E_commit of { oid : Oid.t; family : Txn_id.t }
  | E_abort of { oid : Oid.t; family : Txn_id.t }
  | E_delegate of { oid : Oid.t; node : int; up : int; down : int }
  | E_local_commit of { oid : Oid.t; node : int; delta : int }
  | E_reconcile of { oid : Oid.t; node : int; delta : int; used_up : int; used_down : int }
  | E_revoke of { oid : Oid.t; node : int }

(* Replay state of one escrowed object: the home's committed value, the
   outstanding per-family reservations, and per node the remaining delegated
   quota plus the locally committed delta not yet reconciled home. The
   worst-case and conservation checks read running sums kept beside them,
   so each op costs O(1) however many reservations and nodes are open. *)
type obj_state = {
  mutable value : int;
  (* family -> (net reserved delta, index of its latest reserve op) *)
  res : (int * int) Txn_id.Table.t;
  mutable committed : int;  (* sum of every delta committed so far *)
  nodes : (int, node_state) Hashtbl.t;
  mutable res_up : int;  (* sum of the positive net reservations *)
  mutable res_down : int;  (* sum of the negative net reservations *)
  mutable quota_up : int;  (* sum of the nodes' [q_up] *)
  mutable quota_down : int;  (* sum of the nodes' [q_down] *)
  mutable pending_sum : int;  (* sum of the nodes' [pending] *)
}

and node_state = {
  mutable q_up : int;
  mutable q_down : int;
  mutable pending : int;  (* net local-commit delta since the last reconcile *)
  mutable spent_up : int;  (* quota units spent since the last reconcile *)
  mutable spent_down : int;
}

(* Add (or, with [sign] -1, remove) a family's net reservation [d]. *)
let count_reservation s ~sign d =
  if d > 0 then s.res_up <- s.res_up + (sign * d)
  else s.res_down <- s.res_down + (sign * d)

let check_escrow ~lower ~upper ~initial ~ops =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let objects : obj_state Oid.Table.t = Oid.Table.create 16 in
  let state oid =
    match Oid.Table.find_opt objects oid with
    | Some s -> s
    | None ->
        let s =
          {
            value = initial;
            res = Txn_id.Table.create 8;
            committed = 0;
            nodes = Hashtbl.create 4;
            res_up = 0;
            res_down = 0;
            quota_up = 0;
            quota_down = 0;
            pending_sum = 0;
          }
        in
        Oid.Table.add objects oid s;
        s
  in
  let node_state s n =
    match Hashtbl.find_opt s.nodes n with
    | Some ns -> ns
    | None ->
        let ns = { q_up = 0; q_down = 0; pending = 0; spent_up = 0; spent_down = 0 } in
        Hashtbl.add s.nodes n ns;
        ns
  in
  let worst_down s = s.res_down - s.quota_down in
  let worst_up s = s.res_up + s.quota_up in
  (* A family's reservation leaves the books at its commit or abort. *)
  let resolve s family =
    match Txn_id.Table.find_opt s.res family with
    | None -> None
    | Some (d, _) ->
        Txn_id.Table.remove s.res family;
        count_reservation s ~sign:(-1) d;
        Some d
  in
  (* Invariants that must hold after every step: the worst case over all
     outstanding obligations stays in bounds, and the home value plus the
     unreconciled node deltas equals initial + everything committed
     (conservation — no delta is lost or applied twice). *)
  let assert_state i oid s =
    if s.value < lower || s.value > upper then
      err "op %d: %a value %d outside [%d, %d]" i Oid.pp oid s.value lower upper;
    if s.value + worst_down s < lower then
      err "op %d: %a worst-case low %d breaches floor %d" i Oid.pp oid
        (s.value + worst_down s) lower;
    if upper - s.value - worst_up s < 0 then
      err "op %d: %a worst-case high %d breaches ceiling %d" i Oid.pp oid
        (s.value + worst_up s) upper;
    if s.value + s.pending_sum <> initial + s.committed then
      err "op %d: %a conservation broken: value %d + pending %d <> initial %d + committed %d"
        i Oid.pp oid s.value s.pending_sum initial s.committed
  in
  List.iteri
    (fun i op ->
      match op with
      | E_reserve { oid; family; delta } ->
          let s = state oid in
          (* The log only records admitted reservations; re-run the
             admission test to prove each admission was legal. *)
          let ok =
            if delta < 0 then s.value + worst_down s - lower + delta >= 0
            else if delta > 0 then upper - s.value - worst_up s - delta >= 0
            else true
          in
          if not ok then
            err "op %d: %a reservation %+d by %a was admitted but breaches a bound" i Oid.pp
              oid delta Txn_id.pp family;
          let cur = Option.value ~default:0 (resolve s family) in
          Txn_id.Table.replace s.res family (cur + delta, i);
          count_reservation s ~sign:1 (cur + delta);
          assert_state i oid s
      | E_commit { oid; family } -> (
          let s = state oid in
          match resolve s family with
          | None -> err "op %d: %a commit by %a with no reservation" i Oid.pp oid Txn_id.pp family
          | Some d ->
              s.value <- s.value + d;
              s.committed <- s.committed + d;
              assert_state i oid s)
      | E_abort { oid; family } ->
          let s = state oid in
          if resolve s family = None then
            err "op %d: %a abort by %a with no reservation" i Oid.pp oid Txn_id.pp family;
          assert_state i oid s
      | E_delegate { oid; node; up; down } ->
          let s = state oid in
          if up < 0 || down < 0 then err "op %d: %a negative delegation" i Oid.pp oid;
          let ns = node_state s node in
          ns.q_up <- ns.q_up + up;
          ns.q_down <- ns.q_down + down;
          s.quota_up <- s.quota_up + up;
          s.quota_down <- s.quota_down + down;
          assert_state i oid s
      | E_local_commit { oid; node; delta } ->
          let s = state oid in
          let ns = node_state s node in
          if delta > 0 then begin
            if ns.q_up < delta then
              err "op %d: %a node %d local commit %+d exceeds up-quota %d" i Oid.pp oid node
                delta ns.q_up;
            ns.q_up <- ns.q_up - delta;
            s.quota_up <- s.quota_up - delta;
            ns.spent_up <- ns.spent_up + delta
          end
          else if delta < 0 then begin
            if ns.q_down < -delta then
              err "op %d: %a node %d local commit %+d exceeds down-quota %d" i Oid.pp oid node
                delta ns.q_down;
            ns.q_down <- ns.q_down + delta;
            s.quota_down <- s.quota_down + delta;
            ns.spent_down <- ns.spent_down - delta
          end;
          ns.pending <- ns.pending + delta;
          s.pending_sum <- s.pending_sum + delta;
          s.committed <- s.committed + delta;
          assert_state i oid s
      | E_reconcile { oid; node; delta; used_up; used_down } ->
          let s = state oid in
          let ns = node_state s node in
          if delta <> ns.pending then
            err "op %d: %a node %d reconciles %+d but %+d is pending" i Oid.pp oid node delta
              ns.pending;
          if used_up <> ns.spent_up || used_down <> ns.spent_down then
            err "op %d: %a node %d reports quota use %d/%d, spent %d/%d" i Oid.pp oid node
              used_up used_down ns.spent_up ns.spent_down;
          s.value <- s.value + ns.pending;
          s.pending_sum <- s.pending_sum - ns.pending;
          ns.pending <- 0;
          ns.spent_up <- 0;
          ns.spent_down <- 0;
          assert_state i oid s
      | E_revoke { oid; node } ->
          let s = state oid in
          let ns = node_state s node in
          if ns.pending <> 0 then
            err "op %d: %a node %d quota revoked with %+d unreconciled" i Oid.pp oid node
              ns.pending;
          s.quota_up <- s.quota_up - ns.q_up;
          s.quota_down <- s.quota_down - ns.q_down;
          ns.q_up <- 0;
          ns.q_down <- 0;
          assert_state i oid s)
    ops;
  (* End of run: every reservation resolved, every local delta reconciled. *)
  Oid.Table.iter
    (fun oid s ->
      (* Latest reserve first. *)
      Txn_id.Table.fold (fun f (d, at) acc -> (at, f, d) :: acc) s.res []
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a)
      |> List.iter (fun (_, f, d) ->
             err "end: %a reservation %+d by %a never resolved" Oid.pp oid d Txn_id.pp f);
      Hashtbl.iter
        (fun n ns ->
          if ns.pending <> 0 then
            err "end: %a node %d still has %+d unreconciled" Oid.pp oid n ns.pending)
        s.nodes;
      if s.value <> initial + s.committed then
        err "end: %a final value %d <> initial %d + committed %d" Oid.pp oid s.value initial
          s.committed)
    objects;
  let finals =
    Oid.Table.fold (fun oid s acc -> (oid, s.value) :: acc) objects []
    |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  in
  if !errors = [] then Ok finals else Error (List.rev !errors)
