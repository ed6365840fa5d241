(* Escrow commit: the admission test ({!Dsm.Escrow.admits}), the directory's
   delta-lock ledger (reserve/commit/abort, quota delegation, epoch-fenced
   recall), the {!Core.Serializability.check_escrow} replay checker, the
   escrow-off byte-identity guarantee, and the sweep's headline gate. *)

open Objmodel

let params = Dsm.Escrow.default_params

(* ---------- the admission test ---------- *)

let admits ?(params = params) ~value ~worst_down ~worst_up delta =
  Dsm.Escrow.admits params ~value ~worst_down ~worst_up ~delta

let test_admits_basics () =
  (* Bank shape: [0, +inf), value 1000. Any deposit fits; a withdrawal
     fits iff the worst case keeps the balance non-negative. *)
  Alcotest.(check bool) "deposit" true (admits ~value:1000 ~worst_down:0 ~worst_up:0 1);
  Alcotest.(check bool) "withdrawal" true (admits ~value:1000 ~worst_down:0 ~worst_up:0 (-1));
  Alcotest.(check bool) "drain to floor" true
    (admits ~value:1000 ~worst_down:(-999) ~worst_up:0 (-1));
  Alcotest.(check bool) "one past the floor" false
    (admits ~value:1000 ~worst_down:(-1000) ~worst_up:0 (-1));
  (* Obligations on the other side never help: a pending deposit cannot
     fund a withdrawal that would otherwise breach the floor. *)
  Alcotest.(check bool) "other side ignored" false
    (admits ~value:0 ~worst_down:0 ~worst_up:50 (-1))

let test_admits_unbounded_side_never_overflows () =
  (* upper_bound = max_int: the headroom form must stay exact (no
     overflow) with the value and outstanding raises near max_int. *)
  Alcotest.(check bool) "headroom near max_int" true
    (admits ~value:(max_int - 10) ~worst_down:0 ~worst_up:9 1);
  Alcotest.(check bool) "huge raises refused without overflow" false
    (admits ~value:(max_int - 10) ~worst_down:0 ~worst_up:(max_int / 2) 1);
  let bounded = { params with Dsm.Escrow.upper_bound = 2000 } in
  Alcotest.(check bool) "bounded ceiling holds" false
    (admits ~params:bounded ~value:1990 ~worst_down:0 ~worst_up:10 1);
  Alcotest.(check bool) "bounded ceiling admits" true
    (admits ~params:bounded ~value:1990 ~worst_down:0 ~worst_up:9 1)

let test_policy_of_string () =
  let ok = function Ok p -> p | Error e -> Alcotest.failf "parse error: %s" e in
  Alcotest.(check bool) "off" false (Dsm.Escrow.policy_enabled (ok (Dsm.Escrow.policy_of_string "off")));
  Alcotest.(check bool) "none" false (Dsm.Escrow.policy_enabled (ok (Dsm.Escrow.policy_of_string "none")));
  (match ok (Dsm.Escrow.policy_of_string "on") with
  | Dsm.Escrow.On p -> Alcotest.(check int) "default quota" params.Dsm.Escrow.local_quota p.Dsm.Escrow.local_quota
  | Dsm.Escrow.Off -> Alcotest.fail "on parsed as Off");
  (match ok (Dsm.Escrow.policy_of_string "on:4") with
  | Dsm.Escrow.On p -> Alcotest.(check int) "quota override" 4 p.Dsm.Escrow.local_quota
  | Dsm.Escrow.Off -> Alcotest.fail "on:4 parsed as Off");
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Dsm.Escrow.policy_of_string "sometimes"))

(* ---------- the directory's escrow ledger ---------- *)

let oid = Oid.of_int
let fam i = Txn.Txn_id.of_int i

let make_dir ?(lower = 0) ?(upper = max_int) ?(initial = 100) () =
  let d = Gdo.Directory.create () in
  Gdo.Directory.register_object d (oid 0) ~pages:2 ~initial_node:0;
  Gdo.Directory.register_escrow d (oid 0) ~lower ~upper ~initial;
  d

let is_admitted = function Gdo.Directory.Escrow_admitted -> true | _ -> false
let is_refused_bounds = function Gdo.Directory.Escrow_refused_bounds -> true | _ -> false
let is_refused_locked = function Gdo.Directory.Escrow_refused_locked -> true | _ -> false

let test_reserve_commit_abort () =
  let d = make_dir () in
  Alcotest.(check bool) "deposit admitted" true
    (is_admitted (Gdo.Directory.escrow_reserve d (oid 0) ~family:(fam 1) ~node:1 ~delta:1));
  Alcotest.(check bool) "withdrawal admitted" true
    (is_admitted (Gdo.Directory.escrow_reserve d (oid 0) ~family:(fam 2) ~node:2 ~delta:(-5)));
  (* Reservations are pending, not folded in. *)
  Alcotest.(check int) "value unchanged" 100 (Gdo.Directory.escrow_value d (oid 0));
  Alcotest.(check int) "two rows" 2 (List.length (Gdo.Directory.escrow_reservations d (oid 0)));
  ignore (Gdo.Directory.escrow_commit d (oid 0) ~family:(fam 1));
  Alcotest.(check int) "commit folds" 101 (Gdo.Directory.escrow_value d (oid 0));
  ignore (Gdo.Directory.escrow_abort d (oid 0) ~family:(fam 2));
  Alcotest.(check int) "abort drops" 101 (Gdo.Directory.escrow_value d (oid 0));
  Alcotest.(check bool) "ledger drained" false (Gdo.Directory.escrow_outstanding d (oid 0));
  (* Idempotent under retransmission. *)
  ignore (Gdo.Directory.escrow_commit d (oid 0) ~family:(fam 1));
  Alcotest.(check int) "re-commit is a no-op" 101 (Gdo.Directory.escrow_value d (oid 0))

let test_reserve_worst_case_bounds () =
  let d = make_dir ~initial:3 () in
  (* Three concurrent unit withdrawals exhaust the worst-case headroom. *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "withdrawal %d admitted" i)
        true
        (is_admitted (Gdo.Directory.escrow_reserve d (oid 0) ~family:(fam i) ~node:i ~delta:(-1))))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "fourth refused on bounds" true
    (is_refused_bounds (Gdo.Directory.escrow_reserve d (oid 0) ~family:(fam 4) ~node:4 ~delta:(-1)));
  (* One abort restores exactly one unit of headroom. *)
  ignore (Gdo.Directory.escrow_abort d (oid 0) ~family:(fam 1));
  Alcotest.(check bool) "headroom returns" true
    (is_admitted (Gdo.Directory.escrow_reserve d (oid 0) ~family:(fam 4) ~node:4 ~delta:(-1)))

let test_reserve_refused_while_locked () =
  let d = make_dir () in
  (match
     Gdo.Directory.acquire d (oid 0) ~family:(fam 9) ~node:0 ~mode:Txn.Lock.Write ()
   with
  | Gdo.Directory.Granted _ -> ()
  | _ -> Alcotest.fail "write lock not granted on a free object");
  Alcotest.(check bool) "refused under a lock" true
    (is_refused_locked (Gdo.Directory.escrow_reserve d (oid 0) ~family:(fam 1) ~node:1 ~delta:1));
  Alcotest.(check bool) "delegation refused too" true
    (Gdo.Directory.escrow_delegate d (oid 0) ~node:1 ~up:8 ~down:8 = (0, 0));
  ignore (Gdo.Directory.release d (oid 0) ~family:(fam 9) ~dirty:[]);
  Alcotest.(check bool) "admitted once the lock drains" true
    (is_admitted (Gdo.Directory.escrow_reserve d (oid 0) ~family:(fam 1) ~node:1 ~delta:1))

let test_delegate_clamps_to_headroom () =
  let d = make_dir ~initial:5 () in
  (* Down-quota is capped by worst-case headroom above the floor; up-quota
     is unbounded here (ceiling max_int). *)
  let up, down = Gdo.Directory.escrow_delegate d (oid 0) ~node:1 ~up:16 ~down:16 in
  Alcotest.(check int) "up granted in full" 16 up;
  Alcotest.(check int) "down clamped to headroom" 5 down;
  Alcotest.(check bool) "quota row recorded" true
    (Gdo.Directory.escrow_quotas d (oid 0) = [ (1, 16, 5) ]);
  (* A second node sees no down headroom left. *)
  let _, down2 = Gdo.Directory.escrow_delegate d (oid 0) ~node:2 ~up:16 ~down:16 in
  Alcotest.(check int) "second node gets none" 0 down2;
  (* Reconcile: node 1 spent 3 down units and 2 up units, net -1. *)
  Gdo.Directory.escrow_reconcile d (oid 0) ~node:1 ~delta:(-1) ~used_up:2 ~used_down:3;
  Alcotest.(check int) "delta folded" 4 (Gdo.Directory.escrow_value d (oid 0));
  Alcotest.(check bool) "quota consumed" true
    (List.mem (1, 14, 2) (Gdo.Directory.escrow_quotas d (oid 0)));
  Alcotest.check_raises "over-spend rejected"
    (Invalid_argument "Directory: escrow quota underflow (node returned more than delegated)")
    (fun () -> Gdo.Directory.escrow_reconcile d (oid 0) ~node:1 ~delta:100 ~used_up:100 ~used_down:0)

let test_recall_epoch_fencing () =
  let d = make_dir ~initial:50 () in
  let up, down = Gdo.Directory.escrow_delegate d (oid 0) ~node:1 ~up:8 ~down:8 in
  Alcotest.(check bool) "delegated" true (up = 8 && down = 8);
  let e0 = Gdo.Directory.escrow_epoch d (oid 0) in
  let e1 = Gdo.Directory.escrow_begin_recall d (oid 0) in
  Alcotest.(check int) "epoch bumped" (e0 + 1) e1;
  (* A yield stamped with the pre-recall epoch is stale: whole call no-ops. *)
  let deliveries, carried =
    Gdo.Directory.escrow_yield d (oid 0) ~node:1 ~epoch:e0 ~delta:5 ~used_up:5 ~used_down:0
      ~carried:[]
  in
  Alcotest.(check bool) "stale yield ignored" true (deliveries = [] && carried = []);
  Alcotest.(check int) "value untouched" 50 (Gdo.Directory.escrow_value d (oid 0));
  Alcotest.(check bool) "quota still booked" true
    (Gdo.Directory.escrow_quotas d (oid 0) = [ (1, 8, 8) ]);
  (* The fresh-epoch yield lands: delta folds, quota zeroes, the carried
     family re-books as a home reservation. *)
  let _, rebooked =
    Gdo.Directory.escrow_yield d (oid 0) ~node:1 ~epoch:e1 ~delta:3 ~used_up:4 ~used_down:1
      ~carried:[ (fam 7, 2) ]
  in
  Alcotest.(check bool) "carried re-booked" true
    (List.exists (fun (f, n) -> Txn.Txn_id.to_int f = 7 && n = 2) rebooked
    || List.exists
         (fun (f, _, delta) -> Txn.Txn_id.to_int f = 7 && delta = 2)
         (Gdo.Directory.escrow_reservations d (oid 0)));
  Alcotest.(check int) "yield delta folded" 53 (Gdo.Directory.escrow_value d (oid 0));
  Alcotest.(check bool) "quota zeroed" true (Gdo.Directory.escrow_quotas d (oid 0) = []);
  ignore (Gdo.Directory.escrow_commit d (oid 0) ~family:(fam 7));
  Alcotest.(check int) "carried family commits" 55 (Gdo.Directory.escrow_value d (oid 0));
  Alcotest.(check bool) "drained" false (Gdo.Directory.escrow_outstanding d (oid 0))

(* The yield's deadlock re-check evicts. W holds o1 exclusively and C
   queues behind it; W then queues on the escrowed o0, blocked only by
   node 1's delegated quota. Node 1's yield carries C's units into a home
   reservation, so W's wait on o0 now points at C, which waits on W: W
   comes back as a victim and leaves no trace in o0's queue or in the
   waits-for graph. *)
let test_yield_evicts_deadlocked_waiter () =
  let d = make_dir () in
  Gdo.Directory.register_object d (oid 1) ~pages:2 ~initial_node:0;
  let w = fam 1 and c = fam 2 in
  let acquire o family =
    Gdo.Directory.acquire d (oid o) ~family ~node:0 ~mode:Txn.Lock.Write ()
  in
  Alcotest.(check bool) "W holds o1" true
    (match acquire 1 w with Gdo.Directory.Granted _ -> true | _ -> false);
  Alcotest.(check bool) "C queues on o1" true (acquire 1 c = Gdo.Directory.Queued);
  Alcotest.(check bool) "quota delegated" true
    (Gdo.Directory.escrow_delegate d (oid 0) ~node:1 ~up:8 ~down:8 = (8, 8));
  Alcotest.(check bool) "W queues behind the quota" true (acquire 0 w = Gdo.Directory.Queued);
  Alcotest.(check bool) "W counted as a queued writer" true
    (Gdo.Directory.has_queued_writer d (oid 0));
  let epoch = Gdo.Directory.escrow_begin_recall d (oid 0) in
  let deliveries, victims =
    Gdo.Directory.escrow_yield d (oid 0) ~node:1 ~epoch ~delta:0 ~used_up:0 ~used_down:0
      ~carried:[ (c, -3) ]
  in
  Alcotest.(check (list (pair int int))) "W is the victim" [ (1, 0) ]
    (List.map (fun (f, n) -> (Txn.Txn_id.to_int f, n)) victims);
  Alcotest.(check int) "no deliveries" 0 (List.length deliveries);
  Alcotest.(check int) "o0 queue empty" 0 (Gdo.Directory.waiting_count d (oid 0));
  Alcotest.(check bool) "no queued writer on o0" false (Gdo.Directory.has_queued_writer d (oid 0));
  Alcotest.(check (list (pair int int))) "only C's wait on W remains" [ (2, 1) ]
    (List.map
       (fun (a, b) -> (Txn.Txn_id.to_int a, Txn.Txn_id.to_int b))
       (Gdo.Directory.waits_for_edges d));
  Alcotest.(check (list string)) "audit clean" [] (Gdo.Directory.audit d)

(* ---------- the replay checker ---------- *)

let check ops = Core.Serializability.check_escrow ~lower:0 ~upper:1000 ~initial:100 ~ops

let test_check_escrow_accepts_clean_log () =
  let ops =
    [
      Core.Serializability.E_reserve { oid = oid 0; family = fam 1; delta = 5 };
      Core.Serializability.E_delegate { oid = oid 0; node = 2; up = 4; down = 4 };
      Core.Serializability.E_commit { oid = oid 0; family = fam 1 };
      Core.Serializability.E_local_commit { oid = oid 0; node = 2; delta = 1 };
      Core.Serializability.E_local_commit { oid = oid 0; node = 2; delta = -2 };
      Core.Serializability.E_reconcile { oid = oid 0; node = 2; delta = -1; used_up = 1; used_down = 2 };
      Core.Serializability.E_revoke { oid = oid 0; node = 2 };
    ]
  in
  match check ops with
  | Ok [ (o, final) ] ->
      Alcotest.(check int) "oid" 0 (Oid.to_int o);
      Alcotest.(check int) "final value" 104 final
  | Ok _ -> Alcotest.fail "expected exactly one escrowed object"
  | Error es -> Alcotest.failf "clean log rejected: %s" (String.concat "; " es)

let test_check_escrow_rejects_bounds_breach () =
  (* A reservation the admission test should have refused: worst case
     101 - 200 < lower bound 0. *)
  let ops =
    [
      Core.Serializability.E_reserve { oid = oid 0; family = fam 1; delta = -200 };
      Core.Serializability.E_abort { oid = oid 0; family = fam 1 };
    ]
  in
  Alcotest.(check bool) "bounds breach detected" true (Result.is_error (check ops))

let test_check_escrow_rejects_quota_overspend () =
  let ops =
    [
      Core.Serializability.E_delegate { oid = oid 0; node = 2; up = 1; down = 0 };
      Core.Serializability.E_local_commit { oid = oid 0; node = 2; delta = 1 };
      Core.Serializability.E_local_commit { oid = oid 0; node = 2; delta = 1 };
    ]
  in
  Alcotest.(check bool) "overspend detected" true (Result.is_error (check ops))

let test_check_escrow_rejects_unresolved_end_state () =
  let dangling_reserve =
    [ Core.Serializability.E_reserve { oid = oid 0; family = fam 1; delta = 1 } ]
  in
  Alcotest.(check bool) "dangling reservation detected" true
    (Result.is_error (check dangling_reserve));
  let unreconciled =
    [
      Core.Serializability.E_delegate { oid = oid 0; node = 2; up = 4; down = 0 };
      Core.Serializability.E_local_commit { oid = oid 0; node = 2; delta = 1 };
    ]
  in
  Alcotest.(check bool) "unreconciled delta detected" true (Result.is_error (check unreconciled))

(* The replay checker's reference model: the direct fold over every
   outstanding reservation and every node on each op (O(open obligations)
   per op), against which the running-sum checker must agree exactly. *)
module Escrow_model = struct
  open Core.Serializability

  type obj_state = {
    mutable value : int;
    mutable res : (Txn.Txn_id.t * int) list;
    mutable committed : int;
    nodes : (int, node_state) Hashtbl.t;
  }

  and node_state = {
    mutable q_up : int;
    mutable q_down : int;
    mutable pending : int;
    mutable spent_up : int;
    mutable spent_down : int;
  }

  let check ~lower ~upper ~initial ~ops =
    let errors = ref [] in
    let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
    let objects : obj_state Oid.Table.t = Oid.Table.create 16 in
    let state oid =
      match Oid.Table.find_opt objects oid with
      | Some s -> s
      | None ->
          let s = { value = initial; res = []; committed = 0; nodes = Hashtbl.create 4 } in
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
    let worst_down s =
      List.fold_left (fun acc (_, d) -> if d < 0 then acc + d else acc) 0 s.res
      - Hashtbl.fold (fun _ ns acc -> acc + ns.q_down) s.nodes 0
    in
    let worst_up s =
      List.fold_left (fun acc (_, d) -> if d > 0 then acc + d else acc) 0 s.res
      + Hashtbl.fold (fun _ ns acc -> acc + ns.q_up) s.nodes 0
    in
    let assert_state i oid s =
      if s.value < lower || s.value > upper then
        err "op %d: %a value %d outside [%d, %d]" i Oid.pp oid s.value lower upper;
      if s.value + worst_down s < lower then
        err "op %d: %a worst-case low %d breaches floor %d" i Oid.pp oid
          (s.value + worst_down s) lower;
      if upper - s.value - worst_up s < 0 then
        err "op %d: %a worst-case high %d breaches ceiling %d" i Oid.pp oid
          (s.value + worst_up s) upper;
      let pending = Hashtbl.fold (fun _ ns acc -> acc + ns.pending) s.nodes 0 in
      if s.value + pending <> initial + s.committed then
        err "op %d: %a conservation broken: value %d + pending %d <> initial %d + committed %d"
          i Oid.pp oid s.value pending initial s.committed
    in
    List.iteri
      (fun i op ->
        match op with
        | E_reserve { oid; family; delta } ->
            let s = state oid in
            let ok =
              if delta < 0 then s.value + worst_down s - lower + delta >= 0
              else if delta > 0 then upper - s.value - worst_up s - delta >= 0
              else true
            in
            if not ok then
              err "op %d: %a reservation %+d by %a was admitted but breaches a bound" i Oid.pp
                oid delta Txn.Txn_id.pp family;
            let cur = Option.value ~default:0 (List.assoc_opt family s.res) in
            s.res <- (family, cur + delta) :: List.remove_assoc family s.res;
            assert_state i oid s
        | E_commit { oid; family } -> (
            let s = state oid in
            match List.assoc_opt family s.res with
            | None ->
                err "op %d: %a commit by %a with no reservation" i Oid.pp oid Txn.Txn_id.pp
                  family
            | Some d ->
                s.res <- List.remove_assoc family s.res;
                s.value <- s.value + d;
                s.committed <- s.committed + d;
                assert_state i oid s)
        | E_abort { oid; family } ->
            let s = state oid in
            if not (List.mem_assoc family s.res) then
              err "op %d: %a abort by %a with no reservation" i Oid.pp oid Txn.Txn_id.pp family
            else s.res <- List.remove_assoc family s.res;
            assert_state i oid s
        | E_delegate { oid; node; up; down } ->
            let s = state oid in
            if up < 0 || down < 0 then err "op %d: %a negative delegation" i Oid.pp oid;
            let ns = node_state s node in
            ns.q_up <- ns.q_up + up;
            ns.q_down <- ns.q_down + down;
            assert_state i oid s
        | E_local_commit { oid; node; delta } ->
            let s = state oid in
            let ns = node_state s node in
            if delta > 0 then begin
              if ns.q_up < delta then
                err "op %d: %a node %d local commit %+d exceeds up-quota %d" i Oid.pp oid node
                  delta ns.q_up;
              ns.q_up <- ns.q_up - delta;
              ns.spent_up <- ns.spent_up + delta
            end
            else if delta < 0 then begin
              if ns.q_down < -delta then
                err "op %d: %a node %d local commit %+d exceeds down-quota %d" i Oid.pp oid
                  node delta ns.q_down;
              ns.q_down <- ns.q_down + delta;
              ns.spent_down <- ns.spent_down - delta
            end;
            ns.pending <- ns.pending + delta;
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
            ns.q_up <- 0;
            ns.q_down <- 0;
            assert_state i oid s)
      ops;
    Oid.Table.iter
      (fun oid s ->
        List.iter
          (fun (f, d) ->
            err "end: %a reservation %+d by %a never resolved" Oid.pp oid d Txn.Txn_id.pp f)
          s.res;
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
end

(* A random op log over two objects and three nodes, from one seed: a
   plausible escrow history (admitted reservations, commits and aborts,
   delegations within headroom, local commits within quota, exact
   reconciles, revokes after them), closed by resolving what is still
   open. Mostly valid; a reconcile may still breach a bound, as a real
   history could. *)
let random_escrow_log seed =
  let open Core.Serializability in
  let rng = Random.State.make [| seed |] in
  let pick n = Random.State.int rng n in
  let lower = 0 and upper = 30 and initial = 15 in
  let value = Array.make 2 initial in
  let res = Array.make 2 [] in
  let q_up = Array.make_matrix 2 3 0 and q_down = Array.make_matrix 2 3 0 in
  let pending = Array.make_matrix 2 3 0 in
  let spent_up = Array.make_matrix 2 3 0 and spent_down = Array.make_matrix 2 3 0 in
  let sum a = Array.fold_left ( + ) 0 a in
  let worst_down o =
    List.fold_left (fun acc (_, d) -> if d < 0 then acc + d else acc) 0 res.(o) - sum q_down.(o)
  in
  let worst_up o =
    List.fold_left (fun acc (_, d) -> if d > 0 then acc + d else acc) 0 res.(o) + sum q_up.(o)
  in
  let next_family = ref 0 in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let resolve o (f, d) ~commit =
    res.(o) <- List.remove_assoc f res.(o);
    if commit then begin
      value.(o) <- value.(o) + d;
      emit (E_commit { oid = oid o; family = fam f })
    end
    else emit (E_abort { oid = oid o; family = fam f })
  in
  let reconcile o n =
    emit
      (E_reconcile
         { oid = oid o; node = n; delta = pending.(o).(n); used_up = spent_up.(o).(n);
           used_down = spent_down.(o).(n) });
    value.(o) <- value.(o) + pending.(o).(n);
    pending.(o).(n) <- 0;
    spent_up.(o).(n) <- 0;
    spent_down.(o).(n) <- 0
  in
  for _ = 1 to 1 + pick 40 do
    let o = pick 2 and n = pick 3 in
    match pick 7 with
    | 0 ->
        let f, cur =
          match res.(o) with
          | (f, d) :: _ when pick 3 = 0 -> (f, d)
          | _ ->
              incr next_family;
              (!next_family, 0)
        in
        let delta = pick 9 - 4 in
        if
          (delta < 0 && value.(o) + worst_down o - lower + delta >= 0)
          || (delta > 0 && upper - value.(o) - worst_up o - delta >= 0)
        then begin
          res.(o) <- (f, cur + delta) :: List.remove_assoc f res.(o);
          emit (E_reserve { oid = oid o; family = fam f; delta })
        end
    | 1 | 2 -> (
        match res.(o) with
        | [] -> ()
        | rs -> resolve o (List.nth rs (pick (List.length rs))) ~commit:(pick 3 > 0))
    | 3 ->
        let up = pick 4 and down = pick 4 in
        if upper - value.(o) - worst_up o - up >= 0 && value.(o) + worst_down o - down >= lower
        then begin
          q_up.(o).(n) <- q_up.(o).(n) + up;
          q_down.(o).(n) <- q_down.(o).(n) + down;
          emit (E_delegate { oid = oid o; node = n; up; down })
        end
    | 4 ->
        let delta =
          if pick 2 = 0 then 1 + pick (max 1 q_up.(o).(n)) else -(1 + pick (max 1 q_down.(o).(n)))
        in
        if (delta > 0 && delta <= q_up.(o).(n)) || (delta < 0 && -delta <= q_down.(o).(n))
        then begin
          if delta > 0 then begin
            q_up.(o).(n) <- q_up.(o).(n) - delta;
            spent_up.(o).(n) <- spent_up.(o).(n) + delta
          end
          else begin
            q_down.(o).(n) <- q_down.(o).(n) + delta;
            spent_down.(o).(n) <- spent_down.(o).(n) - delta
          end;
          pending.(o).(n) <- pending.(o).(n) + delta;
          emit (E_local_commit { oid = oid o; node = n; delta })
        end
    | 5 -> if pending.(o).(n) <> 0 || pick 2 = 0 then reconcile o n
    | _ ->
        if pending.(o).(n) = 0 then begin
          q_up.(o).(n) <- 0;
          q_down.(o).(n) <- 0;
          emit (E_revoke { oid = oid o; node = n })
        end
  done;
  for o = 0 to 1 do
    List.iter (fun r -> resolve o r ~commit:(pick 2 = 0)) res.(o);
    for n = 0 to 2 do
      if pending.(o).(n) <> 0 then reconcile o n
    done
  done;
  (lower, upper, initial, List.rev !ops)

(* One corruption of a log: drop, duplicate or swap ops, nudge a number,
   or cut the tail off (leaving reservations and deltas open). *)
let corrupt_escrow_log seed ops =
  let open Core.Serializability in
  let rng = Random.State.make [| seed; 7 |] in
  let n = List.length ops in
  if n = 0 then ops
  else
    let at = Random.State.int rng n in
    let nudge = 1 + Random.State.int rng 3 in
    match Random.State.int rng 5 with
    | 0 -> List.filteri (fun i _ -> i <> at) ops
    | 1 -> List.concat (List.mapi (fun i op -> if i = at then [ op; op ] else [ op ]) ops)
    | 2 ->
        let a = Array.of_list ops in
        let b = min (n - 1) (at + 1) in
        let x = a.(at) in
        a.(at) <- a.(b);
        a.(b) <- x;
        Array.to_list a
    | 3 ->
        List.mapi
          (fun i op ->
            if i <> at then op
            else
              match op with
              | E_reserve r -> E_reserve { r with delta = r.delta - (2 * nudge) }
              | E_delegate d -> E_delegate { d with up = d.up + (5 * nudge) }
              | E_local_commit l -> E_local_commit { l with delta = l.delta + nudge }
              | E_reconcile r -> E_reconcile { r with delta = r.delta + nudge }
              | (E_commit _ | E_abort _ | E_revoke _) as op -> op)
          ops
    | _ -> List.filteri (fun i _ -> i < at) ops

(* The running-sum checker returns exactly what the fold model returns —
   verdict, finals and every error text in order — on valid logs and on
   corrupted ones alike. *)
let prop_check_escrow_matches_model =
  QCheck2.Test.make ~name:"check_escrow matches the fold model" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) bool)
    (fun (seed, corrupt) ->
      let lower, upper, initial, ops = random_escrow_log seed in
      let ops = if corrupt then corrupt_escrow_log seed ops else ops in
      Core.Serializability.check_escrow ~lower ~upper ~initial ~ops
      = Escrow_model.check ~lower ~upper ~initial ~ops)

(* The generator reaches both verdicts often enough for the property to
   compare accepting and rejecting replays. *)
let test_escrow_log_mix () =
  let outcomes corrupt =
    List.init 300 (fun seed ->
        let lower, upper, initial, ops = random_escrow_log (seed + 1) in
        let ops = if corrupt then corrupt_escrow_log (seed + 1) ops else ops in
        Result.is_ok (Core.Serializability.check_escrow ~lower ~upper ~initial ~ops))
  in
  let count b l = List.length (List.filter (( = ) b) l) in
  let valid = outcomes false and corrupted = outcomes true in
  Alcotest.(check bool) "most generated logs are accepted" true (count true valid > 200);
  Alcotest.(check bool) "corruption often rejects" true (count false corrupted > 60)

(* ---------- escrow off: byte-identity against the goldens ---------- *)

(* The same pre-subsystem goldens test_method_cache.ml and
   test_function_shipping.ml pin: with escrow = Off the runtime must take
   the exact pre-escrow code path, byte for byte, on all four protocols. *)
let golden_spec =
  {
    (Workload.Scenarios.spec Workload.Scenarios.High Workload.Scenarios.Medium) with
    Workload.Spec.root_count = 40;
    seed = 42;
  }

let goldens =
  [
    (Dsm.Protocol.Cotec, (484, 1_169_012, 25968.873648));
    (Dsm.Protocol.Otec, (419, 956_560, 20047.449955));
    (Dsm.Protocol.Lotec, (370, 731_252, 19580.172744));
    (Dsm.Protocol.Rc_nested, (425, 1_606_888, 20610.322997));
  ]

let escrow_counter_sum (t : Dsm.Metrics.totals) =
  t.Dsm.Metrics.escrow_reserves + t.Dsm.Metrics.escrow_local_commits
  + t.Dsm.Metrics.escrow_reconciles + t.Dsm.Metrics.escrow_recalls
  + t.Dsm.Metrics.escrow_yields + t.Dsm.Metrics.escrow_refusals
  + t.Dsm.Metrics.escrow_quota_units

let test_escrow_off_byte_identity () =
  let wl = Workload.Generator.generate golden_spec ~page_size:4096 in
  let config = { Core.Config.default with Core.Config.escrow = Dsm.Escrow.off } in
  List.iter
    (fun (protocol, (messages, bytes, completion)) ->
      let name = Format.asprintf "%a" Dsm.Protocol.pp protocol in
      let m = Experiments.Runner.metrics (Experiments.Runner.execute ~config ~protocol wl) in
      Alcotest.(check int) (name ^ " messages") messages (Dsm.Metrics.total_messages m);
      Alcotest.(check int) (name ^ " bytes") bytes (Dsm.Metrics.total_bytes m);
      Alcotest.(check (float 1e-6)) (name ^ " completion") completion
        (Dsm.Metrics.completion_time_us m);
      Alcotest.(check int) (name ^ " all escrow counters zero") 0
        (escrow_counter_sum (Dsm.Metrics.totals m)))
    goldens

(* ---------- escrow registration ---------- *)

(* The directory escrows an object exactly when the escrow layer is
   installed and the object's class declares a commuting method, so a
   commuting invocation always lands on an escrowed object. Checked on the
   bank preset, where every class commutes, and on a variant with fewer
   commuting methods, where some classes declare none. *)
let test_escrow_registration () =
  let check spec =
    let catalog = (Workload.Generator.generate spec ~page_size:4096).Workload.Generator.catalog in
    let oids = Objmodel.Catalog.oids catalog in
    let escrowed escrow =
      let config =
        { Core.Config.default with Core.Config.node_count = spec.Workload.Spec.node_count; escrow }
      in
      let gdo = Core.Runtime.directory (Core.Runtime.create ~config ~catalog) in
      List.filter (Gdo.Directory.has_escrow gdo) oids
    in
    let commuting =
      List.filter
        (fun oid ->
          List.exists
            (fun (m : Objmodel.Obj_class.compiled_method) ->
              Objmodel.Method_ir.commutes m.Objmodel.Obj_class.ir)
            (Objmodel.Obj_class.methods (Objmodel.Catalog.find catalog oid).Objmodel.Catalog.cls))
        oids
    in
    let ints = List.map Objmodel.Oid.to_int in
    Alcotest.(check (list int)) "policy off escrows nothing" [] (ints (escrowed Dsm.Escrow.off));
    Alcotest.(check (list int))
      "policy on escrows exactly the commuting classes' objects" (ints commuting)
      (ints (escrowed (Dsm.Escrow.On Dsm.Escrow.default_params)));
    (List.length commuting, List.length oids)
  in
  let bank = Workload.Scenarios.bank in
  let commuting, objects = check bank in
  Alcotest.(check int) "every bank class commutes" objects commuting;
  let commuting, objects = check { bank with Workload.Spec.commuting_fraction = 0.3 } in
  Alcotest.(check bool) "some classes commute, some do not" true
    (commuting > 0 && commuting < objects)

(* ---------- the headline gate ---------- *)

(* The acceptance numbers: on the hottest-skew bank workload, LOTEC with
   escrow must complete at least 25% sooner than its exclusive-locking
   baseline — with real coordination avoidance behind it (local zero-
   message commits and lazy reconciles, not just admissions). The shared
   oracle asserts serializability, the escrow-ledger replay, root
   accounting, zero-counter hygiene and exact wire reconciliation for
   both runs. *)
let test_lotec_headline_gate () =
  let run escrow =
    let config = { Core.Config.default with Core.Config.escrow } in
    let wl =
      Workload.Generator.generate
        (Experiments.Escrow.default_spec ~skew:1.2)
        ~page_size:config.Core.Config.page_size
    in
    Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl
  in
  let baseline = run Dsm.Escrow.off in
  let on = run (Dsm.Escrow.On Experiments.Escrow.default_params) in
  let totals r = Dsm.Metrics.totals (Experiments.Runner.metrics r) in
  let tb = totals baseline and t = totals on in
  Alcotest.(check int) "baseline runs no escrow" 0 tb.Dsm.Metrics.escrow_reserves;
  Alcotest.(check bool) "escrow run reserves" true (t.Dsm.Metrics.escrow_reserves > 0);
  Alcotest.(check bool) "zero-message local commits happen" true
    (t.Dsm.Metrics.escrow_local_commits > 0);
  Alcotest.(check bool) "lazy reconciles happen" true (t.Dsm.Metrics.escrow_reconciles > 0);
  Alcotest.(check bool) "recalls drain quotas for exclusive access" true
    (t.Dsm.Metrics.escrow_recalls > 0);
  Alcotest.(check bool) "replay reports escrowed finals" true
    (match Core.Runtime.check_escrow on.Experiments.Runner.runtime with
    | Ok finals -> finals <> []
    | Error _ -> false);
  let completion r = Dsm.Metrics.completion_time_us (Experiments.Runner.metrics r) in
  let ratio = completion on /. completion baseline in
  if not (ratio <= 0.75) then
    Alcotest.failf "completion ratio %.3f misses the 0.75 ceiling (%.0f vs %.0f us)" ratio
      (completion on) (completion baseline)

let tests =
  [
    ( "escrow",
      [
        Alcotest.test_case "admission test basics" `Quick test_admits_basics;
        Alcotest.test_case "unbounded side never overflows" `Quick
          test_admits_unbounded_side_never_overflows;
        Alcotest.test_case "policy parsing" `Quick test_policy_of_string;
        Alcotest.test_case "reserve, commit, abort" `Quick test_reserve_commit_abort;
        Alcotest.test_case "worst-case bounds refusal" `Quick test_reserve_worst_case_bounds;
        Alcotest.test_case "refused while locked" `Quick test_reserve_refused_while_locked;
        Alcotest.test_case "delegation clamps to headroom" `Quick
          test_delegate_clamps_to_headroom;
        Alcotest.test_case "recall epoch fencing" `Quick test_recall_epoch_fencing;
        Alcotest.test_case "yield evicts a deadlocked waiter" `Quick
          test_yield_evicts_deadlocked_waiter;
        Alcotest.test_case "replay accepts a clean log" `Quick test_check_escrow_accepts_clean_log;
        Alcotest.test_case "replay rejects a bounds breach" `Quick
          test_check_escrow_rejects_bounds_breach;
        Alcotest.test_case "replay rejects quota overspend" `Quick
          test_check_escrow_rejects_quota_overspend;
        Alcotest.test_case "replay rejects unresolved end state" `Quick
          test_check_escrow_rejects_unresolved_end_state;
        QCheck_alcotest.to_alcotest prop_check_escrow_matches_model;
        Alcotest.test_case "replay logs reach both verdicts" `Quick test_escrow_log_mix;
        Alcotest.test_case "escrow off is byte-identical" `Quick test_escrow_off_byte_identity;
        Alcotest.test_case "escrow registration" `Quick test_escrow_registration;
        Alcotest.test_case "lotec headline gate" `Quick test_lotec_headline_gate;
      ] );
  ]
