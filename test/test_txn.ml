(* Tests for transaction trees, lock modes, the nested-O2PL local lock table
   and undo logs. *)

open Objmodel
open Txn

let oid = Oid.of_int

(* ---------- Txn_tree ---------- *)

let test_tree_roots_and_children () =
  let t = Txn_tree.create () in
  let r = Txn_tree.create_root t ~node:3 in
  Alcotest.(check bool) "root" true (Txn_tree.is_root t r);
  Alcotest.(check int) "node" 3 (Txn_tree.node_of t r);
  Alcotest.(check int) "depth" 0 (Txn_tree.depth t r);
  let c1 = Txn_tree.create_child t ~parent:r in
  let c2 = Txn_tree.create_child t ~parent:r in
  let g = Txn_tree.create_child t ~parent:c1 in
  Alcotest.(check int) "child depth" 1 (Txn_tree.depth t c1);
  Alcotest.(check int) "grandchild depth" 2 (Txn_tree.depth t g);
  Alcotest.(check bool) "same family" true (Txn_tree.same_family t c2 g);
  Alcotest.(check int) "family size" 4 (Txn_tree.family_size t r);
  Alcotest.(check (list int)) "children order"
    [ Txn_id.to_int c1; Txn_id.to_int c2 ]
    (List.map Txn_id.to_int (Txn_tree.children t r));
  Alcotest.(check int) "root_of" (Txn_id.to_int r) (Txn_id.to_int (Txn_tree.root_of t g));
  Alcotest.(check int) "node inherited" 3 (Txn_tree.node_of t g)

let test_tree_ancestry () =
  let t = Txn_tree.create () in
  let r = Txn_tree.create_root t ~node:0 in
  let c = Txn_tree.create_child t ~parent:r in
  let g = Txn_tree.create_child t ~parent:c in
  let other = Txn_tree.create_root t ~node:0 in
  Alcotest.(check bool) "r anc g" true (Txn_tree.is_strict_ancestor t ~ancestor:r g);
  Alcotest.(check bool) "c anc g" true (Txn_tree.is_strict_ancestor t ~ancestor:c g);
  Alcotest.(check bool) "g not anc c" false (Txn_tree.is_strict_ancestor t ~ancestor:g c);
  Alcotest.(check bool) "not self" false (Txn_tree.is_strict_ancestor t ~ancestor:g g);
  Alcotest.(check bool) "self or" true (Txn_tree.is_ancestor_or_self t ~ancestor:g g);
  Alcotest.(check bool) "cross family" false (Txn_tree.is_strict_ancestor t ~ancestor:other g)

let test_tree_status_gate () =
  let t = Txn_tree.create () in
  let r = Txn_tree.create_root t ~node:0 in
  Txn_tree.set_status t r Txn_tree.Committed;
  Alcotest.(check bool) "status" true (Txn_tree.status t r = Txn_tree.Committed);
  Alcotest.check_raises "no child of finished parent"
    (Invalid_argument
       (Format.asprintf "Txn_tree.create_child: parent %a is not active" Txn_id.pp r))
    (fun () -> ignore (Txn_tree.create_child t ~parent:r))

(* ---------- Lock ---------- *)

let test_lock_conflicts () =
  Alcotest.(check bool) "RR" false (Lock.conflicts Lock.Read Lock.Read);
  Alcotest.(check bool) "RW" true (Lock.conflicts Lock.Read Lock.Write);
  Alcotest.(check bool) "WR" true (Lock.conflicts Lock.Write Lock.Read);
  Alcotest.(check bool) "WW" true (Lock.conflicts Lock.Write Lock.Write);
  Alcotest.(check bool) "W subsumes R" true (Lock.stronger_or_equal Lock.Write Lock.Read);
  Alcotest.(check bool) "R not W" false (Lock.stronger_or_equal Lock.Read Lock.Write);
  Alcotest.(check bool) "max" true (Lock.equal Lock.Write (Lock.max Lock.Read Lock.Write))

(* ---------- Local_locks ---------- *)

let no_wake () = Alcotest.fail "unexpected wake"

let setup () =
  let tree = Txn_tree.create () in
  let ll = Local_locks.create tree in
  (tree, ll)

let test_ll_not_cached () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  Alcotest.(check bool) "not cached" true
    (Local_locks.acquire ll (oid 1) ~txn:r ~mode:Lock.Write ~wake:no_wake
    = Local_locks.Not_cached)

let test_ll_install_and_retain_flow () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  let c1 = Txn_tree.create_child tree ~parent:r in
  (* c1 acquires globally; the grant is installed with c1 as holder. *)
  Local_locks.install_grant ll (oid 1) ~txn:c1 ~mode:Lock.Write;
  Alcotest.(check bool) "family holds W" true
    (Local_locks.family_mode ll (oid 1) ~family:r = Some Lock.Write);
  Alcotest.(check bool) "c1 holds" true
    (Local_locks.held_mode ll (oid 1) ~txn:c1 = Some Lock.Write);
  (* c1 pre-commits: r retains. *)
  Local_locks.precommit ll c1;
  Alcotest.(check bool) "c1 no longer holds" true
    (Local_locks.held_mode ll (oid 1) ~txn:c1 = None);
  Alcotest.(check (list (pair int bool))) "r retains W"
    [ (Txn_id.to_int r, true) ]
    (List.map
       (fun (t, m) -> (Txn_id.to_int t, Lock.equal m Lock.Write))
       (Local_locks.retainers ll (oid 1) ~family:r));
  (* A sibling may acquire a lock retained by its ancestor (rule 1). *)
  let c2 = Txn_tree.create_child tree ~parent:r in
  Alcotest.(check bool) "sibling granted" true
    (Local_locks.acquire ll (oid 1) ~txn:c2 ~mode:Lock.Write ~wake:no_wake
    = Local_locks.Granted)

let test_ll_needs_upgrade () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  Local_locks.install_grant ll (oid 1) ~txn:r ~mode:Lock.Read;
  let c = Txn_tree.create_child tree ~parent:r in
  Local_locks.precommit ll c;
  (* family global mode R, request W. *)
  Alcotest.(check bool) "needs upgrade" true
    (Local_locks.acquire ll (oid 1) ~txn:r ~mode:Lock.Write ~wake:no_wake
    = Local_locks.Needs_upgrade);
  Local_locks.upgrade_granted ll (oid 1) ~txn:r;
  Alcotest.(check bool) "now W" true
    (Local_locks.family_mode ll (oid 1) ~family:r = Some Lock.Write)

let test_ll_ancestor_hold_is_permissive () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  Local_locks.install_grant ll (oid 1) ~txn:r ~mode:Lock.Write;
  let c = Txn_tree.create_child tree ~parent:r in
  (* r holds; descendant c may acquire (the pre-acquisition rule). *)
  Alcotest.(check bool) "descendant granted under ancestor hold" true
    (Local_locks.acquire ll (oid 1) ~txn:c ~mode:Lock.Write ~wake:no_wake
    = Local_locks.Granted)

let test_ll_sibling_conflict_queues_and_wakes () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  let c1 = Txn_tree.create_child tree ~parent:r in
  let c2 = Txn_tree.create_child tree ~parent:r in
  Local_locks.install_grant ll (oid 1) ~txn:c1 ~mode:Lock.Write;
  let woken = ref false in
  Alcotest.(check bool) "sibling queued" true
    (Local_locks.acquire ll (oid 1) ~txn:c2 ~mode:Lock.Write ~wake:(fun () -> woken := true)
    = Local_locks.Queued);
  Alcotest.(check bool) "not yet woken" false !woken;
  (* c1 pre-commits: retention moves to r (ancestor of c2) -> c2 grantable. *)
  Local_locks.precommit ll c1;
  Alcotest.(check bool) "woken" true !woken;
  Alcotest.(check bool) "c2 holds" true
    (Local_locks.held_mode ll (oid 1) ~txn:c2 = Some Lock.Write)

let test_ll_non_ancestor_retainer_blocks () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  let c1 = Txn_tree.create_child tree ~parent:r in
  let g1 = Txn_tree.create_child tree ~parent:c1 in
  Local_locks.install_grant ll (oid 1) ~txn:g1 ~mode:Lock.Write;
  (* g1 pre-commits into c1: c1 retains. A sub of a *different* branch must
     wait, because the retainer c1 is not its ancestor. *)
  Local_locks.precommit ll g1;
  let c2 = Txn_tree.create_child tree ~parent:r in
  let woken = ref false in
  Alcotest.(check bool) "queued behind foreign retainer" true
    (Local_locks.acquire ll (oid 1) ~txn:c2 ~mode:Lock.Write ~wake:(fun () -> woken := true)
    = Local_locks.Queued);
  (* When c1 pre-commits, retention moves to r -> now an ancestor of c2. *)
  Local_locks.precommit ll c1;
  Alcotest.(check bool) "woken after retention moved up" true !woken

let test_ll_abort_releases_to_ancestor () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  let c1 = Txn_tree.create_child tree ~parent:r in
  Local_locks.install_grant ll (oid 1) ~txn:c1 ~mode:Lock.Write;
  Local_locks.precommit ll c1;
  (* r retains. New child c2 acquires, then aborts: r must keep retaining and
     no global release may happen. *)
  let c2 = Txn_tree.create_child tree ~parent:r in
  Alcotest.(check bool) "granted" true
    (Local_locks.acquire ll (oid 1) ~txn:c2 ~mode:Lock.Write ~wake:no_wake
    = Local_locks.Granted);
  let released = ref [] in
  Local_locks.abort ll c2 ~to_release:(fun o -> released := o :: !released);
  Alcotest.(check (list int)) "no global release" [] (List.map Oid.to_int !released);
  Alcotest.(check bool) "r still retains" true
    (Local_locks.retainers ll (oid 1) ~family:r <> [])

let test_ll_abort_releases_globally_when_last () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  let c = Txn_tree.create_child tree ~parent:r in
  Local_locks.install_grant ll (oid 1) ~txn:c ~mode:Lock.Write;
  let released = ref [] in
  Local_locks.abort ll c ~to_release:(fun o -> released := o :: !released);
  Alcotest.(check (list int)) "released globally" [ 1 ] (List.map Oid.to_int !released);
  Alcotest.(check bool) "entry gone" true (Local_locks.family_mode ll (oid 1) ~family:r = None)

let test_ll_root_release () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  Local_locks.install_grant ll (oid 1) ~txn:r ~mode:Lock.Write;
  Local_locks.install_grant ll (oid 2) ~txn:r ~mode:Lock.Read;
  Alcotest.(check (list int)) "objects of family" [ 1; 2 ]
    (List.map Oid.to_int (Local_locks.objects_of_family ll ~family:r));
  let released = Local_locks.root_release ll ~root:r in
  Alcotest.(check (list int)) "released all" [ 1; 2 ] (List.map Oid.to_int released);
  Alcotest.(check bool) "entries dropped" true
    (Local_locks.family_mode ll (oid 1) ~family:r = None)

let test_ll_two_colocated_reader_families () =
  let tree, ll = setup () in
  let r1 = Txn_tree.create_root tree ~node:0 in
  let r2 = Txn_tree.create_root tree ~node:0 in
  Local_locks.install_grant ll (oid 1) ~txn:r1 ~mode:Lock.Read;
  Local_locks.install_grant ll (oid 1) ~txn:r2 ~mode:Lock.Read;
  Alcotest.(check bool) "r1 holds" true
    (Local_locks.family_mode ll (oid 1) ~family:r1 = Some Lock.Read);
  Alcotest.(check bool) "r2 holds" true
    (Local_locks.family_mode ll (oid 1) ~family:r2 = Some Lock.Read);
  (* Releasing one family leaves the other untouched. *)
  ignore (Local_locks.root_release ll ~root:r1);
  Alcotest.(check bool) "r2 unaffected" true
    (Local_locks.family_mode ll (oid 1) ~family:r2 = Some Lock.Read)

let test_ll_double_install_rejected () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  Local_locks.install_grant ll (oid 1) ~txn:r ~mode:Lock.Read;
  Alcotest.check_raises "double install"
    (Invalid_argument "Local_locks.install_grant: family already caches this object") (fun () ->
      Local_locks.install_grant ll (oid 1) ~txn:r ~mode:Lock.Read)

let test_ll_precommit_root_rejected () =
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  Alcotest.check_raises "root precommit"
    (Invalid_argument "Local_locks.precommit: root transactions use root_release") (fun () ->
      Local_locks.precommit ll r)

(* Minor-heap words [f] allocates. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_ll_cost_independent_of_site_size () =
  (* A site caching 20,000 objects, each for its own family: one more
     family's grant, child precommit, object listing and root release must
     cost what that family touches, not what the site holds. *)
  let tree, ll = setup () in
  let fillers =
    Array.init 20_000 (fun i ->
        let f = Txn_tree.create_root tree ~node:0 in
        Local_locks.install_grant ll (oid i) ~txn:f ~mode:Lock.Read;
        f)
  in
  let r = Txn_tree.create_root tree ~node:0 in
  let c = Txn_tree.create_child tree ~parent:r in
  let under_bound name f =
    let w = minor_words f in
    if w >= 1_000. then Alcotest.failf "%s allocated %.0f minor words" name w
  in
  under_bound "install_grant" (fun () ->
      Local_locks.install_grant ll (oid 20_000) ~txn:c ~mode:Lock.Write);
  under_bound "precommit" (fun () -> Local_locks.precommit ll c);
  let objects = ref [] in
  under_bound "objects_of_family" (fun () ->
      objects := Local_locks.objects_of_family ll ~family:r);
  let released = ref [] in
  under_bound "root_release" (fun () -> released := Local_locks.root_release ll ~root:r);
  Alcotest.(check (list int)) "objects of family" [ 20_000 ] (List.map Oid.to_int !objects);
  Alcotest.(check (list int)) "released" [ 20_000 ] (List.map Oid.to_int !released);
  Alcotest.(check (list int)) "other families untouched" [ 19_999 ]
    (List.map Oid.to_int (Local_locks.objects_of_family ll ~family:fillers.(19_999)))

let test_ll_sibling_waiters_fifo () =
  (* 2,000 siblings queue on one object; each precommit hands the lock to
     the oldest waiter. Enqueueing stays O(1): appending to a list would
     copy it, ~3,000 words per enqueue on average here. *)
  let tree, ll = setup () in
  let r = Txn_tree.create_root tree ~node:0 in
  let first = Txn_tree.create_child tree ~parent:r in
  Local_locks.install_grant ll (oid 1) ~txn:first ~mode:Lock.Write;
  let n = 2_000 in
  let siblings = Array.init n (fun _ -> Txn_tree.create_child tree ~parent:r) in
  let woken = ref [] in
  let wakes = Array.map (fun s () -> woken := s :: !woken) siblings in
  let words =
    minor_words (fun () ->
        Array.iteri
          (fun i s ->
            if Local_locks.acquire ll (oid 1) ~txn:s ~mode:Lock.Write ~wake:wakes.(i)
               <> Local_locks.Queued
            then Alcotest.fail "sibling not queued")
          siblings)
  in
  if words /. float_of_int n >= 100. then
    Alcotest.failf "%.0f minor words per enqueue" (words /. float_of_int n);
  Local_locks.precommit ll first;
  Array.iteri
    (fun i s ->
      if List.length !woken <> i + 1 then
        Alcotest.failf "%d woken before precommit %d" (List.length !woken) i;
      Local_locks.precommit ll s)
    siblings;
  Alcotest.(check (list int)) "woken in FIFO order"
    (Array.to_list (Array.map Txn_id.to_int siblings))
    (List.rev_map Txn_id.to_int !woken)

(* ---------- Undo_log ---------- *)

let test_undo_record_order () =
  let l = Undo_log.create () in
  Undo_log.record l ~oid:(oid 1) ~page:0 ~prev_version:5;
  Undo_log.record l ~oid:(oid 1) ~page:0 ~prev_version:7;
  let entries = Undo_log.entries_newest_first l in
  Alcotest.(check (list int)) "newest first" [ 7; 5 ]
    (List.map (fun (r : Undo_log.record) -> r.Undo_log.prev_version) entries);
  Alcotest.(check int) "length" 2 (Undo_log.length l)

let test_undo_merge_keeps_child_newer () =
  let parent = Undo_log.create () and child = Undo_log.create () in
  Undo_log.record parent ~oid:(oid 1) ~page:0 ~prev_version:1;
  Undo_log.record child ~oid:(oid 1) ~page:0 ~prev_version:2;
  Undo_log.merge_into_parent ~child ~parent;
  Alcotest.(check bool) "child emptied" true (Undo_log.is_empty child);
  let entries = Undo_log.entries_newest_first parent in
  Alcotest.(check (list int)) "child record newest" [ 2; 1 ]
    (List.map (fun (r : Undo_log.record) -> r.Undo_log.prev_version) entries)

let test_undo_dirty_pages_dedup () =
  let l = Undo_log.create () in
  Undo_log.record l ~oid:(oid 1) ~page:0 ~prev_version:1;
  Undo_log.record l ~oid:(oid 1) ~page:0 ~prev_version:2;
  Undo_log.record l ~oid:(oid 2) ~page:3 ~prev_version:0;
  Alcotest.(check (list (pair int int))) "deduped" [ (1, 0); (2, 3) ]
    (List.map (fun (o, p) -> (Oid.to_int o, p)) (Undo_log.dirty_pages l))

let test_undo_replay_restores_store () =
  (* Applying undo records newest-first over a page store restores the exact
     pre-transaction state, even with repeated writes to one page. *)
  let store = Dsm.Page_store.create ~node:0 in
  Dsm.Page_store.receive store (oid 1) ~page:0 ~version:3;
  let l = Undo_log.create () in
  let write v =
    let prev = Dsm.Page_store.write store (oid 1) ~page:0 ~new_version:v in
    Undo_log.record l ~oid:(oid 1) ~page:0 ~prev_version:prev
  in
  write 10;
  write 11;
  write 12;
  List.iter
    (fun (r : Undo_log.record) ->
      Dsm.Page_store.restore store r.Undo_log.oid ~page:r.Undo_log.page
        ~version:r.Undo_log.prev_version)
    (Undo_log.entries_newest_first l);
  Alcotest.(check int) "restored" 3 (Dsm.Page_store.version store (oid 1) ~page:0)

let tests =
  [
    ( "txn",
      [
        Alcotest.test_case "tree roots and children" `Quick test_tree_roots_and_children;
        Alcotest.test_case "tree ancestry" `Quick test_tree_ancestry;
        Alcotest.test_case "tree status gate" `Quick test_tree_status_gate;
        Alcotest.test_case "lock conflicts" `Quick test_lock_conflicts;
        Alcotest.test_case "ll not cached" `Quick test_ll_not_cached;
        Alcotest.test_case "ll install and retain" `Quick test_ll_install_and_retain_flow;
        Alcotest.test_case "ll needs upgrade" `Quick test_ll_needs_upgrade;
        Alcotest.test_case "ll ancestor hold permissive" `Quick test_ll_ancestor_hold_is_permissive;
        Alcotest.test_case "ll sibling queue and wake" `Quick test_ll_sibling_conflict_queues_and_wakes;
        Alcotest.test_case "ll non-ancestor retainer blocks" `Quick test_ll_non_ancestor_retainer_blocks;
        Alcotest.test_case "ll abort to ancestor" `Quick test_ll_abort_releases_to_ancestor;
        Alcotest.test_case "ll abort releases globally" `Quick test_ll_abort_releases_globally_when_last;
        Alcotest.test_case "ll root release" `Quick test_ll_root_release;
        Alcotest.test_case "ll colocated readers" `Quick test_ll_two_colocated_reader_families;
        Alcotest.test_case "ll double install" `Quick test_ll_double_install_rejected;
        Alcotest.test_case "ll precommit root" `Quick test_ll_precommit_root_rejected;
        Alcotest.test_case "ll cost independent of site size" `Quick
          test_ll_cost_independent_of_site_size;
        Alcotest.test_case "ll sibling waiters fifo" `Quick test_ll_sibling_waiters_fifo;
        Alcotest.test_case "undo record order" `Quick test_undo_record_order;
        Alcotest.test_case "undo merge" `Quick test_undo_merge_keeps_child_newer;
        Alcotest.test_case "undo dirty pages" `Quick test_undo_dirty_pages_dedup;
        Alcotest.test_case "undo replay restores" `Quick test_undo_replay_restores_store;
      ] );
  ]
