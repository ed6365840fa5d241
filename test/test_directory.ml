(* Tests for the GDO (Algorithm 4.2 / 4.4 logic, waits-for detection,
   page-map maintenance, copysets). *)

open Objmodel
open Txn

let oid = Oid.of_int
let fam i = Txn_id.of_int i

let make ?(pages = 4) ?(objects = 3) () =
  let d = Gdo.Directory.create () in
  for i = 0 to objects - 1 do
    Gdo.Directory.register_object d (oid i) ~pages ~initial_node:0
  done;
  d

let acquire d o ~family ~node ~mode = Gdo.Directory.acquire d (oid o) ~family ~node ~mode ()

let is_granted = function Gdo.Directory.Granted _ -> true | _ -> false
let is_queued = function Gdo.Directory.Queued -> true | _ -> false
let is_deadlock = function Gdo.Directory.Deadlock _ -> true | _ -> false
let is_busy = function Gdo.Directory.Busy -> true | _ -> false

let test_register_and_initial_map () =
  let d = make () in
  Alcotest.(check int) "objects" 3 (Gdo.Directory.object_count d);
  let nodes, versions = Gdo.Directory.page_map d (oid 0) in
  Alcotest.(check (array int)) "initial nodes" [| 0; 0; 0; 0 |] nodes;
  Alcotest.(check (array int)) "initial versions" [| 0; 0; 0; 0 |] versions;
  Alcotest.(check (list int)) "copyset" [ 0 ] (Gdo.Directory.copyset d (oid 0));
  Alcotest.check_raises "duplicate" (Invalid_argument "Directory.register_object: duplicate O0")
    (fun () -> Gdo.Directory.register_object d (oid 0) ~pages:1 ~initial_node:0)

let test_free_grant () =
  let d = make () in
  match acquire d 0 ~family:(fam 1) ~node:2 ~mode:Lock.Write with
  | Gdo.Directory.Granted g ->
      Alcotest.(check bool) "mode" true (Lock.equal g.Gdo.Directory.g_mode Lock.Write);
      Alcotest.(check bool) "state" true (Gdo.Directory.lock_state d (oid 0) = Gdo.Directory.Held_write);
      Alcotest.(check int) "one holder" 1 (List.length (Gdo.Directory.holders d (oid 0)))
  | _ -> Alcotest.fail "expected grant"

let test_concurrent_readers () =
  let d = make () in
  Alcotest.(check bool) "r1" true (is_granted (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Read));
  Alcotest.(check bool) "r2" true (is_granted (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Read));
  Alcotest.(check int) "read count" 2 (Gdo.Directory.read_count d (oid 0));
  (* A writer queues behind readers. *)
  Alcotest.(check bool) "writer queued" true
    (is_queued (acquire d 0 ~family:(fam 3) ~node:2 ~mode:Lock.Write));
  (* Later readers must not overtake the queued writer. *)
  Alcotest.(check bool) "reader after writer queues" true
    (is_queued (acquire d 0 ~family:(fam 4) ~node:3 ~mode:Lock.Read))

let test_writer_excludes () =
  let d = make () in
  Alcotest.(check bool) "w" true (is_granted (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write));
  Alcotest.(check bool) "reader queued" true
    (is_queued (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Read));
  Alcotest.(check int) "waiting" 1 (Gdo.Directory.waiting_count d (oid 0))

let test_reentrant () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write);
  Alcotest.(check bool) "re-entrant W" true
    (is_granted (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write));
  Alcotest.(check bool) "re-entrant R under W" true
    (is_granted (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Read));
  Alcotest.(check int) "still one holder" 1 (List.length (Gdo.Directory.holders d (oid 0)))

let test_release_grants_next_writer () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write);
  ignore (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Write);
  let deliveries = Gdo.Directory.release d (oid 0) ~family:(fam 1) ~dirty:[] in
  Alcotest.(check int) "one delivery" 1 (List.length deliveries);
  let dv = List.hd deliveries in
  Alcotest.(check int) "to family 2" 2 (Txn_id.to_int dv.Gdo.Directory.d_family);
  Alcotest.(check int) "at node 1" 1 dv.Gdo.Directory.d_node;
  Alcotest.(check bool) "held write" true
    (Gdo.Directory.lock_state d (oid 0) = Gdo.Directory.Held_write)

let test_release_batches_readers () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write);
  ignore (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Read);
  ignore (acquire d 0 ~family:(fam 3) ~node:2 ~mode:Lock.Read);
  ignore (acquire d 0 ~family:(fam 4) ~node:3 ~mode:Lock.Write);
  let deliveries = Gdo.Directory.release d (oid 0) ~family:(fam 1) ~dirty:[] in
  (* Both readers granted together; the writer stays queued. *)
  Alcotest.(check int) "two reader grants" 2 (List.length deliveries);
  Alcotest.(check int) "read count" 2 (Gdo.Directory.read_count d (oid 0));
  Alcotest.(check int) "writer still waiting" 1 (Gdo.Directory.waiting_count d (oid 0))

let test_fifo_order () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write);
  ignore (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Write);
  ignore (acquire d 0 ~family:(fam 3) ~node:2 ~mode:Lock.Write);
  let d1 = Gdo.Directory.release d (oid 0) ~family:(fam 1) ~dirty:[] in
  Alcotest.(check int) "fifo: family 2 first" 2
    (Txn_id.to_int (List.hd d1).Gdo.Directory.d_family);
  let d2 = Gdo.Directory.release d (oid 0) ~family:(fam 2) ~dirty:[] in
  Alcotest.(check int) "then family 3" 3 (Txn_id.to_int (List.hd d2).Gdo.Directory.d_family)

let test_upgrade_sole_reader () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Read);
  Alcotest.(check bool) "sole reader upgrades" true
    (is_granted (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write));
  Alcotest.(check bool) "now W" true
    (Gdo.Directory.lock_state d (oid 0) = Gdo.Directory.Held_write)

let test_upgrade_waits_for_other_readers () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Read);
  ignore (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Read);
  Alcotest.(check bool) "upgrade queued" true
    (is_queued (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write));
  let deliveries = Gdo.Directory.release d (oid 0) ~family:(fam 2) ~dirty:[] in
  Alcotest.(check int) "upgrade granted" 1 (List.length deliveries);
  Alcotest.(check bool) "W mode" true
    (Lock.equal (List.hd deliveries).Gdo.Directory.d_grant.Gdo.Directory.g_mode Lock.Write)

let test_upgrade_deadlock_detected () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Read);
  ignore (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Read);
  Alcotest.(check bool) "first upgrade queues" true
    (is_queued (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write));
  (* The second upgrade closes the classic R->W cycle. *)
  Alcotest.(check bool) "second upgrade deadlocks" true
    (is_deadlock (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Write))

let test_two_object_deadlock () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write);
  ignore (acquire d 1 ~family:(fam 2) ~node:1 ~mode:Lock.Write);
  Alcotest.(check bool) "f1 waits on o1" true
    (is_queued (acquire d 1 ~family:(fam 1) ~node:0 ~mode:Lock.Write));
  (match acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Write with
  | Gdo.Directory.Deadlock cycle ->
      Alcotest.(check bool) "cycle contains both" true
        (List.exists (fun f -> Txn_id.to_int f = 1) cycle
        && List.exists (fun f -> Txn_id.to_int f = 2) cycle)
  | _ -> Alcotest.fail "expected deadlock");
  (* The refused family was not enqueued. *)
  Alcotest.(check int) "no waiter added" 0 (Gdo.Directory.waiting_count d (oid 0))

let test_three_party_deadlock () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write);
  ignore (acquire d 1 ~family:(fam 2) ~node:1 ~mode:Lock.Write);
  ignore (acquire d 2 ~family:(fam 3) ~node:2 ~mode:Lock.Write);
  Alcotest.(check bool) "1 waits 2's object" true
    (is_queued (acquire d 1 ~family:(fam 1) ~node:0 ~mode:Lock.Write));
  Alcotest.(check bool) "2 waits 3's object" true
    (is_queued (acquire d 2 ~family:(fam 2) ~node:1 ~mode:Lock.Write));
  Alcotest.(check bool) "3 closing the triangle deadlocks" true
    (is_deadlock (acquire d 0 ~family:(fam 3) ~node:2 ~mode:Lock.Write))

let test_nonblocking_busy () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write);
  Alcotest.(check bool) "busy, not queued" true
    (is_busy (Gdo.Directory.acquire d (oid 0) ~family:(fam 2) ~node:1 ~mode:Lock.Write ~block:false ()));
  Alcotest.(check int) "left no trace" 0 (Gdo.Directory.waiting_count d (oid 0));
  Alcotest.(check bool) "free lock still granted non-blocking" true
    (is_granted (Gdo.Directory.acquire d (oid 1) ~family:(fam 2) ~node:1 ~mode:Lock.Write ~block:false ()))

let test_dirty_updates_page_map () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:2 ~mode:Lock.Write);
  ignore (Gdo.Directory.release d (oid 0) ~family:(fam 1) ~dirty:[ (1, 5, 2); (3, 6, 2) ]);
  let nodes, versions = Gdo.Directory.page_map d (oid 0) in
  Alcotest.(check (array int)) "nodes updated" [| 0; 2; 0; 2 |] nodes;
  Alcotest.(check (array int)) "versions updated" [| 0; 5; 0; 6 |] versions;
  (* Stale dirty info (lower version) must not regress the map. *)
  ignore (acquire d 0 ~family:(fam 2) ~node:3 ~mode:Lock.Write);
  ignore (Gdo.Directory.release d (oid 0) ~family:(fam 2) ~dirty:[ (1, 4, 3) ]);
  let nodes2, versions2 = Gdo.Directory.page_map d (oid 0) in
  Alcotest.(check int) "node kept" 2 nodes2.(1);
  Alcotest.(check int) "version kept" 5 versions2.(1)

let test_release_not_holder_noop () =
  let d = make () in
  Alcotest.(check int) "noop" 0
    (List.length (Gdo.Directory.release d (oid 0) ~family:(fam 9) ~dirty:[]))

let test_copyset () =
  let d = make () in
  Gdo.Directory.note_cached d (oid 0) ~node:3;
  Gdo.Directory.note_cached d (oid 0) ~node:1;
  Gdo.Directory.note_cached d (oid 0) ~node:3;
  Alcotest.(check (list int)) "copyset sorted dedup" [ 0; 1; 3 ] (Gdo.Directory.copyset d (oid 0))

let test_waits_for_edges () =
  let d = make () in
  ignore (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write);
  ignore (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Write);
  let edges = Gdo.Directory.waits_for_edges d in
  Alcotest.(check (list (pair int int))) "edge 2->1" [ (2, 1) ]
    (List.map (fun (a, b) -> (Txn_id.to_int a, Txn_id.to_int b)) edges);
  ignore (Gdo.Directory.release d (oid 0) ~family:(fam 1) ~dirty:[]);
  Alcotest.(check int) "edges cleared" 0 (List.length (Gdo.Directory.waits_for_edges d))

let test_grant_carries_page_map_copy () =
  let d = make () in
  match acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write with
  | Gdo.Directory.Granted g ->
      (* Mutating the grant's arrays must not corrupt the directory. *)
      g.Gdo.Directory.g_page_versions.(0) <- 999;
      let _, versions = Gdo.Directory.page_map d (oid 0) in
      Alcotest.(check int) "directory unaffected" 0 versions.(0)
  | _ -> Alcotest.fail "expected grant"

(* A retransmitted blocking acquire must not enqueue the family twice: it is
   told Queued again, the wait queue stays at one entry, and the eventual
   release produces exactly one deferred grant. *)
let test_acquire_idempotent_while_queued () =
  let d = make () in
  Alcotest.(check bool) "holder" true
    (is_granted (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write));
  Alcotest.(check bool) "first request queues" true
    (is_queued (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Write));
  Alcotest.(check bool) "retransmit queues again" true
    (is_queued (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Write));
  Alcotest.(check int) "single wait entry" 1 (Gdo.Directory.waiting_count d (oid 0));
  let deliveries = Gdo.Directory.release d (oid 0) ~family:(fam 1) ~dirty:[] in
  Alcotest.(check int) "single deferred grant" 1 (List.length deliveries);
  Alcotest.(check bool) "granted to waiter" true
    (match deliveries with
    | [ { Gdo.Directory.d_family; _ } ] -> Txn_id.equal d_family (fam 2)
    | _ -> false)

(* NonHoldersPtr at depth: 20,000 writers queue behind two readers. A
   retransmitted acquire from mid-queue is told Queued without growing the
   queue, an upgrade enters at the head, and draining by successive
   releases delivers the upgrade and then every writer in exact FIFO
   order. Enqueueing must allocate a bounded number of words per waiter: a
   queue copied on every append allocates ~N²/2 cons cells over the phase,
   which blows the bound at this depth on any host. *)
let test_deep_queue_fifo () =
  let n = 20_000 in
  let d = make ~objects:1 () in
  let writer i = fam (100 + i) in
  let count () = Gdo.Directory.waiting_count d (oid 0) in
  Alcotest.(check bool) "reader 1" true
    (is_granted (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Read));
  Alcotest.(check bool) "reader 2" true
    (is_granted (acquire d 0 ~family:(fam 2) ~node:1 ~mode:Lock.Read));
  let words0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    if not (is_queued (acquire d 0 ~family:(writer i) ~node:(i mod 4) ~mode:Lock.Write)) then
      Alcotest.failf "writer %d not queued" i
  done;
  let per_waiter = (Gc.minor_words () -. words0) /. float_of_int n in
  if per_waiter >= 1_000. then
    Alcotest.failf "enqueue allocated %.0f words per waiter (bound 1000)" per_waiter;
  Alcotest.(check int) "all writers queued" n (count ());
  Alcotest.(check bool) "queued writer" true (Gdo.Directory.has_queued_writer d (oid 0));
  Alcotest.(check bool) "retransmit mid-queue" true
    (is_queued (acquire d 0 ~family:(writer (n / 2)) ~node:(n / 2 mod 4) ~mode:Lock.Write));
  Alcotest.(check int) "retransmit adds no waiter" n (count ());
  Alcotest.(check bool) "upgrade queues" true
    (is_queued (acquire d 0 ~family:(fam 1) ~node:0 ~mode:Lock.Write));
  Alcotest.(check int) "upgrade joins" (n + 1) (count ());
  let granted_to family =
    match Gdo.Directory.release d (oid 0) ~family ~dirty:[] with
    | [ dv ] when Lock.equal dv.Gdo.Directory.d_grant.Gdo.Directory.g_mode Lock.Write ->
        dv.Gdo.Directory.d_family
    | ds -> Alcotest.failf "expected one write grant, got %d deliveries" (List.length ds)
  in
  Alcotest.(check int) "upgrade first" 1 (Txn_id.to_int (granted_to (fam 2)));
  let next = ref (granted_to (fam 1)) in
  for i = 0 to n - 1 do
    if not (Txn_id.equal !next (writer i)) then
      Alcotest.failf "grant %d went to family %d" i (Txn_id.to_int !next);
    if i < n - 1 then next := granted_to !next
  done;
  Alcotest.(check (list int)) "last release drains" []
    (List.map
       (fun dv -> Txn_id.to_int dv.Gdo.Directory.d_family)
       (Gdo.Directory.release d (oid 0) ~family:!next ~dirty:[]));
  Alcotest.(check int) "queue empty" 0 (count ());
  Alcotest.(check bool) "no queued writer" false (Gdo.Directory.has_queued_writer d (oid 0));
  Alcotest.(check int) "no waits-for edge" 0 (List.length (Gdo.Directory.waits_for_edges d));
  Alcotest.(check (list string)) "audit clean" [] (Gdo.Directory.audit d)

let tests =
  [
    ( "gdo",
      [
        Alcotest.test_case "register and initial map" `Quick test_register_and_initial_map;
        Alcotest.test_case "free grant" `Quick test_free_grant;
        Alcotest.test_case "concurrent readers" `Quick test_concurrent_readers;
        Alcotest.test_case "writer excludes" `Quick test_writer_excludes;
        Alcotest.test_case "re-entrant" `Quick test_reentrant;
        Alcotest.test_case "release grants next writer" `Quick test_release_grants_next_writer;
        Alcotest.test_case "release batches readers" `Quick test_release_batches_readers;
        Alcotest.test_case "fifo order" `Quick test_fifo_order;
        Alcotest.test_case "upgrade sole reader" `Quick test_upgrade_sole_reader;
        Alcotest.test_case "upgrade waits for readers" `Quick test_upgrade_waits_for_other_readers;
        Alcotest.test_case "upgrade deadlock" `Quick test_upgrade_deadlock_detected;
        Alcotest.test_case "two-object deadlock" `Quick test_two_object_deadlock;
        Alcotest.test_case "three-party deadlock" `Quick test_three_party_deadlock;
        Alcotest.test_case "non-blocking busy" `Quick test_nonblocking_busy;
        Alcotest.test_case "dirty updates page map" `Quick test_dirty_updates_page_map;
        Alcotest.test_case "release non-holder noop" `Quick test_release_not_holder_noop;
        Alcotest.test_case "copyset" `Quick test_copyset;
        Alcotest.test_case "waits-for edges" `Quick test_waits_for_edges;
        Alcotest.test_case "grant copies page map" `Quick test_grant_carries_page_map_copy;
        Alcotest.test_case "acquire idempotent while queued" `Quick
          test_acquire_idempotent_while_queued;
        Alcotest.test_case "deep queue keeps FIFO order" `Quick test_deep_queue_fifo;
      ] );
  ]
