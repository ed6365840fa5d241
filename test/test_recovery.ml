(* Tests for local UNDO (paper §4.1): undo logs over a page store, their
   closed-nesting merge, and a runtime run whose injected sub-transaction
   failures are undone from the logs. *)

open Objmodel
open Txn

let oid = Oid.of_int

let record log store o page v =
  let prev = Dsm.Page_store.write store (oid o) ~page ~new_version:v in
  Undo_log.record log ~oid:(oid o) ~page ~prev_version:prev

(* Apply an abort: replay the log newest-first over the store. *)
let restore store log =
  List.iter
    (fun { Undo_log.oid; page; prev_version } ->
      Dsm.Page_store.restore store oid ~page ~version:prev_version)
    (Undo_log.entries_newest_first log)

let dirty log =
  List.sort compare (List.map (fun (o, p) -> (Oid.to_int o, p)) (Undo_log.dirty_pages log))

(* Nested writes over a page store: aborting the parent after its child
   pre-committed returns every page to its pre-transaction version. *)
let test_restore_equivalence () =
  let store = Dsm.Page_store.create ~node:0 in
  Dsm.Page_store.receive store (oid 1) ~page:0 ~version:10;
  Dsm.Page_store.receive store (oid 1) ~page:1 ~version:20;
  let parent = Undo_log.create () and child = Undo_log.create () in
  record parent store 1 0 11;
  (* child writes both pages, then pre-commits into the parent *)
  record child store 1 0 12;
  record child store 1 1 21;
  Undo_log.merge_into_parent ~child ~parent;
  (* parent writes more after inheriting *)
  record parent store 1 1 22;
  restore store parent;
  Alcotest.(check int) "page 0 restored" 10 (Dsm.Page_store.version store (oid 1) ~page:0);
  Alcotest.(check int) "page 1 restored" 20 (Dsm.Page_store.version store (oid 1) ~page:1)

let test_dirty_pages_agree () =
  let log = Undo_log.create () in
  Undo_log.record log ~oid:(oid 1) ~page:0 ~prev_version:0;
  Undo_log.record log ~oid:(oid 1) ~page:0 ~prev_version:1;
  Undo_log.record log ~oid:(oid 2) ~page:3 ~prev_version:0;
  Alcotest.(check (list (pair int int))) "one entry per written page" [ (1, 0); (2, 3) ]
    (dirty log);
  Alcotest.(check int) "one record per write" 3 (Undo_log.length log)

(* Pre-commit merge where the child's dirty pages partly overlap the
   parent's: on the shared page the parent's (older) pre-image must be the
   restore point; disjoint child pages are adopted. *)
let test_merge_overlapping_dirty_pages () =
  let store = Dsm.Page_store.create ~node:0 in
  Dsm.Page_store.receive store (oid 1) ~page:0 ~version:100;
  Dsm.Page_store.receive store (oid 1) ~page:1 ~version:200;
  Dsm.Page_store.receive store (oid 2) ~page:0 ~version:300;
  let parent = Undo_log.create () and child = Undo_log.create () in
  (* Parent touches (1,0) and (1,1); child then re-writes (1,1) — the
     overlap — and newly writes (2,0). *)
  record parent store 1 0 101;
  record parent store 1 1 201;
  record child store 1 1 202;
  record child store 2 0 301;
  Undo_log.merge_into_parent ~child ~parent;
  Alcotest.(check bool) "child emptied" true (Undo_log.is_empty child);
  Alcotest.(check (list (pair int int))) "merged dirty set" [ (1, 0); (1, 1); (2, 0) ]
    (dirty parent);
  restore store parent;
  Alcotest.(check int) "parent-only page restored" 100
    (Dsm.Page_store.version store (oid 1) ~page:0);
  Alcotest.(check int) "overlap: parent pre-image wins" 200
    (Dsm.Page_store.version store (oid 1) ~page:1);
  Alcotest.(check int) "child-only page restored" 300
    (Dsm.Page_store.version store (oid 2) ~page:0)

(* ---------- End-to-end: injected failures undone by the runtime ---------- *)

let test_runtime_with_injected_aborts () =
  let config =
    { Core.Config.default with Core.Config.abort_probability = 0.3; node_count = 4 }
  in
  let spec =
    { Workload.Spec.default with Workload.Spec.object_count = 10; root_count = 30; seed = 9 }
  in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
  let t = Dsm.Metrics.totals (Experiments.Runner.metrics run) in
  Alcotest.(check int) "all committed" 30 t.Dsm.Metrics.roots_committed;
  Alcotest.(check bool) "aborts exercised" true (t.Dsm.Metrics.sub_aborts > 0)

let tests =
  [
    ( "recovery",
      [
        Alcotest.test_case "restore equivalence" `Quick test_restore_equivalence;
        Alcotest.test_case "dirty pages agree" `Quick test_dirty_pages_agree;
        Alcotest.test_case "merge overlapping dirty pages" `Quick
          test_merge_overlapping_dirty_pages;
        Alcotest.test_case "runtime with injected aborts" `Quick
          test_runtime_with_injected_aborts;
      ] );
  ]
