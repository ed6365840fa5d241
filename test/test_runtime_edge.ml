(* Targeted runtime scenarios: each test constructs a catalog that forces a
   specific protocol path and asserts the path's observable effects. *)

open Objmodel

let oid = Oid.of_int
let attr size name = Attribute.make ~name ~size_bytes:size

let compile = Obj_class.compile ~page_size:4096

(* A two-region object: page 0 holds [head], pages 1.. hold [tail]. Method
   [touch_head] accesses only page 0, [touch_tail] only the tail pages, and
   [touch_both] spans both. *)
let regions_class =
  compile
    (Obj_class.define ~name:"Regions"
       ~attrs:[| attr 4096 "head"; attr 8192 "tail" |]
       ~methods:
         [
           Method_ir.make ~name:"touch_head" ~body:[ Method_ir.Read 0; Method_ir.Write 0 ];
           Method_ir.make ~name:"touch_tail" ~body:[ Method_ir.Read 1; Method_ir.Write 1 ];
           Method_ir.make ~name:"touch_both"
             ~body:[ Method_ir.Read 0; Method_ir.Read 1; Method_ir.Write 1 ];
         ]
       ~ref_slots:0)

(* A driver whose method invokes [touch_head] then [touch_tail] on the same
   target: under LOTEC the global acquisition happens for [touch_head]
   (prediction = page 0 only), so [touch_tail]'s pages must demand-fetch. *)
let two_phase_driver =
  compile
    (Obj_class.define ~name:"TwoPhase" ~attrs:[||]
       ~methods:
         [
           Method_ir.make ~name:"go"
             ~body:
               [
                 Method_ir.Invoke { slot = 0; meth = "touch_head" };
                 Method_ir.Invoke { slot = 0; meth = "touch_tail" };
               ];
         ]
       ~ref_slots:1)

let make_runtime ?(config = Core.Config.default) ?(protocol = Dsm.Protocol.Lotec) catalog =
  let config = { config with Core.Config.protocol; node_count = 4 } in
  Core.Runtime.create ~config ~catalog

let totals rt = Dsm.Metrics.totals (Core.Runtime.metrics rt)

let test_demand_fetch_on_second_method () =
  let catalog =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = two_phase_driver; refs = [| oid 1 |] };
        { Catalog.oid = oid 1; cls = regions_class; refs = [||] };
      ]
  in
  (* First dirty the tail pages from another node, so they are stale at the
     driver's node when it acquires for touch_head. *)
  let rt = make_runtime catalog in
  Core.Runtime.submit rt ~at:0.0 ~node:2 ~oid:(oid 1) ~meth:"touch_tail" ~seed:1;
  Core.Runtime.submit rt ~at:5_000.0 ~node:3 ~oid:(oid 0) ~meth:"go" ~seed:2;
  Core.Runtime.run rt;
  let t = totals rt in
  Alcotest.(check int) "committed" 2 t.Dsm.Metrics.roots_committed;
  Alcotest.(check bool) "demand fetch happened" true (t.Dsm.Metrics.demand_fetches >= 1);
  (* The same run under OTEC fetches everything up front: no demand. *)
  let rt2 = make_runtime ~protocol:Dsm.Protocol.Otec catalog in
  Core.Runtime.submit rt2 ~at:0.0 ~node:2 ~oid:(oid 1) ~meth:"touch_tail" ~seed:1;
  Core.Runtime.submit rt2 ~at:5_000.0 ~node:3 ~oid:(oid 0) ~meth:"go" ~seed:2;
  Core.Runtime.run rt2;
  Alcotest.(check int) "otec: none" 0 (totals rt2).Dsm.Metrics.demand_fetches

let test_lotec_skips_unneeded_pages () =
  (* Node A dirties the tail; node B then runs touch_head. LOTEC must move
     strictly less data than OTEC for that second acquisition. *)
  let catalog = Catalog.create [ { Catalog.oid = oid 0; cls = regions_class; refs = [||] } ] in
  let run protocol =
    let rt = make_runtime ~protocol catalog in
    Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 0) ~meth:"touch_tail" ~seed:3;
    Core.Runtime.submit rt ~at:5_000.0 ~node:2 ~oid:(oid 0) ~meth:"touch_head" ~seed:4;
    Core.Runtime.run rt;
    Dsm.Metrics.total_data_bytes (Core.Runtime.metrics rt)
  in
  let lotec = run Dsm.Protocol.Lotec and otec = run Dsm.Protocol.Otec in
  Alcotest.(check bool)
    (Printf.sprintf "lotec (%d) < otec (%d)" lotec otec)
    true (lotec < otec)

let test_read_only_root_reports_no_dirty () =
  let catalog = Catalog.create [ { Catalog.oid = oid 0; cls = regions_class; refs = [||] } ] in
  let ro =
    compile
      (Obj_class.define ~name:"RO" ~attrs:[| attr 64 "x" |]
         ~methods:[ Method_ir.make ~name:"peek" ~body:[ Method_ir.Read 0 ] ]
         ~ref_slots:0)
  in
  let catalog2 =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = ro; refs = [||] };
      ]
  in
  ignore catalog;
  let rt = make_runtime catalog2 in
  Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 0) ~meth:"peek" ~seed:5;
  Core.Runtime.run rt;
  (match Core.Runtime.committed_history rt with
  | [ h ] ->
      Alcotest.(check int) "no writes" 0 (List.length h.Core.Serializability.writes);
      Alcotest.(check bool) "reads recorded" true (h.Core.Serializability.reads <> [])
  | _ -> Alcotest.fail "one family");
  (* GDO map must still say version 0 everywhere. *)
  let _, versions = Gdo.Directory.page_map (Core.Runtime.directory rt) (oid 0) in
  Alcotest.(check bool) "versions untouched" true (Array.for_all (( = ) 0) versions)

let test_multicast_push_accounting () =
  (* Warm three nodes' caches under RC-nested, then compare push bytes with
     and without multicast: the multicast run must count strictly fewer
     message bytes while leaving all caches equally fresh. *)
  let catalog = Catalog.create [ { Catalog.oid = oid 0; cls = regions_class; refs = [||] } ] in
  let run multicast =
    let config =
      { Core.Config.default with Core.Config.multicast_push = multicast; node_count = 4 }
    in
    let rt = make_runtime ~config ~protocol:Dsm.Protocol.Rc_nested catalog in
    List.iteri
      (fun i node ->
        Core.Runtime.submit rt ~at:(float_of_int (i * 5_000)) ~node ~oid:(oid 0)
          ~meth:"touch_both" ~seed:(10 + i))
      [ 0; 1; 2; 3 ];
    Core.Runtime.run rt;
    rt
  in
  let plain = run false and mc = run true in
  let bytes rt = Dsm.Metrics.total_data_bytes (Core.Runtime.metrics rt) in
  Alcotest.(check bool)
    (Printf.sprintf "multicast (%d) < unicast (%d)" (bytes mc) (bytes plain))
    true
    (bytes mc < bytes plain);
  Alcotest.(check bool) "pushes happened" true ((totals plain).Dsm.Metrics.eager_pushes >= 1);
  (* Both runs end with the same page-store contents on every node. *)
  for node = 0 to 3 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "node %d caches equal" node)
      (Dsm.Page_store.cached_pages (Core.Runtime.store plain ~node) (oid 0))
      (Dsm.Page_store.cached_pages (Core.Runtime.store mc ~node) (oid 0))
  done

let test_root_gives_up_when_out_of_retries () =
  (* Force guaranteed failure: abort probability 1, so every sub-transaction
     attempt fails and the family exhausts its root retries. *)
  let catalog = Catalog.create [ { Catalog.oid = oid 1; cls = regions_class; refs = [||] } ] in
  let driver =
    compile
      (Obj_class.define ~name:"D" ~attrs:[||]
         ~methods:
           [ Method_ir.make ~name:"go" ~body:[ Method_ir.Invoke { slot = 0; meth = "touch_head" } ] ]
         ~ref_slots:1)
  in
  let catalog =
    Catalog.create
      (Catalog.oids catalog
      |> List.map (fun o -> Catalog.find catalog o)
      |> List.cons { Catalog.oid = oid 0; cls = driver; refs = [| oid 1 |] })
  in
  let config =
    {
      Core.Config.default with
      Core.Config.abort_probability = 1.0;
    }
  in
  let rt = make_runtime ~config catalog in
  Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 0) ~meth:"go" ~seed:6;
  Core.Runtime.run rt;
  (match Core.Runtime.results rt with
  | [ r ] ->
      Alcotest.(check bool) "gave up" true (r.Core.Runtime.outcome = Core.Runtime.Gave_up);
      Alcotest.(check int) "every root attempt" (Core.Config.max_root_retries + 1)
        r.Core.Runtime.attempts
  | _ -> Alcotest.fail "one result");
  let t = totals rt in
  Alcotest.(check int) "counted as aborted" 1 t.Dsm.Metrics.roots_aborted;
  Alcotest.(check int) "nothing committed" 0 t.Dsm.Metrics.roots_committed;
  (* All locks must still be free: the aborts released everything. *)
  List.iter
    (fun o ->
      Alcotest.(check bool) "free" true
        (Gdo.Directory.lock_state (Core.Runtime.directory rt) o = Gdo.Directory.Free))
    (Catalog.oids catalog);
  (* And the store state must be the initial one (all writes undone). *)
  let _, versions = Gdo.Directory.page_map (Core.Runtime.directory rt) (oid 1) in
  Alcotest.(check bool) "all undone" true (Array.for_all (( = ) 0) versions)

let test_colocated_families_contend_via_gdo () =
  (* Two families on the same node contending for the same object must go
     through the GDO (Algorithm 4.1's last case) and still serialize. *)
  let catalog = Catalog.create [ { Catalog.oid = oid 0; cls = regions_class; refs = [||] } ] in
  let rt = make_runtime catalog in
  Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 0) ~meth:"touch_both" ~seed:7;
  Core.Runtime.submit rt ~at:1.0 ~node:1 ~oid:(oid 0) ~meth:"touch_both" ~seed:8;
  Core.Runtime.run rt;
  let t = totals rt in
  Alcotest.(check int) "both committed" 2 t.Dsm.Metrics.roots_committed;
  Alcotest.(check int) "two global acquisitions" 2 t.Dsm.Metrics.global_acquisitions;
  match Core.Runtime.check_serializable rt with
  | Core.Serializability.Serializable _ -> ()
  | Core.Serializability.Cyclic _ -> Alcotest.fail "not serializable"

let test_grant_bytes_scale_with_page_map () =
  (* The grant message ships the page map, so acquiring a big object costs
     more control bytes than acquiring a small one. *)
  let small =
    compile
      (Obj_class.define ~name:"S" ~attrs:[| attr 64 "x" |]
         ~methods:[ Method_ir.make ~name:"m" ~body:[ Method_ir.Write 0 ] ]
         ~ref_slots:0)
  in
  let big =
    compile
      (Obj_class.define ~name:"B"
         ~attrs:[| attr (40 * 4096) "blob" |]
         ~methods:[ Method_ir.make ~name:"m" ~body:[ Method_ir.Write 0 ] ]
         ~ref_slots:0)
  in
  let catalog =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = small; refs = [||] };
        { Catalog.oid = oid 1; cls = big; refs = [||] };
      ]
  in
  let rt = make_runtime catalog in
  (* Node 2 is home to neither object (homes are 0 and 1). *)
  Core.Runtime.submit rt ~at:0.0 ~node:2 ~oid:(oid 0) ~meth:"m" ~seed:9;
  Core.Runtime.submit rt ~at:0.0 ~node:2 ~oid:(oid 1) ~meth:"m" ~seed:10;
  Core.Runtime.run rt;
  let m = Core.Runtime.metrics rt in
  let ctrl o = (Dsm.Metrics.per_object m (oid o)).Dsm.Metrics.control_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "big grant (%d) > small grant (%d)" (ctrl 1) (ctrl 0))
    true
    (ctrl 1 > ctrl 0)

(* Mutually recursive classes: A.m invokes B.m which invokes A.m... The
   reference graph is cyclic, so the static check rejects it; with the
   run-time policy the catalog is admitted and the family is rejected only
   when an execution actually recurses. *)
let recursive_catalog () =
  let ping =
    compile
      (Obj_class.define ~name:"Ping"
         ~attrs:[| attr 64 "x" |]
         ~methods:
           [
             Method_ir.make ~name:"bounce"
               ~body:[ Method_ir.Write 0; Method_ir.Invoke { slot = 0; meth = "bounce" } ];
             Method_ir.make ~name:"local" ~body:[ Method_ir.Write 0 ];
             Method_ir.make ~name:"once"
               ~body:[ Method_ir.Invoke { slot = 0; meth = "local" } ];
           ]
         ~ref_slots:1)
  in
  Catalog.create
    [
      { Catalog.oid = oid 0; cls = ping; refs = [| oid 1 |] };
      { Catalog.oid = oid 1; cls = ping; refs = [| oid 0 |] };
    ]

let test_static_recursion_rejection () =
  let catalog = recursive_catalog () in
  try
    ignore (make_runtime catalog);
    Alcotest.fail "cyclic catalog must be rejected statically"
  with Invalid_argument msg ->
    Alcotest.(check bool) "mentions recursion" true
      (String.length msg > 0
      &&
      let rec contains i =
        i + 9 <= String.length msg && (String.sub msg i 9 = "recursive" || contains (i + 1))
      in
      contains 0)

let test_runtime_recursion_detection () =
  let catalog = recursive_catalog () in
  let config =
    { Core.Config.default with Core.Config.allow_recursive_catalogs = true }
  in
  let rt = make_runtime ~config catalog in
  (* "bounce" recurses O0 -> O1 -> O0: must be rejected, exactly once (no
     retries — the failure is deterministic). "once" does not recurse and
     must commit despite the cyclic catalog. *)
  Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 0) ~meth:"bounce" ~seed:20;
  Core.Runtime.submit rt ~at:10_000.0 ~node:2 ~oid:(oid 1) ~meth:"once" ~seed:21;
  Core.Runtime.run rt;
  let by_meth m =
    List.find (fun (r : Core.Runtime.root_result) -> r.Core.Runtime.meth = m)
      (Core.Runtime.results rt)
  in
  let bounce = by_meth "bounce" in
  Alcotest.(check bool) "bounce rejected" true
    (bounce.Core.Runtime.outcome = Core.Runtime.Gave_up);
  Alcotest.(check int) "no retries for deterministic failure" 1 bounce.Core.Runtime.attempts;
  let once = by_meth "once" in
  Alcotest.(check bool) "non-recursive run commits" true
    (once.Core.Runtime.outcome = Core.Runtime.Committed);
  (* The rejected family must have left no state behind. *)
  List.iter
    (fun o ->
      Alcotest.(check bool) "lock free" true
        (Gdo.Directory.lock_state (Core.Runtime.directory rt) o = Gdo.Directory.Free))
    (Catalog.oids catalog);
  match Core.Runtime.check_serializable rt with
  | Core.Serializability.Serializable _ -> ()
  | Core.Serializability.Cyclic _ -> Alcotest.fail "not serializable"

let test_runtime_recursion_undoes_writes () =
  (* bounce writes O0's page before recursing; the rejection must undo it. *)
  let catalog = recursive_catalog () in
  let config =
    { Core.Config.default with Core.Config.allow_recursive_catalogs = true }
  in
  let rt = make_runtime ~config catalog in
  Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 0) ~meth:"bounce" ~seed:22;
  Core.Runtime.run rt;
  let _, versions = Gdo.Directory.page_map (Core.Runtime.directory rt) (oid 0) in
  Alcotest.(check bool) "gdo map untouched" true (Array.for_all (( = ) 0) versions);
  (* The executing node's local store must also be back to the initial
     version (the uncommitted write was undone locally). *)
  Alcotest.(check bool) "local store undone" true
    (Dsm.Page_store.version (Core.Runtime.store rt ~node:1) (oid 0) ~page:0 <= 0)

let test_slow_link_abort_retry_race () =
  (* Regression for a message-ordering race: at 10 Mbps a small retry
     acquire used to overtake the larger in-flight release from the same
     node (latency grows with size), resurrecting a lock the GDO was about
     to free and corrupting the holder state. Channel-FIFO delivery fixes
     it; this workload (slow link + heavy failure injection + contention)
     reproduced the corruption before the fix. *)
  let spec =
    {
      Workload.Spec.default with
      Workload.Spec.object_count = 8;
      root_count = 40;
      node_count = 4;
      seed = 606;
    }
  in
  let config =
    {
      Core.Config.default with
      Core.Config.link = Sim.Network.link_10mbps;
      abort_probability = 0.25;
      node_count = 4;
    }
  in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
  let rt = run.Experiments.Runner.runtime in
  let t = Dsm.Metrics.totals (Core.Runtime.metrics rt) in
  Alcotest.(check bool) "aborts exercised" true (t.Dsm.Metrics.sub_aborts > 0);
  Alcotest.(check int) "all resolved" 40
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  List.iter
    (fun o ->
      Alcotest.(check bool) "lock state clean" true
        (Gdo.Directory.lock_state (Core.Runtime.directory rt) o = Gdo.Directory.Free
        && Gdo.Directory.holders (Core.Runtime.directory rt) o = []))
    (Catalog.oids (Core.Runtime.catalog rt))

let test_prefetch_transfer_completes_before_access () =
  (* Regression: with optimistic pre-acquisition, a child used to be granted
     the prefetched lock locally while the prefetch fiber's pages were still
     on the wire — under COTEC/OTEC (no demand fetch) the body then hit
     stale pages. Every grant path now awaits the in-flight acquisition
     transfer. Run eager protocols with prefetch under contention. *)
  let spec =
    {
      Workload.Scenarios.medium_high with
      Workload.Spec.root_count = 60;
      seed = 5;
      access_skew = 0.8;
    }
  in
  List.iter
    (fun protocol ->
      let config =
        {
          Core.Config.default with
          Core.Config.prefetch = true;
          abort_probability = 0.1;
          node_count = spec.Workload.Spec.node_count;
        }
      in
      let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
      let run = Experiments.Runner.execute ~config ~protocol wl in
      let t = Dsm.Metrics.totals (Experiments.Runner.metrics run) in
      Alcotest.(check int)
        (Format.asprintf "%a all resolved" Dsm.Protocol.pp protocol)
        60
        (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
      Alcotest.(check int)
        (Format.asprintf "%a no demand fetches" Dsm.Protocol.pp protocol)
        0 t.Dsm.Metrics.demand_fetches)
    [ Dsm.Protocol.Cotec; Dsm.Protocol.Otec ]

let test_trace_sequence_for_simple_run () =
  let catalog = Catalog.create [ { Catalog.oid = oid 0; cls = regions_class; refs = [||] } ] in
  let config = { Core.Config.default with Core.Config.trace_capacity = 1000 } in
  let rt = make_runtime ~config catalog in
  Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 0) ~meth:"touch_head" ~seed:11;
  Core.Runtime.run rt;
  match Core.Runtime.trace rt with
  | None -> Alcotest.fail "trace expected"
  | Some tr ->
      let cats =
        List.map (fun e -> Dsm.Event.category e.Sim.Trace.data) (Sim.Trace.events tr)
      in
      (* lock grant, then transfer, then commit — in that order. *)
      let index c =
        let rec find i = function
          | [] -> -1
          | x :: rest -> if x = c then i else find (i + 1) rest
        in
        find 0 cats
      in
      Alcotest.(check bool) "lock before transfer" true (index "lock" < index "transfer");
      Alcotest.(check bool) "transfer before commit" true (index "transfer" < index "commit")

let tests =
  [
    ( "runtime-edge",
      [
        Alcotest.test_case "demand fetch on second method" `Quick
          test_demand_fetch_on_second_method;
        Alcotest.test_case "lotec skips unneeded pages" `Quick test_lotec_skips_unneeded_pages;
        Alcotest.test_case "read-only root" `Quick test_read_only_root_reports_no_dirty;
        Alcotest.test_case "multicast push accounting" `Quick test_multicast_push_accounting;
        Alcotest.test_case "root gives up" `Quick test_root_gives_up_when_out_of_retries;
        Alcotest.test_case "colocated families" `Quick test_colocated_families_contend_via_gdo;
        Alcotest.test_case "grant bytes scale with map" `Quick test_grant_bytes_scale_with_page_map;
        Alcotest.test_case "static recursion rejection" `Quick test_static_recursion_rejection;
        Alcotest.test_case "runtime recursion detection" `Quick test_runtime_recursion_detection;
        Alcotest.test_case "recursion undoes writes" `Quick test_runtime_recursion_undoes_writes;
        Alcotest.test_case "slow-link abort/retry race" `Quick test_slow_link_abort_retry_race;
        Alcotest.test_case "prefetch transfer race" `Quick
          test_prefetch_transfer_completes_before_access;
        Alcotest.test_case "trace sequence" `Quick test_trace_sequence_for_simple_run;
      ] );
  ]
