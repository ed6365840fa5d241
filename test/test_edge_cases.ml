(* Assorted edge cases across the substrate modules. *)

open Objmodel
open Sim

let oid = Oid.of_int

(* ---------- Engine ---------- *)

let test_fiber_exception_propagates () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run e)

let test_spawn_inside_fiber () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      log := "outer" :: !log;
      Engine.spawn e (fun () ->
          Engine.wait 5.0;
          log := "inner" :: !log);
      Engine.wait 10.0;
      log := "outer-done" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "nested fiber ran" [ "outer"; "inner"; "outer-done" ]
    (List.rev !log)

let test_wait_zero () =
  let e = Engine.create () in
  let done_ = ref false in
  Engine.spawn e (fun () ->
      Engine.wait 0.0;
      done_ := true);
  Engine.run e;
  Alcotest.(check bool) "zero wait completes" true !done_;
  Alcotest.(check (float 1e-9)) "no time passed" 0.0 (Engine.now e)

(* ---------- Trace ---------- *)

let test_trace_capacity_one () =
  let tr = Trace.create ~capacity:1 in
  for i = 1 to 4 do
    Trace.record tr ~time:(float_of_int i) (string_of_int i)
  done;
  Alcotest.(check int) "one retained" 1 (Trace.length tr);
  Alcotest.(check int) "three dropped" 3 (Trace.dropped tr);
  Alcotest.(check (list string)) "keeps the newest" [ "4" ]
    (List.map (fun e -> e.Trace.data) (Trace.events tr))

(* ---------- Layout ---------- *)

let test_attr_spanning_three_pages () =
  let attrs = [| Attribute.make ~name:"pad" ~size_bytes:50; Attribute.make ~name:"big" ~size_bytes:220 |] in
  let l = Layout.create ~page_size:100 attrs in
  Alcotest.(check (list int)) "spans 0-2" [ 0; 1; 2 ] (Layout.pages_of_attr l 1);
  Alcotest.(check int) "three pages total" 3 (Layout.page_count l)

let test_page_size_one () =
  let l = Layout.create ~page_size:1 [| Attribute.make ~name:"x" ~size_bytes:3 |] in
  Alcotest.(check (list int)) "byte-granular pages" [ 0; 1; 2 ] (Layout.pages_of_attr l 0)

(* ---------- Method IR ---------- *)

let test_loop_zero_iterations () =
  let m =
    Method_ir.make ~name:"m" ~body:[ Method_ir.Loop { count = 0; body = [ Method_ir.Write 0 ] } ]
  in
  let writes = ref 0 in
  Method_ir.interp m
    {
      Method_ir.on_read = ignore;
      on_write = (fun _ -> incr writes);
      on_invoke = (fun _ _ -> ());
      choose = (fun _ -> true);
    };
  Alcotest.(check int) "never executed" 0 !writes;
  (* The conservative analysis still predicts the write. *)
  let s = Access_analysis.analyse ~attr_count:1 m in
  Alcotest.(check (list int)) "still predicted" [ 0 ] s.Access_analysis.write_attrs

let test_nested_loops_cost () =
  let m =
    Method_ir.make ~name:"m"
      ~body:
        [
          Method_ir.Loop
            { count = 3; body = [ Method_ir.Loop { count = 2; body = [ Method_ir.Read 0 ] } ] };
        ]
  in
  (* statement_count counts the static body once: loop + loop + read = 3. *)
  Alcotest.(check int) "static count" 3 (Method_ir.statement_count m);
  let reads = ref 0 in
  Method_ir.interp m
    {
      Method_ir.on_read = (fun _ -> incr reads);
      on_write = ignore;
      on_invoke = (fun _ _ -> ());
      choose = (fun _ -> true);
    };
  Alcotest.(check int) "dynamic executions" 6 !reads

(* ---------- Catalog ---------- *)

let test_diamond_dag_depth () =
  let leaf =
    Obj_class.compile ~page_size:100
      (Obj_class.define ~name:"L"
         ~attrs:[| Attribute.make ~name:"x" ~size_bytes:10 |]
         ~methods:[ Method_ir.make ~name:"m" ~body:[ Method_ir.Read 0 ] ]
         ~ref_slots:0)
  in
  let mid =
    Obj_class.compile ~page_size:100
      (Obj_class.define ~name:"M"
         ~attrs:[||]
         ~methods:[ Method_ir.make ~name:"m" ~body:[ Method_ir.Invoke { slot = 0; meth = "m" } ] ]
         ~ref_slots:1)
  in
  let top =
    Obj_class.compile ~page_size:100
      (Obj_class.define ~name:"T"
         ~attrs:[||]
         ~methods:
           [
             Method_ir.make ~name:"m"
               ~body:
                 [
                   Method_ir.Invoke { slot = 0; meth = "m" };
                   Method_ir.Invoke { slot = 1; meth = "m" };
                 ];
           ]
         ~ref_slots:2)
  in
  (* Diamond: top -> {mid1, mid2} -> leaf. Acyclic despite the shared leaf. *)
  let cat =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = top; refs = [| oid 1; oid 2 |] };
        { Catalog.oid = oid 1; cls = mid; refs = [| oid 3 |] };
        { Catalog.oid = oid 2; cls = mid; refs = [| oid 3 |] };
        { Catalog.oid = oid 3; cls = leaf; refs = [||] };
      ]
  in
  Alcotest.(check bool) "diamond acyclic" true (Catalog.validate_acyclic cat = Ok ());
  Alcotest.(check int) "depth 3" 3 (Catalog.max_invocation_depth cat)

(* A diamond family re-acquires the shared leaf: the second touch must be a
   purely local acquisition (the family already holds the lock). *)
let test_diamond_family_reacquires_locally () =
  let leaf =
    Obj_class.compile ~page_size:4096
      (Obj_class.define ~name:"L"
         ~attrs:[| Attribute.make ~name:"x" ~size_bytes:64 |]
         ~methods:[ Method_ir.make ~name:"m" ~body:[ Method_ir.Write 0 ] ]
         ~ref_slots:0)
  in
  let top =
    Obj_class.compile ~page_size:4096
      (Obj_class.define ~name:"T" ~attrs:[||]
         ~methods:
           [
             Method_ir.make ~name:"m"
               ~body:
                 [
                   Method_ir.Invoke { slot = 0; meth = "m" };
                   Method_ir.Invoke { slot = 1; meth = "m" };
                 ];
           ]
         ~ref_slots:2)
  in
  let cat =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = top; refs = [| oid 1; oid 1 |] };
        { Catalog.oid = oid 1; cls = leaf; refs = [||] };
      ]
  in
  let rt = Core.Runtime.create ~config:Core.Config.default ~catalog:cat in
  Core.Runtime.submit rt ~at:0.0 ~node:2 ~oid:(oid 0) ~meth:"m" ~seed:1;
  Core.Runtime.run rt;
  let t = Dsm.Metrics.totals (Core.Runtime.metrics rt) in
  Alcotest.(check int) "committed" 1 t.Dsm.Metrics.roots_committed;
  (* Two global acquisitions (top + first leaf touch), one local (second
     leaf touch, granted from the family's retained lock). *)
  Alcotest.(check int) "global" 2 t.Dsm.Metrics.global_acquisitions;
  Alcotest.(check int) "local" 1 t.Dsm.Metrics.local_acquisitions

(* ---------- Network ---------- *)

let test_zero_byte_message () =
  let engine = Engine.create () in
  let net = Network.create ~engine ~node_count:2 ~link:Network.link_100mbps () in
  let got = ref false in
  Network.set_handler net ~node:1 (fun ~src:_ () -> got := true);
  Network.set_handler net ~node:0 (fun ~src:_ () -> ());
  Network.send net ~src:0 ~dst:1 ~kind:Network.Control ~bytes:0 ~tag:(-1) ();
  Engine.run engine;
  Alcotest.(check bool) "delivered" true !got;
  Alcotest.(check (float 0.001)) "software cost only" 20.0 (Engine.now engine)

(* ---------- Directory dump ---------- *)

let test_directory_dump () =
  let d = Gdo.Directory.create () in
  Gdo.Directory.register_object d (oid 3) ~pages:2 ~initial_node:0;
  ignore
    (Gdo.Directory.acquire d (oid 3) ~family:(Txn.Txn_id.of_int 9) ~node:1 ~mode:Txn.Lock.Write ());
  let s = Gdo.Directory.dump d in
  let has sub =
    let n = String.length sub and m = String.length s in
    let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "names object" true (has "O3");
  Alcotest.(check bool) "names holder" true (has "T9@1");
  (* Free objects are omitted. *)
  Gdo.Directory.register_object d (oid 4) ~pages:1 ~initial_node:0;
  Alcotest.(check bool) "free omitted" false
    (let s = Gdo.Directory.dump d in
     let n = String.length "O4" and m = String.length s in
     let rec scan i = i + n <= m && (String.sub s i n = "O4" || scan (i + 1)) in
     scan 0)

let tests =
  [
    ( "edge-cases",
      [
        Alcotest.test_case "fiber exception propagates" `Quick test_fiber_exception_propagates;
        Alcotest.test_case "spawn inside fiber" `Quick test_spawn_inside_fiber;
        Alcotest.test_case "wait zero" `Quick test_wait_zero;
        Alcotest.test_case "trace capacity one" `Quick test_trace_capacity_one;
        Alcotest.test_case "attr spans three pages" `Quick test_attr_spanning_three_pages;
        Alcotest.test_case "page size one" `Quick test_page_size_one;
        Alcotest.test_case "loop zero iterations" `Quick test_loop_zero_iterations;
        Alcotest.test_case "nested loops" `Quick test_nested_loops_cost;
        Alcotest.test_case "diamond dag" `Quick test_diamond_dag_depth;
        Alcotest.test_case "diamond local reacquire" `Quick test_diamond_family_reacquires_locally;
        Alcotest.test_case "zero-byte message" `Quick test_zero_byte_message;
        Alcotest.test_case "directory dump" `Quick test_directory_dump;
      ] );
  ]
