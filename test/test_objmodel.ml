(* Tests for the object model: oids, attributes, layout, IR, access
   analysis, classes and the catalog. *)

open Objmodel

let oid = Oid.of_int

(* ---------- Oid ---------- *)

let test_oid_basics () =
  Alcotest.(check int) "roundtrip" 5 (Oid.to_int (oid 5));
  Alcotest.(check bool) "equal" true (Oid.equal (oid 3) (oid 3));
  Alcotest.(check bool) "compare" true (Oid.compare (oid 1) (oid 2) < 0);
  Alcotest.(check string) "pp" "O7" (Format.asprintf "%a" Oid.pp (oid 7));
  Alcotest.check_raises "negative" (Invalid_argument "Oid.of_int: negative id") (fun () ->
      ignore (oid (-1)))

(* ---------- Attribute ---------- *)

let test_attribute () =
  let a = Attribute.make ~name:"x" ~size_bytes:8 in
  Alcotest.(check int) "size" 8 a.Attribute.size_bytes;
  Alcotest.check_raises "zero size" (Invalid_argument "Attribute.make: size must be positive")
    (fun () -> ignore (Attribute.make ~name:"x" ~size_bytes:0))

(* ---------- Layout ---------- *)

let attrs_of_sizes sizes =
  Array.of_list
    (List.mapi (fun i s -> Attribute.make ~name:(Printf.sprintf "a%d" i) ~size_bytes:s) sizes)

let test_layout_sequential_offsets () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 10; 20; 30 ]) in
  Alcotest.(check int) "offset 0" 0 (Layout.offset l 0);
  Alcotest.(check int) "offset 1" 10 (Layout.offset l 1);
  Alcotest.(check int) "offset 2" 30 (Layout.offset l 2);
  Alcotest.(check int) "total" 60 (Layout.total_bytes l);
  Alcotest.(check int) "one page" 1 (Layout.page_count l)

let test_layout_page_spans () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 90; 20; 100; 95 ]) in
  (* a0: [0,90) -> page 0; a1: [90,110) -> pages 0-1; a2: [110,210) -> 1-2;
     a3: [210,305) -> pages 2-3. *)
  Alcotest.(check (list int)) "a0" [ 0 ] (Layout.pages_of_attr l 0);
  Alcotest.(check (list int)) "a1 straddles" [ 0; 1 ] (Layout.pages_of_attr l 1);
  Alcotest.(check (list int)) "a2" [ 1; 2 ] (Layout.pages_of_attr l 2);
  Alcotest.(check (list int)) "a3" [ 2; 3 ] (Layout.pages_of_attr l 3);
  Alcotest.(check int) "page count" 4 (Layout.page_count l)

let test_layout_union () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 90; 20; 100; 95 ]) in
  Alcotest.(check (list int)) "union deduped" [ 0; 1; 2 ] (Layout.pages_of_attrs l [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "empty" [] (Layout.pages_of_attrs l [])

let test_layout_empty_object () =
  let l = Layout.create ~page_size:100 [||] in
  Alcotest.(check int) "empty object still 1 page" 1 (Layout.page_count l)

let test_layout_bad_page_size () =
  Alcotest.check_raises "zero page" (Invalid_argument "Layout.create: page_size must be positive")
    (fun () -> ignore (Layout.create ~page_size:0 [||]))

let test_layout_bad_attr () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 10 ]) in
  Alcotest.check_raises "out of range" (Invalid_argument "Layout: attribute id out of range")
    (fun () -> ignore (Layout.pages_of_attr l 3))

(* ---------- Method IR ---------- *)

let body_abc =
  [
    Method_ir.Read 0;
    Method_ir.If
      {
        prob_then = 0.5;
        then_ = [ Method_ir.Write 1 ];
        else_ = [ Method_ir.Read 2; Method_ir.Invoke { slot = 1; meth = "m0" } ];
      };
    Method_ir.Loop { count = 3; body = [ Method_ir.Write 3 ] };
  ]

let test_ir_max_slot () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  Alcotest.(check int) "max slot" 1 (Method_ir.max_slot m);
  let none = Method_ir.make ~name:"n" ~body:[ Method_ir.Read 0 ] in
  Alcotest.(check int) "no slots" (-1) (Method_ir.max_slot none)

let test_ir_statement_count () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  (* read + if + write + read + invoke + loop + write = 7 *)
  Alcotest.(check int) "count" 7 (Method_ir.statement_count m)

let run_interp m ~choose =
  let log = ref [] in
  let handler =
    {
      Method_ir.on_read = (fun a -> log := Printf.sprintf "r%d" a :: !log);
      on_write = (fun a -> log := Printf.sprintf "w%d" a :: !log);
      on_invoke = (fun s meth -> log := Printf.sprintf "i%d.%s" s meth :: !log);
      choose;
    }
  in
  Method_ir.interp m handler;
  List.rev !log

let test_interp_then_branch () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  Alcotest.(check (list string))
    "then branch"
    [ "r0"; "w1"; "w3"; "w3"; "w3" ]
    (run_interp m ~choose:(fun _ -> true))

let test_interp_else_branch () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  Alcotest.(check (list string))
    "else branch"
    [ "r0"; "r2"; "i1.m0"; "w3"; "w3"; "w3" ]
    (run_interp m ~choose:(fun _ -> false))

let test_interp_choose_sees_probability () =
  let m =
    Method_ir.make ~name:"m"
      ~body:[ Method_ir.If { prob_then = 0.25; then_ = []; else_ = [] } ]
  in
  let seen = ref [] in
  let handler =
    {
      Method_ir.on_read = ignore;
      on_write = ignore;
      on_invoke = (fun _ _ -> ());
      choose =
        (fun p ->
          seen := p :: !seen;
          true);
    }
  in
  Method_ir.interp m handler;
  Alcotest.(check (list (float 0.0001))) "probability passed" [ 0.25 ] !seen

(* ---------- Access analysis ---------- *)

let test_analysis_unions_branches () =
  let m = Method_ir.make ~name:"m" ~body:body_abc in
  let s = Access_analysis.analyse ~attr_count:4 m in
  Alcotest.(check (list int)) "reads include writes" [ 0; 1; 2; 3 ] s.Access_analysis.read_attrs;
  Alcotest.(check (list int)) "writes" [ 1; 3 ] s.Access_analysis.write_attrs;
  Alcotest.(check bool) "updates" true s.Access_analysis.updates;
  Alcotest.(check (list (pair int string))) "invoked" [ (1, "m0") ] s.Access_analysis.invoked

let test_analysis_read_only () =
  let m = Method_ir.make ~name:"m" ~body:[ Method_ir.Read 5; Method_ir.Read 5 ] in
  let s = Access_analysis.analyse ~attr_count:6 m in
  Alcotest.(check bool) "not updating" false s.Access_analysis.updates;
  Alcotest.(check (list int)) "dedup" [ 5 ] s.Access_analysis.read_attrs

let test_analysis_pages () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 90; 20; 100; 95 ]) in
  let m = Method_ir.make ~name:"m" ~body:[ Method_ir.Read 0; Method_ir.Write 3 ] in
  let p = Access_analysis.pages l (Access_analysis.analyse ~attr_count:4 m) in
  Alcotest.(check (list int)) "access pages" [ 0; 2; 3 ] p.Access_analysis.access_pages

let test_analysis_attr_range () =
  List.iter
    (fun a ->
      let m = Method_ir.make ~name:"m" ~body:[ Method_ir.Read 0; Method_ir.Write a ] in
      Alcotest.check_raises (Printf.sprintf "attribute %d" a)
        (Invalid_argument
           (Printf.sprintf
              "Access_analysis.analyse: method m references attribute %d out of range" a))
        (fun () -> ignore (Access_analysis.analyse ~attr_count:4 m)))
    [ -1; 4 ]

(* Property: prediction is conservative — whatever branches execution takes,
   every executed access is inside the predicted set. *)
let gen_stmt_list =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let leaf =
            oneof
              [
                map (fun a -> Method_ir.Read a) (int_bound 9);
                map (fun a -> Method_ir.Write a) (int_bound 9);
                map2
                  (fun slot meth -> Method_ir.Invoke { slot; meth })
                  (int_bound 2) (oneofl [ "m0"; "m1" ]);
              ]
          in
          if n <= 1 then list_size (int_range 0 4) leaf
          else
            list_size (int_range 0 4)
              (frequency
                 [
                   (4, leaf);
                   ( 1,
                     map2
                       (fun t e -> Method_ir.If { prob_then = 0.5; then_ = t; else_ = e })
                       (self (n / 2)) (self (n / 2)) );
                   ( 1,
                     map
                       (fun b -> Method_ir.Loop { count = 2; body = b })
                       (self (n / 2)) );
                 ]))
        n)

let qcheck_prediction_conservative =
  let arb = QCheck.make ~print:(fun _ -> "<ir>") (QCheck.Gen.pair gen_stmt_list QCheck.Gen.int) in
  QCheck.Test.make ~name:"predicted superset of actual accesses" ~count:300 arb
    (fun (body, seed) ->
      let m = Method_ir.make ~name:"m" ~body in
      let s = Access_analysis.analyse ~attr_count:10 m in
      let rng = Sim.Prng.create ~seed in
      let actual_reads = ref [] and actual_writes = ref [] in
      let handler =
        {
          Method_ir.on_read = (fun a -> actual_reads := a :: !actual_reads);
          on_write = (fun a -> actual_writes := a :: !actual_writes);
          on_invoke = (fun _ _ -> ());
          choose = (fun p -> Sim.Prng.bernoulli rng p);
        }
      in
      Method_ir.interp m handler;
      List.for_all (fun a -> List.mem a s.Access_analysis.read_attrs) !actual_reads
      && List.for_all (fun a -> List.mem a s.Access_analysis.write_attrs) !actual_writes)

(* The Set-based analysis the byte-array [Access_analysis.analyse]
   replaced, kept as the model it must match. *)
module IS = Set.Make (Int)

module SlotMeth = Set.Make (struct
  type t = int * string

  let compare = compare
end)

type model_acc = { reads : IS.t; writes : IS.t; invoked : SlotMeth.t }

let model_analyse (m : Method_ir.t) =
  let rec block acc body = List.fold_left stmt acc body
  and stmt acc = function
    | Method_ir.Read a -> { acc with reads = IS.add a acc.reads }
    | Method_ir.Write a -> { acc with reads = IS.add a acc.reads; writes = IS.add a acc.writes }
    | Method_ir.Invoke { slot; meth } -> { acc with invoked = SlotMeth.add (slot, meth) acc.invoked }
    | Method_ir.If { then_; else_; _ } -> block (block acc then_) else_
    | Method_ir.Loop { body; _ } -> block acc body
  in
  let acc =
    block { reads = IS.empty; writes = IS.empty; invoked = SlotMeth.empty } m.Method_ir.body
  in
  {
    Access_analysis.read_attrs = IS.elements acc.reads;
    write_attrs = IS.elements acc.writes;
    invoked = SlotMeth.elements acc.invoked;
    updates = not (IS.is_empty acc.writes);
  }

let qcheck_analysis_matches_model =
  let print body = Format.asprintf "%a" Method_ir.pp (Method_ir.make ~name:"m" ~body) in
  QCheck.Test.make ~name:"analysis matches the set model" ~count:500
    (QCheck.make ~print gen_stmt_list)
    (fun body ->
      let m = Method_ir.make ~name:"m" ~body in
      Access_analysis.analyse ~attr_count:10 m = model_analyse m)

(* [pages_of_attrs] against concatenating each attribute's pages and
   sorting: random attribute sizes up to twice a page plus a few bytes (so
   attributes straddle and span pages), page sizes down to 1 byte, and
   random ascending id lists. *)
let qcheck_pages_of_attrs_model =
  let open QCheck.Gen in
  let gen =
    int_range 1 12 >>= fun n ->
    oneof [ return 1; int_range 1 64 ] >>= fun page_size ->
    list_repeat n (int_range 1 ((2 * page_size) + 3)) >>= fun sizes ->
    list_size (int_range 0 (2 * n)) (int_bound (n - 1)) >>= fun ids ->
    return (page_size, sizes, List.sort_uniq compare ids)
  in
  let print (page_size, sizes, ids) =
    Printf.sprintf "page %d sizes [%s] ids [%s]" page_size
      (String.concat ";" (List.map string_of_int sizes))
      (String.concat ";" (List.map string_of_int ids))
  in
  QCheck.Test.make ~name:"pages_of_attrs matches concat + sort_uniq" ~count:500
    (QCheck.make ~print gen)
    (fun (page_size, sizes, ids) ->
      let l = Layout.create ~page_size (attrs_of_sizes sizes) in
      Layout.pages_of_attrs l ids
      = List.sort_uniq compare (List.concat_map (Layout.pages_of_attr l) ids))

let test_pages_of_attrs_rejects_unsorted () =
  let l = Layout.create ~page_size:100 (attrs_of_sizes [ 90; 20; 100; 95 ]) in
  List.iter
    (fun ids ->
      Alcotest.check_raises "not ascending"
        (Invalid_argument "Layout.pages_of_attrs: attributes not ascending") (fun () ->
          ignore (Layout.pages_of_attrs l ids)))
    [ [ 1; 0 ]; [ 0; 3; 2 ]; [ 1; 1 ] ]

(* ---------- Obj_class ---------- *)

let simple_class () =
  Obj_class.define ~name:"K"
    ~attrs:(attrs_of_sizes [ 90; 20; 100 ])
    ~methods:
      [
        Method_ir.make ~name:"get" ~body:[ Method_ir.Read 0 ];
        Method_ir.make ~name:"set" ~body:[ Method_ir.Write 1 ];
      ]
    ~ref_slots:0

let test_class_compile () =
  let k = Obj_class.compile ~page_size:100 (simple_class ()) in
  Alcotest.(check int) "pages" 3 (Obj_class.page_count k);
  let get = Obj_class.find_method k "get" in
  Alcotest.(check bool) "get read-only" false get.Obj_class.summary.Access_analysis.updates;
  let set = Obj_class.find_method k "set" in
  Alcotest.(check bool) "set updates" true set.Obj_class.summary.Access_analysis.updates;
  Alcotest.(check (list string)) "method names" [ "get"; "set" ] (Obj_class.method_names k)

let test_class_uncompiled () =
  let k = simple_class () in
  Alcotest.check_raises "layout before compile"
    (Invalid_argument "Obj_class: class K not compiled") (fun () -> ignore (Obj_class.layout k))

let test_class_duplicate_method () =
  Alcotest.check_raises "dup" (Invalid_argument "Obj_class.define: duplicate method m")
    (fun () ->
      ignore
        (Obj_class.define ~name:"K" ~attrs:[||]
           ~methods:
             [ Method_ir.make ~name:"m" ~body:[]; Method_ir.make ~name:"m" ~body:[] ]
           ~ref_slots:0))

let test_class_slot_validation () =
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Obj_class.define: method m uses slot beyond ref_slots") (fun () ->
      ignore
        (Obj_class.define ~name:"K" ~attrs:[||]
           ~methods:[ Method_ir.make ~name:"m" ~body:[ Method_ir.Invoke { slot = 2; meth = "x" } ] ]
           ~ref_slots:2))

let test_class_missing_method () =
  let k = Obj_class.compile ~page_size:100 (simple_class ()) in
  Alcotest.check_raises "not found" Not_found (fun () -> ignore (Obj_class.find_method k "nope"))

(* ---------- Catalog ---------- *)

let compiled_leaf name =
  Obj_class.compile ~page_size:100
    (Obj_class.define ~name
       ~attrs:(attrs_of_sizes [ 50 ])
       ~methods:[ Method_ir.make ~name:"m0" ~body:[ Method_ir.Write 0 ] ]
       ~ref_slots:0)

let compiled_parent name =
  Obj_class.compile ~page_size:100
    (Obj_class.define ~name
       ~attrs:(attrs_of_sizes [ 50 ])
       ~methods:
         [
           Method_ir.make ~name:"m0"
             ~body:[ Method_ir.Read 0; Method_ir.Invoke { slot = 0; meth = "m0" } ];
         ]
       ~ref_slots:1)

let test_catalog_basic () =
  let cat =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [| oid 1 |] };
        { Catalog.oid = oid 1; cls = compiled_leaf "L"; refs = [||] };
      ]
  in
  Alcotest.(check int) "size" 2 (Catalog.size cat);
  Alcotest.(check (list int)) "oids" [ 0; 1 ] (List.map Oid.to_int (Catalog.oids cat));
  Alcotest.(check int) "resolve slot" 1 (Oid.to_int (Catalog.resolve_slot cat (oid 0) 0));
  Alcotest.(check int) "page count" 1 (Catalog.page_count cat (oid 0));
  Alcotest.(check bool) "acyclic" true (Catalog.validate_acyclic cat = Ok ());
  Alcotest.(check int) "depth" 2 (Catalog.max_invocation_depth cat);
  Alcotest.(check int) "total pages" 2 (Catalog.total_pages cat)

let test_catalog_cycle_detection () =
  let cat =
    Catalog.create
      [
        { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [| oid 1 |] };
        { Catalog.oid = oid 1; cls = compiled_parent "P2"; refs = [| oid 0 |] };
      ]
  in
  (match Catalog.validate_acyclic cat with
  | Ok () -> Alcotest.fail "expected a cycle"
  | Error cycle -> Alcotest.(check bool) "cycle nonempty" true (List.length cycle >= 2));
  Alcotest.check_raises "depth on cyclic"
    (Invalid_argument "Catalog.max_invocation_depth: catalog is cyclic") (fun () ->
      ignore (Catalog.max_invocation_depth cat))

let test_catalog_self_loop () =
  let cat =
    Catalog.create [ { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [| oid 0 |] } ]
  in
  match Catalog.validate_acyclic cat with
  | Ok () -> Alcotest.fail "self-loop must be cyclic"
  | Error cycle -> Alcotest.(check int) "self cycle" 1 (List.length cycle)

let test_catalog_validation () =
  Alcotest.check_raises "unknown ref"
    (Invalid_argument "Catalog.create: O0 references unknown O9") (fun () ->
      ignore
        (Catalog.create
           [ { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [| oid 9 |] } ]));
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Catalog.create: O0 has 0 refs, class P declares 1 slots") (fun () ->
      ignore (Catalog.create [ { Catalog.oid = oid 0; cls = compiled_parent "P"; refs = [||] } ]));
  let dup = { Catalog.oid = oid 0; cls = compiled_leaf "L"; refs = [||] } in
  Alcotest.check_raises "duplicate oid" (Invalid_argument "Catalog.create: duplicate O0")
    (fun () -> ignore (Catalog.create [ dup; dup ]))

let test_catalog_find_missing () =
  let cat = Catalog.create [ { Catalog.oid = oid 0; cls = compiled_leaf "L"; refs = [||] } ] in
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Catalog.find cat (oid 5)))

let tests =
  [
    ( "objmodel",
      [
        Alcotest.test_case "oid basics" `Quick test_oid_basics;
        Alcotest.test_case "attribute" `Quick test_attribute;
        Alcotest.test_case "layout offsets" `Quick test_layout_sequential_offsets;
        Alcotest.test_case "layout page spans" `Quick test_layout_page_spans;
        Alcotest.test_case "layout union" `Quick test_layout_union;
        Alcotest.test_case "layout empty object" `Quick test_layout_empty_object;
        Alcotest.test_case "layout bad page size" `Quick test_layout_bad_page_size;
        Alcotest.test_case "layout bad attr" `Quick test_layout_bad_attr;
        Alcotest.test_case "ir max_slot" `Quick test_ir_max_slot;
        Alcotest.test_case "ir statement count" `Quick test_ir_statement_count;
        Alcotest.test_case "interp then" `Quick test_interp_then_branch;
        Alcotest.test_case "interp else" `Quick test_interp_else_branch;
        Alcotest.test_case "interp choose prob" `Quick test_interp_choose_sees_probability;
        Alcotest.test_case "analysis unions" `Quick test_analysis_unions_branches;
        Alcotest.test_case "analysis read-only" `Quick test_analysis_read_only;
        Alcotest.test_case "analysis pages" `Quick test_analysis_pages;
        Alcotest.test_case "analysis attribute range" `Quick test_analysis_attr_range;
        QCheck_alcotest.to_alcotest qcheck_prediction_conservative;
        QCheck_alcotest.to_alcotest qcheck_analysis_matches_model;
        QCheck_alcotest.to_alcotest qcheck_pages_of_attrs_model;
        Alcotest.test_case "pages_of_attrs rejects unsorted" `Quick
          test_pages_of_attrs_rejects_unsorted;
        Alcotest.test_case "class compile" `Quick test_class_compile;
        Alcotest.test_case "class uncompiled" `Quick test_class_uncompiled;
        Alcotest.test_case "class duplicate method" `Quick test_class_duplicate_method;
        Alcotest.test_case "class slot validation" `Quick test_class_slot_validation;
        Alcotest.test_case "class missing method" `Quick test_class_missing_method;
        Alcotest.test_case "catalog basic" `Quick test_catalog_basic;
        Alcotest.test_case "catalog cycle" `Quick test_catalog_cycle_detection;
        Alcotest.test_case "catalog self loop" `Quick test_catalog_self_loop;
        Alcotest.test_case "catalog validation" `Quick test_catalog_validation;
        Alcotest.test_case "catalog find missing" `Quick test_catalog_find_missing;
      ] );
  ]
