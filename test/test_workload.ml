(* Tests for workload specification, generation, and scenario presets. *)

open Objmodel

let small_spec =
  { Workload.Spec.default with Workload.Spec.object_count = 10; root_count = 25; seed = 5 }

let test_spec_validation () =
  Alcotest.(check bool) "default valid" true (Workload.Spec.validate Workload.Spec.default = Ok ());
  let bad = { Workload.Spec.default with Workload.Spec.object_count = 0 } in
  Alcotest.(check bool) "zero objects invalid" true (Result.is_error (Workload.Spec.validate bad));
  let bad = { Workload.Spec.default with Workload.Spec.min_pages = 5; max_pages = 2 } in
  Alcotest.(check bool) "bad page range" true (Result.is_error (Workload.Spec.validate bad));
  let bad = { Workload.Spec.default with Workload.Spec.write_fraction = 1.5 } in
  Alcotest.(check bool) "fraction out of range" true (Result.is_error (Workload.Spec.validate bad))

let test_generate_shape () =
  let wl = Workload.Generator.generate small_spec ~page_size:4096 in
  Alcotest.(check int) "object count" 10 (Catalog.size wl.Workload.Generator.catalog);
  Alcotest.(check int) "root count" 25 (List.length wl.Workload.Generator.roots);
  Alcotest.(check bool) "acyclic" true
    (Catalog.validate_acyclic wl.Workload.Generator.catalog = Ok ())

let test_generate_page_sizes_in_range () =
  let spec = { small_spec with Workload.Spec.min_pages = 3; max_pages = 7 } in
  let wl = Workload.Generator.generate spec ~page_size:4096 in
  List.iter
    (fun o ->
      let pc = Catalog.page_count wl.Workload.Generator.catalog o in
      Alcotest.(check bool)
        (Format.asprintf "%a pages %d in [3,7]" Oid.pp o pc)
        true (pc >= 3 && pc <= 7))
    (Catalog.oids wl.Workload.Generator.catalog)

let test_generate_deterministic () =
  let w1 = Workload.Generator.generate small_spec ~page_size:4096 in
  let w2 = Workload.Generator.generate small_spec ~page_size:4096 in
  Alcotest.(check bool) "same roots" true
    (List.for_all2
       (fun (a : Workload.Generator.root_spec) (b : Workload.Generator.root_spec) ->
         a.at = b.at && a.node = b.node && Oid.equal a.oid b.oid && a.meth = b.meth
         && a.seed = b.seed)
       w1.Workload.Generator.roots w2.Workload.Generator.roots);
  (* Catalogs: same classes and refs. *)
  List.iter2
    (fun o1 o2 ->
      let i1 = Catalog.find w1.Workload.Generator.catalog o1 in
      let i2 = Catalog.find w2.Workload.Generator.catalog o2 in
      Alcotest.(check bool) "same refs" true (i1.Catalog.refs = i2.Catalog.refs);
      Alcotest.(check int) "same pages" (Obj_class.page_count i1.Catalog.cls)
        (Obj_class.page_count i2.Catalog.cls))
    (Catalog.oids w1.Workload.Generator.catalog)
    (Catalog.oids w2.Workload.Generator.catalog)

let test_generate_seed_changes_workload () =
  let w1 = Workload.Generator.generate small_spec ~page_size:4096 in
  let w2 =
    Workload.Generator.generate { small_spec with Workload.Spec.seed = 6 } ~page_size:4096
  in
  let sig_of (w : Workload.Generator.t) =
    List.map (fun (r : Workload.Generator.root_spec) -> (Oid.to_int r.oid, r.meth)) w.roots
  in
  Alcotest.(check bool) "different draws" true (sig_of w1 <> sig_of w2)

let test_roots_sorted_and_valid () =
  let wl = Workload.Generator.generate small_spec ~page_size:4096 in
  let rec check_sorted = function
    | (a : Workload.Generator.root_spec) :: (b : Workload.Generator.root_spec) :: rest ->
        Alcotest.(check bool) "ascending times" true (a.at <= b.at);
        check_sorted (b :: rest)
    | _ -> ()
  in
  check_sorted wl.Workload.Generator.roots;
  List.iter
    (fun (r : Workload.Generator.root_spec) ->
      Alcotest.(check bool) "node in range" true
        (r.node >= 0 && r.node < small_spec.Workload.Spec.node_count);
      (* Method exists on the class. *)
      ignore (Catalog.find_method wl.Workload.Generator.catalog r.oid r.meth))
    wl.Workload.Generator.roots

let test_methods_access_subsets () =
  (* The LOTEC premise: at least some methods must predict a strict subset
     of their object's pages. *)
  let spec = { small_spec with Workload.Spec.min_pages = 8; max_pages = 12 } in
  let wl = Workload.Generator.generate spec ~page_size:4096 in
  let strict_subset = ref 0 and total = ref 0 in
  List.iter
    (fun o ->
      let inst = Catalog.find wl.Workload.Generator.catalog o in
      let pages = Obj_class.page_count inst.Catalog.cls in
      List.iter
        (fun (m : Obj_class.compiled_method) ->
          incr total;
          if List.length m.Obj_class.page_summary.Access_analysis.access_pages < pages then
            incr strict_subset)
        (Obj_class.methods inst.Catalog.cls))
    (Catalog.oids wl.Workload.Generator.catalog);
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d methods are strict subsets" !strict_subset !total)
    true
    (float_of_int !strict_subset > 0.5 *. float_of_int !total)

let test_every_class_has_a_writer () =
  let wl = Workload.Generator.generate small_spec ~page_size:4096 in
  List.iter
    (fun o ->
      let inst = Catalog.find wl.Workload.Generator.catalog o in
      let m0 = Obj_class.find_method inst.Catalog.cls "m0" in
      Alcotest.(check bool) "m0 updates" true m0.Obj_class.summary.Access_analysis.updates)
    (Catalog.oids wl.Workload.Generator.catalog)

let test_scenarios_match_paper () =
  let check_spec name spec objs (lo, hi) =
    Alcotest.(check int) (name ^ " objects") objs spec.Workload.Spec.object_count;
    Alcotest.(check int) (name ^ " min pages") lo spec.Workload.Spec.min_pages;
    Alcotest.(check int) (name ^ " max pages") hi spec.Workload.Spec.max_pages;
    Alcotest.(check int) (name ^ " roots") 200 spec.Workload.Spec.root_count;
    Alcotest.(check bool) (name ^ " valid") true (Workload.Spec.validate spec = Ok ())
  in
  check_spec "fig2" Workload.Scenarios.medium_high 20 (1, 5);
  check_spec "fig3" Workload.Scenarios.large_high 20 (10, 20);
  check_spec "fig4" Workload.Scenarios.medium_moderate 100 (1, 5);
  check_spec "fig5" Workload.Scenarios.large_moderate 100 (10, 20);
  (* Four paper-figure scenarios, four web-serving presets, and the escrow
     bank workload. *)
  Alcotest.(check int) "all scenarios" 9 (List.length Workload.Scenarios.all);
  List.iter
    (fun (name, spec) ->
      Alcotest.(check bool) (name ^ " valid") true (Workload.Spec.validate spec = Ok ()))
    Workload.Scenarios.all

let test_scenario_overrides () =
  let s = Workload.Scenarios.spec ~seed:7 ~root_count:10 Workload.Scenarios.High Workload.Scenarios.Medium in
  Alcotest.(check int) "seed" 7 s.Workload.Spec.seed;
  Alcotest.(check int) "roots" 10 s.Workload.Spec.root_count

let test_access_skew () =
  (* With strong skew, low-numbered objects must receive most roots; with
     zero skew the distribution is roughly uniform. *)
  let count_targets skew =
    let spec =
      { small_spec with Workload.Spec.root_count = 400; access_skew = skew; seed = 99 }
    in
    let wl = Workload.Generator.generate spec ~page_size:4096 in
    let counts = Array.make 10 0 in
    List.iter
      (fun (r : Workload.Generator.root_spec) ->
        let i = Oid.to_int r.oid in
        counts.(i) <- counts.(i) + 1)
      wl.Workload.Generator.roots;
    counts
  in
  let skewed = count_targets 1.2 in
  let uniform = count_targets 0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "O0 hot under skew (%d vs %d)" skewed.(0) uniform.(0))
    true
    (skewed.(0) > 2 * uniform.(0));
  let top3 = skewed.(0) + skewed.(1) + skewed.(2) in
  Alcotest.(check bool) "top 3 objects dominate" true (top3 > 200);
  (* Zero skew keeps the historical draw sequence: generation stays
     deterministic and valid. *)
  Alcotest.(check int) "uniform total" 400 (Array.fold_left ( + ) 0 uniform);
  Alcotest.(check bool) "skew spec validates" true
    (Workload.Spec.validate { small_spec with Workload.Spec.access_skew = 1.2 } = Ok ());
  Alcotest.(check bool) "negative skew rejected" true
    (Result.is_error (Workload.Spec.validate { small_spec with Workload.Spec.access_skew = -1.0 }))

let test_skewed_workload_runs () =
  let spec = { small_spec with Workload.Spec.access_skew = 1.0 } in
  let wl = Workload.Generator.generate spec ~page_size:4096 in
  let run = Experiments.Runner.execute ~protocol:Dsm.Protocol.Lotec wl in
  Alcotest.(check int) "all committed" 25
    (Dsm.Metrics.totals (Experiments.Runner.metrics run)).Dsm.Metrics.roots_committed

let test_invalid_spec_rejected () =
  let bad = { small_spec with Workload.Spec.object_count = -1 } in
  Alcotest.check_raises "generate rejects"
    (Invalid_argument "Generator.generate: object_count must be positive") (fun () ->
      ignore (Workload.Generator.generate bad ~page_size:4096))

(* Every generated catalog and root stream of a fixed grid, by digest (see
   Catalog_golden): a change to the generator, the analysis or the layout
   that moves any name, size, offset, page list, summary or arrival time
   moves it. *)
let test_catalog_golden () =
  Alcotest.(check string) "catalog digest" Catalog_golden.expected (Catalog_golden.digest ())

let tests =
  [
    ( "workload",
      [
        Alcotest.test_case "spec validation" `Quick test_spec_validation;
        Alcotest.test_case "generate shape" `Quick test_generate_shape;
        Alcotest.test_case "page sizes in range" `Quick test_generate_page_sizes_in_range;
        Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
        Alcotest.test_case "seed changes workload" `Quick test_generate_seed_changes_workload;
        Alcotest.test_case "roots sorted and valid" `Quick test_roots_sorted_and_valid;
        Alcotest.test_case "methods access subsets" `Quick test_methods_access_subsets;
        Alcotest.test_case "every class has writer" `Quick test_every_class_has_a_writer;
        Alcotest.test_case "scenarios match paper" `Quick test_scenarios_match_paper;
        Alcotest.test_case "scenario overrides" `Quick test_scenario_overrides;
        Alcotest.test_case "access skew" `Quick test_access_skew;
        Alcotest.test_case "skewed workload runs" `Quick test_skewed_workload_runs;
        Alcotest.test_case "invalid spec rejected" `Quick test_invalid_spec_rejected;
        Alcotest.test_case "catalog golden" `Quick test_catalog_golden;
      ] );
  ]
