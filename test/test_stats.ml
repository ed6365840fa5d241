(* Tests for the descriptive-statistics helpers and the granularity
   suite. *)

let test_mean () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Experiments.Stats.mean []);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Experiments.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_stddev () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Experiments.Stats.stddev []);
  Alcotest.(check (float 1e-9)) "singleton" 0.0 (Experiments.Stats.stddev [ 5.0 ]);
  Alcotest.(check (float 1e-6)) "known" 2.0 (Experiments.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Experiments.Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Experiments.Stats.percentile 95.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Experiments.Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 1.0 (Experiments.Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "unsorted input" 50.0
    (Experiments.Stats.percentile 50.0 (List.rev xs));
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Experiments.Stats.percentile 50.0 []);
  Alcotest.check_raises "out of range" (Invalid_argument "Stats.percentile: p out of [0,100]")
    (fun () -> ignore (Experiments.Stats.percentile 120.0 xs))

let test_median () =
  Alcotest.(check (float 1e-9)) "median" 2.0 (Experiments.Stats.median [ 3.0; 1.0; 2.0 ])

let test_root_latencies () =
  let catalog =
    Objmodel.Catalog.create
      [
        {
          Objmodel.Catalog.oid = Objmodel.Oid.of_int 0;
          cls =
            Objmodel.Obj_class.compile ~page_size:4096
              (Objmodel.Obj_class.define ~name:"K"
                 ~attrs:[| Objmodel.Attribute.make ~name:"x" ~size_bytes:64 |]
                 ~methods:[ Objmodel.Method_ir.make ~name:"m" ~body:[ Objmodel.Method_ir.Write 0 ] ]
                 ~ref_slots:0);
          refs = [||];
        };
      ]
  in
  let rt = Core.Runtime.create ~config:Core.Config.default ~catalog in
  Core.Runtime.submit rt ~at:0.0 ~node:0 ~oid:(Objmodel.Oid.of_int 0) ~meth:"m" ~seed:1;
  Core.Runtime.submit rt ~at:100.0 ~node:1 ~oid:(Objmodel.Oid.of_int 0) ~meth:"m" ~seed:2;
  Core.Runtime.run rt;
  let lats = Experiments.Stats.root_latencies rt in
  Alcotest.(check int) "two latencies" 2 (List.length lats);
  List.iter (fun l -> Alcotest.(check bool) "positive" true (l > 0.0)) lats

let test_granularity_experiment () =
  (* The granularity suite over 48 shared pages and 60 roots, cut into
     2-page and 8-page objects. *)
  let case pages =
    Experiments.Suite.case
      [ ("objects", string_of_int (48 / pages)); ("pages_per_object", string_of_int pages) ]
      ~workload:(fun s ->
        { s with Workload.Spec.object_count = 48 / pages; min_pages = pages; max_pages = pages })
  in
  let g = Experiments.Paper.granularity in
  let suite =
    {
      g with
      Experiments.Suite.spec = { g.Experiments.Suite.spec with Workload.Spec.root_count = 60 };
      cases = [ case 2; case 8 ];
    }
  in
  let rows = Experiments.Suite.run suite in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  (match rows with
  | [ fine; coarse ] ->
      Alcotest.(check string) "fine objects" "24" (Experiments.Suite.label fine "objects");
      Alcotest.(check string) "coarse objects" "6" (Experiments.Suite.label coarse "objects");
      (* The §5.1 claim: coarser granularity -> fewer global lock ops. *)
      let locks r = Experiments.Suite.get r "global_acquisitions" in
      Alcotest.(check bool)
        (Printf.sprintf "coarse locks (%.0f) < fine locks (%.0f)" (locks coarse) (locks fine))
        true
        (locks coarse < locks fine)
  | _ -> Alcotest.fail "rows");
  let s = Format.asprintf "%a" Experiments.Suite.pp_report (suite, rows) in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let tests =
  [
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "median" `Quick test_median;
        Alcotest.test_case "root latencies" `Quick test_root_latencies;
        Alcotest.test_case "granularity experiment" `Slow test_granularity_experiment;
      ] );
  ]
