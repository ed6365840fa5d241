(* The shared oracle, the suite mechanisms and the suite artefacts: each
   oracle clause names itself when a finished run's metrics (or a page
   copy) are tampered with; report-only and blocking gates, peer rows and
   per-object columns behave as documented; and every committed
   BENCH_*.json artefact is valid JSON and exactly what the code produces
   today. *)

(* ---------- oracle clauses ---------- *)

let small_run () =
  let spec = { Workload.Scenarios.medium_high with Workload.Spec.root_count = 10; seed = 42 } in
  let wl = Workload.Generator.generate spec ~page_size:4096 in
  Experiments.Runner.execute ~protocol:Dsm.Protocol.Lotec wl

(* Fault-free, every lever off: tamper with the finished run and collect
   the names of the clauses the oracle reports. *)
let broken_clauses tamper =
  let run = small_run () in
  Alcotest.(check (list string)) "clean before tampering" [] (Experiments.Runner.oracle run);
  tamper run;
  List.map
    (fun v -> String.sub v 0 (String.index v ':'))
    (Experiments.Runner.oracle run)

let run_clause name tamper =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string)) "broken clauses" [ name ] (broken_clauses tamper))

(* Most clauses read the metrics ledger. *)
let clause name tamper = run_clause name (fun run -> tamper (Experiments.Runner.metrics run))

(* Overwrite a written page's copy at its map holder with an older version,
   as if the committed version had been lost. *)
let roll_back_holder run =
  let rt = run.Experiments.Runner.runtime in
  let dir = Core.Runtime.directory rt in
  let written =
    List.find_map
      (fun oid ->
        let nodes, versions = Gdo.Directory.page_map dir oid in
        Array.to_list versions
        |> List.mapi (fun page v -> (page, v))
        |> List.find_map (fun (page, v) ->
               if v > 0 then Some (oid, page, nodes.(page), v) else None))
      (Objmodel.Catalog.oids (Core.Runtime.catalog rt))
  in
  match written with
  | None -> Alcotest.fail "the run wrote no page"
  | Some (oid, page, node, v) ->
      Dsm.Page_store.restore (Core.Runtime.store rt ~node) oid ~page ~version:(v - 1)

(* ---------- suite mechanisms ---------- *)

(* LOTEC and OTEC over two sizes of a tiny workload; the label carries a
   non-ASCII byte sequence on purpose. *)
let tiny gates =
  let roots n =
    Experiments.Suite.case
      [ ("roots", string_of_int n); ("unit", "100 \194\181s") ]
      ~workload:(fun s -> { s with Workload.Spec.root_count = n })
  in
  {
    Experiments.Suite.name = "tiny";
    protocols = Dsm.Protocol.[ Otec; Lotec ];
    spec = { Workload.Scenarios.medium_high with Workload.Spec.seed = 42 };
    cases = [ roots 5; roots 10 ];
    arms = Experiments.Suite.default_arm;
    columns = Experiments.Suite.[ total_bytes; bytes_per_object ];
    gates;
  }

let tiny_rows = lazy (Experiments.Suite.run (tiny []))

let bytes_gate ?report_only bound =
  (* LOTEC's bytes at 10 roots, read through a peer row of another case. *)
  Experiments.Suite.gate ?report_only "LOTEC bytes at 10 roots"
    ~select:(Experiments.Suite.matches ~protocol:Dsm.Protocol.Lotec ~case:[ ("roots", "5") ])
    ~metric:(fun ~peer _ -> Experiments.Suite.get (peer ~case:[ ("roots", "10") ] ()) "total_bytes")
    bound

let verdicts gate =
  let suite = tiny [ gate ] in
  let rows = Lazy.force tiny_rows in
  (Experiments.Suite.passed suite rows, Experiments.Suite.to_json suite rows)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_report_only_out () =
  let passed, json = verdicts (bytes_gate ~report_only:true (Between (0.0, 1.0))) in
  Alcotest.(check bool) "out of band, still passed" true passed;
  Alcotest.(check bool) "written as out" true
    (contains json "\"blocking\": false, \"pass\": false")

let test_blocking_miss () =
  let passed, json = verdicts (bytes_gate (At_most 1.0)) in
  Alcotest.(check bool) "blocking miss fails the suite" false passed;
  Alcotest.(check bool) "written as a miss" true
    (contains json "\"blocking\": true, \"pass\": false");
  let lotec_10 =
    List.find
      (Experiments.Suite.matches ~protocol:Dsm.Protocol.Lotec ~case:[ ("roots", "10") ])
      (Lazy.force tiny_rows)
  in
  let passed, _ =
    verdicts (bytes_gate (At_least (Experiments.Suite.get lotec_10 "total_bytes")))
  in
  Alcotest.(check bool) "the peer row's value meets its own bound" true passed

let test_per_object_json () =
  let suite = tiny [] in
  let rows = Lazy.force tiny_rows in
  let json = Experiments.Suite.to_json suite rows in
  Alcotest.(check (result unit string)) "valid JSON" (Ok ()) (Dsm.Trace_export.validate_json json);
  Alcotest.(check bool) "per-object object" true (contains json "\"bytes_per_object\": {\"O0\": ");
  Alcotest.(check bool) "UTF-8 label kept" true (contains json "\"unit\": \"100 \194\181s\"");
  let row = List.hd rows in
  (match List.assoc "bytes_per_object" (Result.get_ok row.Experiments.Suite.values) with
  | Experiments.Suite.Per_object counts ->
      Alcotest.(check int) "one entry per object" 20 (List.length counts);
      Alcotest.(check bool) "counts sum within the total" true
        (float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 counts)
        <= Experiments.Suite.get row "total_bytes")
  | _ -> Alcotest.fail "not per-object");
  Alcotest.check_raises "no scalar view"
    (Invalid_argument "Suite.get: bytes_per_object is a per-object column") (fun () ->
      ignore (Experiments.Suite.get row "bytes_per_object"))

(* ---------- artefacts ---------- *)

let artefact file regenerate =
  Alcotest.test_case file `Quick (fun () ->
      let committed = In_channel.with_open_bin ("../" ^ file) In_channel.input_all in
      (match Dsm.Trace_export.validate_json committed with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s is not valid JSON: %s" file e);
      if regenerate () <> committed then
        Alcotest.failf
          "%s is stale: regenerate it (suites: make suite-NAME; BENCH_trace.json: make bench)"
          file)

let tests =
  [
    ( "oracle",
      [
        clause "fault hygiene" (fun m ->
            let c = Dsm.Metrics.counters m in
            c.drops <- c.drops + 1);
        clause "lease hygiene" (fun m ->
            let c = Dsm.Metrics.counters m in
            c.lease_hits <- c.lease_hits + 1);
        clause "wire reconciliation" (fun m ->
            Dsm.Metrics.record_wire m ~mtype:Dsm.Wire.Grant ~bytes:64);
        clause "root accounting" Dsm.Metrics.incr_roots_committed;
        run_clause "map holder" roll_back_holder;
      ] );
    ( "suite",
      [
        Alcotest.test_case "report-only gate out passes" `Quick test_report_only_out;
        Alcotest.test_case "blocking gate miss fails" `Quick test_blocking_miss;
        Alcotest.test_case "per-object column json" `Quick test_per_object_json;
      ] );
    ( "artefacts",
      List.map
        (fun (suite : Experiments.Suite.t) ->
          artefact
            ("BENCH_" ^ suite.Experiments.Suite.name ^ ".json")
            (fun () -> Experiments.Suite.to_json suite (Experiments.Suite.run suite)))
        Experiments.Suites.all
      @ [
          artefact "BENCH_trace.json" (fun () ->
              Experiments.Msg_breakdown.to_json (Experiments.Msg_breakdown.run ()));
        ] );
  ]
