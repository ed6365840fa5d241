(* The shared oracle and the suite artefacts: each oracle clause names
   itself when a finished run's metrics are tampered with, and every
   committed BENCH_*.json artefact (all but the host-dependent
   BENCH_engine.json) is exactly what the code produces today. *)

(* ---------- oracle clauses ---------- *)

let small_run () =
  let spec = { Workload.Scenarios.medium_high with Workload.Spec.root_count = 10; seed = 42 } in
  let wl = Workload.Generator.generate spec ~page_size:4096 in
  Experiments.Runner.execute ~protocol:Dsm.Protocol.Lotec wl

(* Fault-free, every lever off: tamper with the finished run's ledger and
   collect the names of the clauses the oracle reports. *)
let broken_clauses tamper =
  let run = small_run () in
  Alcotest.(check (list string)) "clean before tampering" [] (Experiments.Runner.oracle run);
  tamper (Experiments.Runner.metrics run);
  List.map
    (fun v -> String.sub v 0 (String.index v ':'))
    (Experiments.Runner.oracle run)

let clause name tamper =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string)) "broken clauses" [ name ] (broken_clauses tamper))

(* ---------- artefacts ---------- *)

let artefact file regenerate =
  Alcotest.test_case file `Quick (fun () ->
      let committed = In_channel.with_open_bin ("../" ^ file) In_channel.input_all in
      if regenerate () <> committed then
        Alcotest.failf
          "%s is stale: regenerate it (suites: make suite-NAME; BENCH_trace.json: make bench)"
          file)

let tests =
  [
    ( "oracle",
      [
        clause "fault hygiene" Dsm.Metrics.incr_drops;
        clause "lease hygiene" Dsm.Metrics.incr_lease_hits;
        clause "wire reconciliation" (fun m ->
            Dsm.Metrics.record_wire m ~mtype:Dsm.Wire.Grant ~bytes:64);
        clause "root accounting" Dsm.Metrics.incr_roots_committed;
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
