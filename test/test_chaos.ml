(* Chaos tests: the protocols under an unreliable interconnect, plus the
   regression guarantees of the fault layer — a fault-free run is
   byte-identical to the reliable network, and any faulty run is exactly
   reproducible from its seeds. *)

let golden_spec =
  {
    (Workload.Scenarios.spec Workload.Scenarios.High Workload.Scenarios.Medium) with
    Workload.Spec.root_count = 40;
    seed = 42;
  }

(* Golden numbers captured from the fault-free simulator before the fault
   layer existed (medium-high scenario, 40 roots, seed 42, default config).
   Any drift here means the fault machinery leaked into the reliable path. *)
let goldens =
  [
    (Dsm.Protocol.Cotec, (484, 1_169_012, 1_119_040, 25968.873648));
    (Dsm.Protocol.Otec, (419, 956_560, 911_040, 20047.449955));
    (Dsm.Protocol.Lotec, (370, 731_252, 690_560, 19580.172744));
  ]

let test_fault_free_matches_golden () =
  let wl = Workload.Generator.generate golden_spec ~page_size:4096 in
  List.iter
    (fun (protocol, (messages, bytes, data_bytes, completion)) ->
      let name = Format.asprintf "%a" Dsm.Protocol.pp protocol in
      let m = Experiments.Runner.metrics (Experiments.Runner.execute ~protocol wl) in
      let t = Dsm.Metrics.totals m in
      Alcotest.(check int) (name ^ " messages") messages (Dsm.Metrics.total_messages m);
      Alcotest.(check int) (name ^ " bytes") bytes (Dsm.Metrics.total_bytes m);
      Alcotest.(check int) (name ^ " data bytes") data_bytes (Dsm.Metrics.total_data_bytes m);
      Alcotest.(check (float 1e-6)) (name ^ " completion") completion
        (Dsm.Metrics.completion_time_us m);
      Alcotest.(check int) (name ^ " committed") 40 t.Dsm.Metrics.roots_committed;
      Alcotest.(check int) (name ^ " no drops") 0 t.Dsm.Metrics.drops;
      Alcotest.(check int) (name ^ " no retransmits") 0 t.Dsm.Metrics.retransmits)
    goldens

(* An inactive fault config must take the exact fault-free code path. *)
let test_inactive_config_is_noop () =
  let wl = Workload.Generator.generate golden_spec ~page_size:4096 in
  let config =
    { Core.Config.default with Core.Config.faults = Some Sim.Fault.none }
  in
  let m =
    Experiments.Runner.metrics
      (Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl)
  in
  Alcotest.(check int) "messages" 370 (Dsm.Metrics.total_messages m);
  Alcotest.(check (float 1e-6)) "completion" 19580.172744 (Dsm.Metrics.completion_time_us m)

let chaos_spec =
  {
    Experiments.Chaos.default_spec with
    Workload.Spec.object_count = 8;
    root_count = 15;
    node_count = 4;
  }

let faulty_config ?(windows = []) ~fault_seed ~drop ~dup ~jitter () =
  {
    Core.Config.default with
    Core.Config.faults =
      Some
        {
          Sim.Fault.seed = fault_seed;
          drop_probability = drop;
          duplicate_probability = dup;
          delay_jitter_us = jitter;
          windows;
          link_windows = [];
        };
    trace_capacity = 200_000;
  }

let run_traced config protocol =
  let wl = Workload.Generator.generate chaos_spec ~page_size:4096 in
  let run = Experiments.Runner.execute ~config ~protocol wl in
  let m = Experiments.Runner.metrics run in
  let events =
    match Core.Runtime.trace run.Experiments.Runner.runtime with
    | Some tr -> Sim.Trace.events tr
    | None -> Alcotest.fail "tracing was enabled but absent"
  in
  (run, m, events)

(* Two runs with identical workload + fault seeds must produce identical
   event streams — fault injection is deterministic, not merely statistically
   similar. *)
let test_faulty_run_deterministic () =
  let config = faulty_config ~fault_seed:13 ~drop:0.1 ~dup:0.1 ~jitter:50.0 () in
  let _, m1, ev1 = run_traced config Dsm.Protocol.Lotec in
  let _, m2, ev2 = run_traced config Dsm.Protocol.Lotec in
  Alcotest.(check int) "same event count" (List.length ev1) (List.length ev2);
  List.iter2
    (fun (a : Dsm.Event.t Sim.Trace.entry) (b : Dsm.Event.t Sim.Trace.entry) ->
      if a <> b then
        Alcotest.failf "trace diverged: [%f] %s vs [%f] %s" a.Sim.Trace.time
          (Format.asprintf "%a" Dsm.Event.pp a.Sim.Trace.data)
          b.Sim.Trace.time
          (Format.asprintf "%a" Dsm.Event.pp b.Sim.Trace.data))
    ev1 ev2;
  Alcotest.(check int) "same traffic" (Dsm.Metrics.total_messages m1)
    (Dsm.Metrics.total_messages m2);
  Alcotest.(check (float 0.0)) "same completion" (Dsm.Metrics.completion_time_us m1)
    (Dsm.Metrics.completion_time_us m2);
  (* A different fault seed must actually perturb the run. *)
  let config' = faulty_config ~fault_seed:14 ~drop:0.1 ~dup:0.1 ~jitter:50.0 () in
  let _, _, ev3 = run_traced config' Dsm.Protocol.Lotec in
  Alcotest.(check bool) "different seed diverges" true (ev1 <> ev3)

(* The chaos suite over rates x seeds x all three paper protocols. Every
   run passes the shared oracle, so an error row fails the test. *)
let test_sweep_invariants () =
  let rows =
    Experiments.Suite.run
      {
        Experiments.Chaos.chaos with
        Experiments.Suite.spec = chaos_spec;
        cases =
          Experiments.Chaos.rate_cases ~fault_seeds:[ 1; 2 ]
            [ (0.0, 0.0, 0.0); (0.1, 0.1, 50.0); (0.2, 0.2, 100.0) ];
      }
  in
  (* 3 protocols x (1 fault-free + 2 rates x 2 seeds) = 15 cases. *)
  Alcotest.(check int) "case count" 15 (List.length rows);
  List.iter
    (fun (r : Experiments.Suite.row) ->
      let get = Experiments.Suite.get r in
      Alcotest.(check (float 0.0))
        (Format.asprintf "%a all roots" Dsm.Protocol.pp r.Experiments.Suite.protocol)
        (float_of_int chaos_spec.Workload.Spec.root_count)
        (get "roots_committed" +. get "roots_aborted");
      if Experiments.Suite.label r "drop" = "0.00" then
        Alcotest.(check (float 0.0)) "fault-free case clean" 0.0
          (get "drops" +. get "duplicates" +. get "retransmits")
      else Alcotest.(check bool) "faults actually injected" true (get "drops" > 0.0))
    rows

(* Node pause and crash-restart windows in the middle of a full run: the
   transport retransmits into the outage and the run still completes. *)
let test_windows_survived () =
  let windows =
    [
      { Sim.Fault.w_node = 1; w_kind = Sim.Fault.Pause; w_from_us = 2_000.0; w_until_us = 6_000.0 };
      { Sim.Fault.w_node = 2; w_kind = Sim.Fault.Crash; w_from_us = 3_000.0; w_until_us = 9_000.0 };
    ]
  in
  let config = faulty_config ~windows ~fault_seed:5 ~drop:0.0 ~dup:0.0 ~jitter:0.0 () in
  let run, m, _ = run_traced config Dsm.Protocol.Lotec in
  let t = Dsm.Metrics.totals m in
  Alcotest.(check int) "all roots accounted" chaos_spec.Workload.Spec.root_count
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  Alcotest.(check (list string)) "oracle clean (ledger balanced)" []
    (Experiments.Runner.oracle run);
  (* The crash window must have cost something: losses then retransmits. *)
  Alcotest.(check bool) "crash losses recovered" true (t.Dsm.Metrics.retransmits > 0)

(* QCheck property: for arbitrary small fault rates and seeds, every
   protocol passes the shared oracle (serializability, root accounting,
   ledger balance, drained simulation). *)
let prop_chaos_invariants =
  let gen =
    QCheck2.Gen.(
      quad (int_range 1 1000) (float_bound_inclusive 0.2) (float_bound_inclusive 0.2)
        (float_bound_inclusive 100.0))
  in
  let protocols = Dsm.Protocol.[ Cotec; Otec; Lotec ] in
  QCheck2.Test.make ~name:"chaos invariants hold for rates <= 0.2" ~count:12 gen
    (fun (fault_seed, drop, duplicate, jitter_us) ->
      let config =
        {
          Core.Config.default with
          Core.Config.faults =
            Experiments.Chaos.fault_config ~drop ~duplicate ~jitter_us ~fault_seed;
        }
      in
      let wl = Workload.Generator.generate chaos_spec ~page_size:4096 in
      List.for_all
        (fun protocol ->
          let t =
            Dsm.Metrics.totals
              (Experiments.Runner.metrics (Experiments.Runner.execute ~config ~protocol wl))
          in
          t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted
          = chaos_spec.Workload.Spec.root_count)
        protocols)

(* A page fetch whose request or reply the transport abandons aborts the
   family on every lossy run, crash windows or not: the family must not
   go on without its pages. Under COTEC/OTEC the missing page would trip
   the stale-page invariant, under LOTEC a serializability cycle. Every
   run passes the shared oracle. *)
let test_abandoned_fetch_aborts () =
  let run ~roots ~drop ~max_retransmits ~fault_seed protocol =
    let config =
      {
        Core.Config.default with
        Core.Config.faults =
          Experiments.Chaos.fault_config ~drop ~duplicate:0.0 ~jitter_us:0.0 ~fault_seed;
        max_retransmits;
      }
    in
    let spec = { Workload.Scenarios.medium_high with Workload.Spec.root_count = roots } in
    let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
    match Experiments.Runner.execute ~config ~protocol wl with
    | _ -> ()
    | exception e ->
        Alcotest.failf "%a, %d roots, drop %.1f, %d retransmits, fault seed %d: %s"
          Dsm.Protocol.pp protocol roots drop max_retransmits fault_seed (Printexc.to_string e)
  in
  List.iter
    (fun protocol ->
      run ~roots:3 ~drop:0.5 ~max_retransmits:0 ~fault_seed:1 protocol;
      for fault_seed = 1 to 8 do
        run ~roots:20 ~drop:0.3 ~max_retransmits:1 ~fault_seed protocol
      done)
    Dsm.Protocol.[ Cotec; Otec; Lotec ]

let tests =
  [
    ( "chaos",
      [
        Alcotest.test_case "fault-free matches golden" `Quick test_fault_free_matches_golden;
        Alcotest.test_case "inactive config is noop" `Quick test_inactive_config_is_noop;
        Alcotest.test_case "faulty run deterministic" `Quick test_faulty_run_deterministic;
        Alcotest.test_case "sweep invariants" `Quick test_sweep_invariants;
        Alcotest.test_case "pause and crash windows" `Quick test_windows_survived;
        Alcotest.test_case "abandoned fetch aborts the family" `Quick test_abandoned_fetch_aborts;
        QCheck_alcotest.to_alcotest prop_chaos_invariants;
      ] );
  ]
