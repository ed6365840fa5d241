(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (§5) and times the simulator with Bechamel.

   Part 1 — reproduction (full scale): Figures 2-5 (bytes per shared object,
   3 protocols x 4 scenarios), Figures 6-8 (consistency time vs per-message
   software cost at 10 Mbps / 100 Mbps / 1 Gbps), the §5 headline ratio
   table, and the two future-work ablations (RC-nested, optimistic
   pre-acquisition).

   Part 2 — performance: one Bechamel Test.make per figure (reduced root
   count so each measurement iteration is sub-second), reporting the wall
   time to execute one simulated cluster run. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's numbers.                                        *)

let reproduce () =
  Format.printf "==================================================================@.";
  Format.printf "LOTEC reproduction: paper figures (PODC '99, section 5)@.";
  Format.printf "==================================================================@.@.";
  let figures, summary = Experiments.Summary.run_all () in
  List.iter (fun fb -> Format.printf "%a@." Experiments.Fig_bytes.pp fb) figures;
  (* One figure rendered the way the paper plots it. *)
  Format.printf "%a@."
    (Experiments.Fig_bytes.pp_chart ~objects:6)
    (List.hd figures);
  let fig2 = List.hd figures in
  Format.printf "%a@." Experiments.Fig_time.pp (Experiments.Fig_time.figure6 fig2);
  Format.printf "%a@." Experiments.Fig_time.pp (Experiments.Fig_time.figure7 fig2);
  Format.printf "%a@." Experiments.Fig_time.pp (Experiments.Fig_time.figure8 fig2);
  Format.printf
    "headline ratios (paper: OTEC 20-25%% below COTEC; LOTEC 5-10%% below OTEC;@.\
     \"in some cases, the difference is more dramatic\"):@.%a@."
    Experiments.Summary.pp summary;
  Format.printf "%a@." Experiments.Ablation.pp (Experiments.Ablation.rc_comparison ());
  Format.printf "%a@." Experiments.Ablation.pp (Experiments.Ablation.prefetch_comparison ());
  Format.printf "%a@." Experiments.Ablation.pp (Experiments.Ablation.per_class_comparison ());
  Format.printf "%a@." Experiments.Ablation.pp (Experiments.Ablation.replication_comparison ());
  Format.printf "%a@." Experiments.Granularity.pp (Experiments.Granularity.run ());
  Format.printf "%a@." Experiments.Active_messages.pp (Experiments.Active_messages.run ());
  List.iter
    (fun r -> Format.printf "%a@." Experiments.Sweep.pp r)
    (Experiments.Sweep.run_all ());
  Format.printf "%a@." Experiments.Throughput.pp (Experiments.Throughput.protocols ());
  Format.printf "%a@." Experiments.Throughput.pp (Experiments.Throughput.scaling ())

(* Every sweep below persists its results as a BENCH_*.json artefact. An
   entry that silently writes nothing (or an empty array) would turn the
   perf trajectory into a gap nobody notices until a regression needs the
   history — so writing is fatal-on-empty, and main() re-checks that every
   expected artefact exists and is non-empty after the entries ran. *)
let write_artifact file contents =
  if String.trim contents = "" || String.trim contents = "[\n\n]" then begin
    Format.eprintf "FATAL: bench entry wrote no data for %s@." file;
    exit 1
  end;
  let oc = open_out file in
  output_string oc contents;
  close_out oc;
  Format.printf "wrote %s (%d bytes)@.@." file (String.length contents)

(* Per-message-type traffic breakdown (COTEC vs OTEC vs LOTEC on the
   default scenario), printed and written as BENCH_trace.json: the
   machine-readable record of the messages-vs-bytes tradeoff per wire
   message type (see OBSERVABILITY.md). *)
let trace_json_file = "BENCH_trace.json"

let msg_breakdown () =
  Format.printf "==================================================================@.";
  Format.printf "Wire-message breakdown: messages vs bytes per message type@.";
  Format.printf "==================================================================@.@.";
  let rows = Experiments.Msg_breakdown.run () in
  Format.printf "%a@." Experiments.Msg_breakdown.pp_report rows;
  write_artifact trace_json_file (Experiments.Msg_breakdown.to_json rows)

(* Every feature suite (chaos, crash, partition, lease, cache, batch, ship,
   escrow — see Experiments.Suites), printed with its gate verdicts and
   written as BENCH_<name>.json: the machine-readable record of each lever
   against its baseline across revisions. Error rows and gate misses are
   reported, not fatal here — `lotec_sim suite NAME` is the gate. *)
let suite_json_file (suite : Experiments.Suite.t) =
  "BENCH_" ^ suite.Experiments.Suite.name ^ ".json"

let suites () =
  List.iter
    (fun (suite : Experiments.Suite.t) ->
      Format.printf "==================================================================@.";
      Format.printf "Suite %s@." suite.Experiments.Suite.name;
      Format.printf "==================================================================@.@.";
      let rows = Experiments.Suite.run suite in
      Format.printf "%a@." Experiments.Suite.pp_report (suite, rows);
      write_artifact (suite_json_file suite) (Experiments.Suite.to_json suite rows))
    Experiments.Suites.all

(* The engine micro-benchmark (flat event pool vs the recorded
   pre-refactor baseline) plus the 100k-root scale point per protocol
   (streaming metrics), written as BENCH_engine.json: the
   machine-readable record of raw simulator speed across revisions (see
   EXPERIMENTS.md, "Scale"). The full 100k/300k/1M default sweep is
   `make scale` — the 1M x 256 points alone take several minutes each,
   too slow for the everything-bench. *)
let engine_json_file = "BENCH_engine.json"

let bench_scale_points = [ (100_000, 64) ]

let engine_scale () =
  Format.printf "==================================================================@.";
  Format.printf "Engine speed: event-pool micro-benchmark + scale sweep@.";
  Format.printf "==================================================================@.@.";
  let bench = Experiments.Scale.engine_bench () in
  Format.printf "%a@." Experiments.Scale.pp_bench bench;
  let progress (r : Experiments.Scale.scale_row) =
    Format.printf "  %-9s %8d roots x %3d nodes: %6.2f s wall, %8.0f events/sec@."
      (Format.asprintf "%a" Dsm.Protocol.pp r.Experiments.Scale.s_protocol)
      r.Experiments.Scale.s_roots r.Experiments.Scale.s_nodes
      r.Experiments.Scale.s_profile.Experiments.Scale.wall_s
      r.Experiments.Scale.s_profile.Experiments.Scale.events_per_sec
  in
  let scale = Experiments.Scale.sweep ~points:bench_scale_points ~progress () in
  Format.printf "@.%a@." Experiments.Scale.pp_sweep scale;
  write_artifact engine_json_file (Experiments.Scale.to_json ~bench ~scale ())

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timing of the simulator itself.                    *)

let bench_scenario spec ~protocol =
  let spec = { spec with Workload.Spec.root_count = 40 } in
  let wl = Workload.Generator.generate spec ~page_size:4096 in
  fun () -> ignore (Experiments.Runner.execute ~protocol wl)

(* Same run under an unreliable interconnect: times the fault injector plus
   the reliable transport (acks, dedup, retransmit timers). *)
let bench_chaos spec ~protocol =
  let spec = { spec with Workload.Spec.root_count = 40 } in
  let wl = Workload.Generator.generate spec ~page_size:4096 in
  let faults =
    {
      Sim.Fault.none with
      Sim.Fault.seed = 7;
      drop_probability = 0.05;
      duplicate_probability = 0.05;
      delay_jitter_us = 25.0;
    }
  in
  let config = { Core.Config.default with Core.Config.faults = Some faults } in
  fun () -> ignore (Experiments.Runner.execute ~config ~protocol wl)

let fig2_spec = Workload.Scenarios.medium_high
let fig3_spec = Workload.Scenarios.large_high
let fig4_spec = Workload.Scenarios.medium_moderate
let fig5_spec = Workload.Scenarios.large_moderate

let tests =
  Test.make_grouped ~name:"lotec" ~fmt:"%s %s"
    [
      Test.make ~name:"fig2-lotec"
        (Staged.stage (bench_scenario fig2_spec ~protocol:Dsm.Protocol.Lotec));
      Test.make ~name:"fig2-otec"
        (Staged.stage (bench_scenario fig2_spec ~protocol:Dsm.Protocol.Otec));
      Test.make ~name:"fig2-cotec"
        (Staged.stage (bench_scenario fig2_spec ~protocol:Dsm.Protocol.Cotec));
      Test.make ~name:"fig3-lotec"
        (Staged.stage (bench_scenario fig3_spec ~protocol:Dsm.Protocol.Lotec));
      Test.make ~name:"fig4-lotec"
        (Staged.stage (bench_scenario fig4_spec ~protocol:Dsm.Protocol.Lotec));
      Test.make ~name:"fig5-lotec"
        (Staged.stage (bench_scenario fig5_spec ~protocol:Dsm.Protocol.Lotec));
      Test.make ~name:"fig6-8-replay"
        (Staged.stage
           (let fb =
              Experiments.Fig_bytes.run ~name:"bench"
                { fig2_spec with Workload.Spec.root_count = 40 }
            in
            fun () ->
              ignore (Experiments.Fig_time.figure6 fb);
              ignore (Experiments.Fig_time.figure7 fb);
              ignore (Experiments.Fig_time.figure8 fb)));
      Test.make ~name:"rc-nested"
        (Staged.stage (bench_scenario fig2_spec ~protocol:Dsm.Protocol.Rc_nested));
      Test.make ~name:"fig2-lotec-chaos"
        (Staged.stage (bench_chaos fig2_spec ~protocol:Dsm.Protocol.Lotec));
      Test.make ~name:"crash-lotec"
        (Staged.stage
           (let wl = Workload.Generator.generate Experiments.Chaos.default_spec ~page_size:4096 in
            let config =
              Experiments.Chaos.tight_timers
                {
                  Core.Config.default with
                  Core.Config.faults =
                    Some (Experiments.Chaos.crash_faults ~fault_seed:1 [ (2, 3_000.0, 9_000.0) ]);
                  gdo_replicas = 1;
                }
            in
            fun () ->
              ignore (Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl)));
      Test.make ~name:"lease-lotec"
        (Staged.stage
           (let spec =
              { Experiments.Lease.default_spec with Workload.Spec.root_count = 40 }
            in
            let wl = Workload.Generator.generate spec ~page_size:4096 in
            let config =
              { Core.Config.default with Core.Config.lease = Experiments.Lease.default_policy }
            in
            fun () ->
              ignore (Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl)));
      Test.make ~name:"cache-lotec"
        (Staged.stage
           (let spec =
              { Workload.Scenarios.web_sessions with Workload.Spec.root_count = 40 }
            in
            let wl = Workload.Generator.generate spec ~page_size:4096 in
            let config =
              {
                Core.Config.default with
                Core.Config.lease = Experiments.Method_cache.default_lease;
                method_cache = Experiments.Method_cache.default_policy;
              }
            in
            fun () ->
              ignore (Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl)));
      Test.make ~name:"batch-lotec"
        (Staged.stage
           (let spec =
              { Experiments.Batching.default_spec with Workload.Spec.root_count = 40 }
            in
            let wl = Workload.Generator.generate spec ~page_size:4096 in
            let config =
              {
                Core.Config.default with
                Core.Config.batching = Dsm.Batching.all;
                faults = Some Experiments.Batching.default_faults;
              }
            in
            fun () ->
              ignore (Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl)));
      Test.make ~name:"escrow-lotec"
        (Staged.stage
           (let spec =
              {
                (Experiments.Escrow.default_spec ~skew:1.2) with
                Workload.Spec.root_count = 40;
              }
            in
            let wl = Workload.Generator.generate spec ~page_size:4096 in
            let config =
              {
                Core.Config.default with
                Core.Config.escrow = Dsm.Escrow.On Experiments.Escrow.default_params;
              }
            in
            fun () ->
              ignore (Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl)));
      Test.make ~name:"ship-lotec"
        (Staged.stage
           (let spec =
              {
                (Experiments.Function_shipping.default_spec ~skew:1.5) with
                Workload.Spec.root_count = 40;
              }
            in
            let wl = Workload.Generator.generate spec ~page_size:4096 in
            let config =
              {
                Core.Config.default with
                Core.Config.shipping =
                  Dsm.Shipping.On Experiments.Function_shipping.default_params;
              }
            in
            fun () ->
              ignore (Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl)));
    ]

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "==================================================================@.";
  Format.printf "Simulator performance (Bechamel, monotonic clock)@.";
  Format.printf "==================================================================@.";
  Format.printf "%-26s %14s@." "benchmark" "time/run";
  let rows = ref [] in
  Hashtbl.iter (fun name result -> rows := (name, result) :: !rows) results;
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          let pretty =
            if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
            else Printf.sprintf "%.2f us" (est /. 1e3)
          in
          Format.printf "%-26s %14s@." name pretty
      | _ -> Format.printf "%-26s %14s@." name "n/a")
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows)

let () =
  reproduce ();
  suites ();
  msg_breakdown ();
  engine_scale ();
  (* Belt and braces over write_artifact: every entry above must have left
     a non-empty artefact on disk before the timing section runs. *)
  List.iter
    (fun file ->
      let size =
        try
          let ic = open_in file in
          let n = in_channel_length ic in
          close_in ic;
          n
        with Sys_error _ -> -1
      in
      if size <= 0 then begin
        Format.eprintf "FATAL: bench entry left %s missing or empty@." file;
        exit 1
      end)
    (List.map suite_json_file Experiments.Suites.all @ [ trace_json_file; engine_json_file ]);
  benchmark ()
