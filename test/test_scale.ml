(* Large streaming runs: streaming-mode semantics and the 100k-root
   determinism golden — the same seed must produce a byte-identical
   Dsm.Metrics summary whether or not the bounded-memory (streaming) mode
   is on, for every protocol. A divergence would mean either the engine
   broke determinism at scale or streaming changed what a run computes.
   The golden also carries the simulator's events/sec floor. *)

let submit_all rt (wl : Workload.Generator.t) =
  List.iter
    (fun (r : Workload.Generator.root_spec) ->
      Core.Runtime.submit rt ~at:r.at ~node:r.node ~oid:r.oid ~meth:r.meth ~seed:r.seed)
    wl.Workload.Generator.roots

let run_summary ~streaming ~protocol spec =
  let config =
    {
      Core.Config.default with
      Core.Config.protocol;
      node_count = spec.Workload.Spec.node_count;
      streaming;
    }
  in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let rt = Core.Runtime.create ~config ~catalog:wl.Workload.Generator.catalog in
  submit_all rt wl;
  let t0 = Sys.time () in
  Core.Runtime.run rt;
  let cpu_s = Sys.time () -. t0 in
  (Format.asprintf "%a" Dsm.Metrics.pp_summary (Core.Runtime.metrics rt), rt, cpu_s)

(* Streaming drops per-root results and the serializability history but
   must not change anything the metrics ledger sees. *)
let test_streaming_semantics () =
  let spec = Experiments.Scale.spec_for ~roots:500 ~nodes:8 in
  let plain, rt_plain, _ = run_summary ~streaming:false ~protocol:Dsm.Protocol.Lotec spec in
  let streamed, rt_stream, _ = run_summary ~streaming:true ~protocol:Dsm.Protocol.Lotec spec in
  Alcotest.(check string) "summary byte-identical" plain streamed;
  Alcotest.(check int) "plain retains results" 500
    (List.length (Core.Runtime.results rt_plain));
  Alcotest.(check int) "streaming retains none" 0
    (List.length (Core.Runtime.results rt_stream));
  (match Core.Runtime.check_serializable rt_stream with
  | Core.Serializability.Serializable _ -> ()
  | Core.Serializability.Cyclic _ -> Alcotest.fail "empty history cannot be cyclic");
  match Core.Runtime.check_serializable rt_plain with
  | Core.Serializability.Serializable _ -> ()
  | Core.Serializability.Cyclic _ -> Alcotest.fail "plain run must be serializable"

let test_streaming_requires_fault_free () =
  let faults = { Sim.Fault.none with Sim.Fault.drop_probability = 0.1 } in
  let config =
    { Core.Config.default with Core.Config.streaming = true; faults = Some faults }
  in
  match Core.Config.validate config with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "streaming with faults must be rejected"

let test_forget_family () =
  let tree = Txn.Txn_tree.create () in
  let root = Txn.Txn_tree.create_root tree ~node:0 in
  let child = Txn.Txn_tree.create_child tree ~parent:root in
  let _grandchild = Txn.Txn_tree.create_child tree ~parent:child in
  let other = Txn.Txn_tree.create_root tree ~node:1 in
  Alcotest.(check int) "family of three" 3 (Txn.Txn_tree.family_size tree root);
  Txn.Txn_tree.forget_family tree root;
  Alcotest.(check int) "ids never reused" 4 (Txn.Txn_tree.count tree);
  Alcotest.(check bool) "other family intact" true (Txn.Txn_tree.is_root tree other);
  Alcotest.check_raises "forgotten id unknown"
    (Invalid_argument (Format.asprintf "Txn_tree: unknown transaction %a" Txn.Txn_id.pp root))
    (fun () -> ignore (Txn.Txn_tree.status tree root))

(* The generator's documented ascending-by-[at] contract, at a size well
   past List.init's reverse-evaluation threshold (~10k) — the original
   [List.init] construction silently handed the last root the first
   arrival time above that size, which any arrival-order consumer (the
   benchmark's lazy feeder) turns into a thundering herd. *)
let test_roots_ascending () =
  let spec = Experiments.Scale.spec_for ~roots:20_000 ~nodes:16 in
  let wl = Workload.Generator.generate spec ~page_size:4096 in
  let ascending =
    let rec check = function
      | (a : Workload.Generator.root_spec) :: (b :: _ as rest) ->
          a.Workload.Generator.at <= b.Workload.Generator.at && check rest
      | _ -> true
    in
    check wl.Workload.Generator.roots
  in
  Alcotest.(check bool) "20k roots ascending by arrival time" true ascending;
  Alcotest.(check int) "all roots present" 20_000
    (List.length wl.Workload.Generator.roots)

(* The 100k-root golden. Streaming vs plain doubles as a determinism
   check: two full submissions/runs of the same seed from different
   process states must land on the identical summary string. The
   committed counts are pinned so a silent workload or scheduling drift
   fails loudly rather than shifting both runs in lockstep.

   The floor: each protocol dispatches at least [min_events_per_cpu_s]
   engine events per CPU second of [Core.Runtime.run] (the faster of its
   two runs). CPU time, not wall clock, so tests running beside it do not
   count against it; a dev build measures about 1M, so the floor leaves
   10x headroom for slow runners. *)
let min_events_per_cpu_s = 100_000.0

let committed_golden =
  [
    (Dsm.Protocol.Cotec, 100_000);
    (Dsm.Protocol.Otec, 100_000);
    (Dsm.Protocol.Lotec, 100_000);
    (Dsm.Protocol.Rc_nested, 100_000);
  ]

let test_scale_determinism () =
  let spec = Experiments.Scale.spec_for ~roots:100_000 ~nodes:64 in
  List.iter
    (fun (protocol, expect_committed) ->
      let name = Format.asprintf "%a" Dsm.Protocol.pp protocol in
      let streamed, rt, cpu_s = run_summary ~streaming:true ~protocol spec in
      let streamed', _, cpu_s' = run_summary ~streaming:true ~protocol spec in
      Alcotest.(check string) (name ^ ": summary byte-identical across runs") streamed
        streamed';
      let events = (Sim.Engine.stats (Core.Runtime.engine rt)).Sim.Engine.dispatched in
      let per_cpu_s = float_of_int events /. Float.max (Float.min cpu_s cpu_s') 1e-9 in
      if per_cpu_s < min_events_per_cpu_s then
        Alcotest.failf "%s: %.0f events per CPU second, below the %.0f floor" name per_cpu_s
          min_events_per_cpu_s;
      let totals = Dsm.Metrics.totals (Core.Runtime.metrics rt) in
      Alcotest.(check int)
        (name ^ ": committed golden")
        expect_committed totals.Dsm.Metrics.roots_committed;
      Alcotest.(check int)
        (name ^ ": every root accounted")
        100_000
        (totals.Dsm.Metrics.roots_committed + totals.Dsm.Metrics.roots_aborted))
    committed_golden

let tests =
  [
    ( "scale",
      [
        Alcotest.test_case "streaming preserves the summary" `Quick test_streaming_semantics;
        Alcotest.test_case "streaming requires fault-free" `Quick
          test_streaming_requires_fault_free;
        Alcotest.test_case "forget_family" `Quick test_forget_family;
        Alcotest.test_case "roots ascending by arrival" `Quick test_roots_ascending;
        Alcotest.test_case "100k determinism golden" `Slow test_scale_determinism;
      ] );
  ]
