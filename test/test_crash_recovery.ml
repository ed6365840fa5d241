(* Crash-recovery tests: the failure detector, dead-family eviction at the
   directory (QCheck property: no dangling residue), lease eviction, and
   full runs under the crash suite's timers — crash windows, dead
   declaration, reclamation and GDO home failover, with the recovery
   invariants asserted end to end. *)

open Txn

(* ------------------------------------------------------------------ *)
(* Failure detector.                                                   *)

let test_detector_silence_and_heartbeat () =
  let d = Sim.Failure_detector.create ~node_count:4 ~timeout_us:1_000.0 in
  Sim.Failure_detector.set_self d 0;
  Alcotest.(check (list int)) "nothing suspect at start" [] (Sim.Failure_detector.suspects d ~now:500.0);
  (* Everyone starts heard-at-0: silence past the timeout suspects all peers. *)
  Alcotest.(check (list int))
    "silent peers become suspect (self excluded)" [ 1; 2; 3 ]
    (Sim.Failure_detector.suspects d ~now:1_500.0);
  Sim.Failure_detector.heartbeat d ~node:2 ~now:1_400.0;
  Alcotest.(check (list int))
    "heartbeat clears one" [ 1; 3 ]
    (Sim.Failure_detector.suspects d ~now:1_500.0);
  Alcotest.(check bool) "node 2 clean" false (Sim.Failure_detector.is_suspect d ~node:2 ~now:1_500.0)

let test_detector_hint () =
  let d = Sim.Failure_detector.create ~node_count:3 ~timeout_us:10_000.0 in
  Sim.Failure_detector.set_self d 0;
  Alcotest.(check bool) "not suspect yet" false (Sim.Failure_detector.is_suspect d ~node:1 ~now:1.0);
  Sim.Failure_detector.hint d ~node:1;
  Alcotest.(check bool)
    "transport give-up makes an immediate suspect" true
    (Sim.Failure_detector.is_suspect d ~node:1 ~now:1.0);
  Sim.Failure_detector.heartbeat d ~node:1 ~now:2.0;
  Alcotest.(check bool) "heartbeat clears the hint" false
    (Sim.Failure_detector.is_suspect d ~node:1 ~now:2.0)

(* ------------------------------------------------------------------ *)
(* Dead-family eviction at the directory: QCheck property.             *)

let oid i = Objmodel.Oid.of_int i
let fam i = Txn_id.of_int i

(* Families execute at node [id mod node_count]. *)
let node_count = 4
let node_of_family f = Txn_id.to_int f mod node_count

let build_directory ~objects ~ops ~seed =
  let gdo = Gdo.Directory.create () in
  for i = 0 to objects - 1 do
    Gdo.Directory.register_object gdo (oid i) ~pages:2 ~initial_node:(i mod node_count)
  done;
  let prng = Random.State.make [| seed |] in
  (* Random acquires and releases from a pool of families; Deadlock refusals
     and Busy results are simply skipped, exactly as the runtime would abort
     and move on. *)
  let held = Hashtbl.create 16 in
  for _ = 1 to ops do
    let f = fam (Random.State.int prng 12) in
    let o = oid (Random.State.int prng objects) in
    let mode = if Random.State.bool prng then Lock.Read else Lock.Write in
    if Random.State.int prng 4 = 0 then begin
      match Hashtbl.find_opt held (Txn_id.to_int f) with
      | Some os when os <> [] ->
          let victim = List.nth os (Random.State.int prng (List.length os)) in
          ignore (Gdo.Directory.release gdo victim ~family:f ~dirty:[]);
          Hashtbl.replace held (Txn_id.to_int f)
            (List.filter (fun o' -> o' <> victim) os)
      | _ -> ()
    end
    else
      match
        Gdo.Directory.acquire gdo o ~family:f ~node:(node_of_family f) ~mode ()
      with
      | Gdo.Directory.Granted _ ->
          let os = Option.value (Hashtbl.find_opt held (Txn_id.to_int f)) ~default:[] in
          if not (List.mem o os) then Hashtbl.replace held (Txn_id.to_int f) (o :: os)
      | Gdo.Directory.Queued | Gdo.Directory.Busy | Gdo.Directory.Deadlock _ -> ()
  done;
  gdo

(* After evicting a dead node's families: no holder, waiter or waits-for
   edge of a dead family survives anywhere, deferred grants go only to
   survivors, the directory audit (cached queue counters, waiter <=> edge)
   is clean, and a second eviction finds nothing. *)
let prop_eviction_leaves_no_residue =
  let gen = QCheck2.Gen.(triple (int_range 1 10_000) (int_range 2 8) (int_range 10 120)) in
  QCheck2.Test.make ~name:"directory eviction leaves no dead-family residue" ~count:100 gen
    (fun (seed, objects, ops) ->
      let gdo = build_directory ~objects ~ops ~seed in
      let dead_node = seed mod node_count in
      let dead f = node_of_family f = dead_node in
      let evicted, deliveries = Gdo.Directory.evict_families gdo ~dead in
      let ok_holders =
        List.for_all
          (fun i ->
            List.for_all
              (fun (h : Gdo.Directory.holder) -> not (dead h.Gdo.Directory.family))
              (Gdo.Directory.holders gdo (oid i)))
          (List.init objects (fun i -> i))
      in
      let ok_edges =
        List.for_all
          (fun (w, h) -> (not (dead w)) && not (dead h))
          (Gdo.Directory.waits_for_edges gdo)
      in
      let ok_deliveries =
        List.for_all
          (fun (d : Gdo.Directory.delivery) -> not (dead d.Gdo.Directory.d_family))
          deliveries
      in
      let audit_clean = Gdo.Directory.audit gdo = [] in
      let evicted', deliveries' = Gdo.Directory.evict_families gdo ~dead in
      evicted >= 0 && ok_holders && ok_edges && ok_deliveries && audit_clean && evicted' = 0
      && deliveries' = [])

(* Page-map repointing: with a find_copy that always locates a surviving
   same-version copy, no entry points at the dead node afterwards. *)
let test_repoint_pages_total () =
  let gdo = Gdo.Directory.create () in
  for i = 0 to 5 do
    Gdo.Directory.register_object gdo (oid i) ~pages:3 ~initial_node:(i mod node_count)
  done;
  let dead_node = 2 in
  let repointed =
    Gdo.Directory.repoint_pages gdo ~dead_node ~find_copy:(fun _ ~page:_ ~version:_ ->
        Some ((dead_node + 1) mod node_count))
  in
  Alcotest.(check bool) "some entries were repointed" true (repointed > 0);
  List.iter
    (fun i ->
      let nodes, _ = Gdo.Directory.page_map gdo (oid i) in
      Array.iter
        (fun n -> Alcotest.(check bool) "no page left on the dead node" true (n <> dead_node))
        nodes)
    (List.init 6 (fun i -> i));
  (* With no surviving copy the entry must stay (the dead node's copy is
     durable and valid again after restart) — never fall back silently. *)
  let r2 =
    Gdo.Directory.repoint_pages gdo ~dead_node:((dead_node + 1) mod node_count)
      ~find_copy:(fun _ ~page:_ ~version:_ -> None)
  in
  Alcotest.(check int) "nothing repointed without a copy" 0 r2

(* Lease eviction: every lease granted to the dead node disappears. *)
let test_lease_eviction () =
  let mgr = Gdo.Lease.create (Gdo.Lease.Fixed_ttl { ttl_us = 10_000.0 }) in
  List.iter
    (fun (o, n) ->
      ignore (Gdo.Lease.lease_for_grant mgr (oid o) ~node:n ~now:0.0 ~writer_queued:false))
    [ (0, 1); (0, 2); (1, 2); (2, 3) ];
  let cleared = Gdo.Lease.evict_node mgr ~node:2 in
  Alcotest.(check (list int)) "no recall was pending, nothing cleared" []
    (List.map Objmodel.Oid.to_int cleared);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "object %d holds no lease at node 2" o)
        false
        (List.mem 2 (Gdo.Lease.outstanding mgr (oid o) ~now:1.0)))
    [ 0; 1; 2 ];
  (* A recall waiting only on the dead node clears on eviction. *)
  ignore (Gdo.Lease.lease_for_grant mgr (oid 5) ~node:2 ~now:0.0 ~writer_queued:false);
  (match Gdo.Lease.begin_recall mgr (oid 5) ~now:1.0 ~excluded:None with
  | `Recall _ -> ()
  | `Clear | `In_progress -> Alcotest.fail "expected a recall order");
  let cleared = Gdo.Lease.evict_node mgr ~node:2 in
  Alcotest.(check (list int)) "recall cleared by eviction" [ 5 ]
    (List.map Objmodel.Oid.to_int cleared);
  Alcotest.(check bool) "no recall left in progress" false
    (Gdo.Lease.recall_in_progress mgr (oid 5))

(* ------------------------------------------------------------------ *)
(* Full runs: crash windows through the runtime.                       *)

let spec = Experiments.Chaos.default_spec

(* One run under the crash suite's tightened recovery timers. The shared
   oracle (root accounting, exact wire-ledger reconciliation, ledger
   balance, serializability) raises on any violation, and so does a
   stall, so most of the checking is surviving the call. *)
let crash_run ?(replicas = 0) ?(windows = [ (2, 3_000.0, 9_000.0) ]) protocol =
  let config =
    Experiments.Chaos.tight_timers
      {
        Core.Config.default with
        Core.Config.faults = Some (Experiments.Chaos.crash_faults ~fault_seed:1 windows);
        gdo_replicas = replicas;
      }
  in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let m = Experiments.Runner.metrics (Experiments.Runner.execute ~config ~protocol wl) in
  (m, Dsm.Metrics.totals m)

let test_crash_run_recovers () =
  List.iter
    (fun protocol ->
      let m, t = crash_run protocol in
      let name = Format.asprintf "%a" Dsm.Protocol.pp protocol in
      Alcotest.(check int)
        (name ^ " all roots accounted") spec.Workload.Spec.root_count
        (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
      Alcotest.(check bool) (name ^ " crash aborted some families") true
        (t.Dsm.Metrics.crash_aborts > 0);
      Alcotest.(check int) (name ^ " one node declared dead") 1
        t.Dsm.Metrics.nodes_declared_dead;
      Alcotest.(check bool) (name ^ " dead families reclaimed") true
        (t.Dsm.Metrics.families_reclaimed > 0);
      Alcotest.(check int) (name ^ " no failover without replicas") 0 t.Dsm.Metrics.failovers;
      let recovery = Dsm.Metrics.recovery_latency m in
      Alcotest.(check bool) (name ^ " crash-affected roots recovered") true
        (Dsm.Histogram.count recovery > 0);
      Alcotest.(check bool) (name ^ " recovery latency recorded") true
        (Dsm.Histogram.percentile recovery 50.0 > 0.0))
    Dsm.Protocol.[ Cotec; Otec; Lotec ]

let test_gdo_home_failover () =
  (* Node 2 is the GDO home of every object with oid mod 4 = 2; with one
     replica its partition fails over to node 3 and back at rejoin. *)
  let with_repl, t = crash_run ~replicas:1 Dsm.Protocol.Lotec in
  let without, _ = crash_run ~replicas:0 Dsm.Protocol.Lotec in
  Alcotest.(check int) "exactly one failover" 1 t.Dsm.Metrics.failovers;
  Alcotest.(check int) "all roots commit or abort" spec.Workload.Spec.root_count
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  (* Serving the partition from the successor instead of stalling on the
     dead home must not be slower. *)
  Alcotest.(check bool) "failover does not hurt completion" true
    (Dsm.Metrics.completion_time_us with_repl
    <= Dsm.Metrics.completion_time_us without +. 1.0)

let test_staggered_crashes () =
  let _, t =
    crash_run ~replicas:1
      ~windows:[ (1, 2_000.0, 6_000.0); (3, 8_000.0, 13_000.0) ]
      Dsm.Protocol.Lotec
  in
  Alcotest.(check int) "both nodes declared dead" 2 t.Dsm.Metrics.nodes_declared_dead;
  Alcotest.(check int) "two failovers" 2 t.Dsm.Metrics.failovers;
  Alcotest.(check int) "all roots accounted" spec.Workload.Spec.root_count
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted)

(* Crash runs are deterministic: same case, same numbers. *)
let test_crash_run_deterministic () =
  let a, ta = crash_run ~replicas:1 Dsm.Protocol.Otec in
  let b, tb = crash_run ~replicas:1 Dsm.Protocol.Otec in
  Alcotest.(check int) "same traffic" (Dsm.Metrics.total_messages a)
    (Dsm.Metrics.total_messages b);
  Alcotest.(check (float 0.0)) "same completion" (Dsm.Metrics.completion_time_us a)
    (Dsm.Metrics.completion_time_us b);
  Alcotest.(check int) "same crash aborts" ta.Dsm.Metrics.crash_aborts tb.Dsm.Metrics.crash_aborts

(* A crash window entirely after completion must not perturb the run: the
   recovery machinery arms (heartbeats and all) but no crash ever fires
   during useful work — traffic differs only by the heartbeat/ack noise,
   while commits, aborts and crash counters stay clean. *)
let test_late_window_is_harmless () =
  let _, t = crash_run ~windows:[ (2, 500_000.0, 501_000.0) ] Dsm.Protocol.Lotec in
  Alcotest.(check int) "all roots committed" spec.Workload.Spec.root_count
    t.Dsm.Metrics.roots_committed;
  Alcotest.(check int) "no crash aborts" 0 t.Dsm.Metrics.crash_aborts;
  Alcotest.(check int) "nobody declared dead" 0 t.Dsm.Metrics.nodes_declared_dead;
  Alcotest.(check int) "no failovers" 0 t.Dsm.Metrics.failovers

(* ------------------------------------------------------------------ *)
(* Commit-point races: a crash right after a root commits must lose
   neither the version it committed nor its release.                   *)

(* One-page cells; cell 1's GDO home is node 1. A writer at node 2 commits
   a new version of cell 1, and a reader at node 3 reads the cell once
   every window has closed. *)
let cell_class =
  Objmodel.Obj_class.compile ~page_size:4096
    (Objmodel.Obj_class.define ~name:"Cell"
       ~attrs:[| Objmodel.Attribute.make ~name:"v" ~size_bytes:64 |]
       ~methods:
         [
           Objmodel.Method_ir.make ~name:"write"
             ~body:[ Objmodel.Method_ir.Read 0; Objmodel.Method_ir.Write 0 ];
           Objmodel.Method_ir.make ~name:"read" ~body:[ Objmodel.Method_ir.Read 0 ];
         ]
       ~ref_slots:0)

let cell = oid 1
let writer_node = 2
let reader_node = 3

let race_workload =
  let root at node meth seed = { Workload.Generator.at; node; oid = cell; meth; seed } in
  {
    Workload.Generator.spec =
      { Workload.Spec.default with Workload.Spec.node_count; root_count = 2; object_count = node_count };
    catalog =
      Objmodel.Catalog.create
        (List.init node_count (fun i ->
             { Objmodel.Catalog.oid = oid i; cls = cell_class; refs = [||] }));
    roots = [ root 0.0 writer_node "write" 1; root 30_000.0 reader_node "read" 2 ];
  }

(* One run under the crash suite's timers; the shared oracle and the stall
   detector raise on a lost version or a leaked lock. *)
let race_run ?(trace_capacity = 0) ~protocol ~replicas windows =
  let config =
    Experiments.Chaos.tight_timers
      {
        Core.Config.default with
        Core.Config.faults = Some (Experiments.Chaos.crash_faults ~fault_seed:1 windows);
        gdo_replicas = replicas;
        trace_capacity;
      }
  in
  Experiments.Runner.execute ~config ~protocol race_workload

(* When the writer's root commits, read off a run whose only window opens
   long after it: every run with a window arms the same transport and
   heartbeats, so a run matches this one up to its first window. *)
let writer_commit_at ~protocol ~replicas =
  let run = race_run ~trace_capacity:10_000 ~protocol ~replicas [ (0, 90_000.0, 91_000.0) ] in
  let commit (e : Dsm.Event.t Sim.Trace.entry) =
    match e.Sim.Trace.data with
    | Dsm.Event.Root_commit { node; _ } when node = writer_node -> Some e.Sim.Trace.time
    | _ -> None
  in
  match Core.Runtime.trace run.Experiments.Runner.runtime with
  | None -> Alcotest.fail "tracing is off"
  | Some tr -> (
      match List.find_map commit (Sim.Trace.events tr) with
      | Some time -> time
      | None -> Alcotest.fail "the writer never committed")

(* Both roots committed, and the reader holds the version the writer
   committed: it was neither lost with the writer's page cache nor kept
   from the page map. *)
let check_race name (run : Experiments.Runner.run) =
  let rt = run.Experiments.Runner.runtime in
  let t = Dsm.Metrics.totals (Core.Runtime.metrics rt) in
  Alcotest.(check int) (name ^ ": both roots committed") 2 t.Dsm.Metrics.roots_committed;
  let _, versions = Gdo.Directory.page_map (Core.Runtime.directory rt) cell in
  Alcotest.(check bool) (name ^ ": the map has the writer's version") true (versions.(0) > 0);
  Alcotest.(check int) (name ^ ": the reader read it") versions.(0)
    (Dsm.Page_store.version (Core.Runtime.store rt ~node:reader_node) cell ~page:0)

(* Every case: COTEC, OTEC and LOTEC, each with 0 and 1 GDO replicas. *)
let each_race_case f =
  List.iter
    (fun protocol ->
      List.iter
        (fun replicas ->
          let name = Format.asprintf "%a gdo_replicas=%d" Dsm.Protocol.pp protocol replicas in
          f name ~protocol ~replicas (writer_commit_at ~protocol ~replicas))
        [ 0; 1 ])
    Dsm.Protocol.[ Cotec; Otec; Lotec ]

(* Race one: the writer's node crashes 0.01 us after the commit, inside
   one link latency, with its Release still on the wire. The release
   reaches the home and points the page map at the crashed node, so the
   crash must keep the committed version. *)
let test_commit_then_crash () =
  each_race_case (fun name ~protocol ~replicas tc ->
      check_race name
        (race_run ~protocol ~replicas [ (writer_node, tc +. 0.01, tc +. 4_000.0) ]))

(* Race two: the home crashes 0.01 us after the commit, so the Release is
   dropped on arrival, and the writer's node crashes before its first
   retransmit. No copy gets through: the writer's node must send the
   release again when it rejoins, or the writer's lock leaks and the
   reader stalls. *)
let test_release_swallowed () =
  each_race_case (fun name ~protocol ~replicas tc ->
      check_race name
        (race_run ~protocol ~replicas
           [ (1, tc +. 0.01, tc +. 4_000.0); (writer_node, tc +. 0.02, tc +. 6_000.0) ]))

(* ------------------------------------------------------------------ *)
(* Crash-point enumeration (see [Crash_point]): one 4,000 us crash
   window per run, at points read off a traced baseline.               *)

let check_crash_points ~expected (runs, failures) =
  Alcotest.(check int) "crash points" expected runs;
  if failures <> [] then Alcotest.fail (Crash_point.report ~runs failures)

(* Spec seeds 42, 1, 2, 3 x COTEC/OTEC/LOTEC x 0 and 1 GDO replicas: after
   each root commit at t, every node crashes at t + 0.01 us, and the
   committing node at t + 5, 20 and 60 us — 4,200 runs. *)
let test_commit_point_enumeration () =
  check_crash_points ~expected:4_200
    (Crash_point.enumerate ~spec_seeds:[ 42; 1; 2; 3 ] Crash_point.commit_points)

(* The every-event slice at spec seed 1: every node crashes 0.01 us after
   every distinct event time below 40,000 us — 4,864 runs. The full slice
   over seeds 42, 1, 2 and 3 is test/crash_point/every_event.exe. *)
let test_every_event_slice () =
  check_crash_points ~expected:4_864
    (Crash_point.enumerate ~spec_seeds:[ 1 ] Crash_point.every_event_points)

(* A crash point of the slice at spec seed 2 where a release promotes a
   family whose requester has stopped waiting (a crash failed its wait)
   to lock holder: the home must hand the lock straight back, or two LOTEC
   roots wait on it forever. *)
let test_orphan_grant_replay () =
  ignore
    (Crash_point.run ~spec_seed:2 ~protocol:Dsm.Protocol.Lotec ~replicas:1 ~node:1
       ~start:2510.0747430466686 ())

(* The every-event slice at spec seed 1 with each crash window replaced
   by a partition isolating the node — 4,864 runs. A falsely declared node
   must be readmitted and a parked one unparked by the end, or the oracle
   fails; the sums show the slice reaches both. *)
let test_every_event_partition_slice () =
  let parks = ref 0 and readmissions = ref 0 in
  let observe r =
    let c = Dsm.Metrics.counters (Experiments.Runner.metrics r) in
    parks := !parks + c.Dsm.Metrics.node_parks;
    readmissions := !readmissions + c.Dsm.Metrics.node_readmissions
  in
  check_crash_points ~expected:4_864
    (Crash_point.enumerate ~kind:Crash_point.Partition ~observe ~spec_seeds:[ 1 ]
       Crash_point.every_event_points);
  Alcotest.(check bool) "some node parks" true (!parks > 0);
  Alcotest.(check bool) "some node is readmitted" true (!readmissions > 0)

(* A crash point of the slice at spec seed 1: node 0 is down from 2,968.31
   to 6,968.31 us. Transport give-ups on messages whose last copy left
   while it was down fire after it rejoined; they must not hint the
   senders' detectors, since node 0 has been heard from since, or the
   suspicions ripen into false declarations of the live node. *)
let test_stale_give_up_hint () =
  let r =
    Crash_point.run ~spec_seed:1 ~protocol:Dsm.Protocol.Lotec ~replicas:0 ~node:0
      ~start:2968.3067014906833 ()
  in
  let c = Dsm.Metrics.counters (Experiments.Runner.metrics r) in
  Alcotest.(check int) "declared dead once" 1 c.Dsm.Metrics.nodes_declared_dead;
  Alcotest.(check int) "no false declaration" 0 c.Dsm.Metrics.false_suspicions

let tests =
  [
    ( "crash-recovery",
      [
        Alcotest.test_case "detector: silence and heartbeat" `Quick
          test_detector_silence_and_heartbeat;
        Alcotest.test_case "detector: transport hint" `Quick test_detector_hint;
        QCheck_alcotest.to_alcotest prop_eviction_leaves_no_residue;
        Alcotest.test_case "repoint pages" `Quick test_repoint_pages_total;
        Alcotest.test_case "lease eviction" `Quick test_lease_eviction;
        Alcotest.test_case "crash run recovers (all protocols)" `Quick test_crash_run_recovers;
        Alcotest.test_case "gdo home failover" `Quick test_gdo_home_failover;
        Alcotest.test_case "staggered crashes" `Quick test_staggered_crashes;
        Alcotest.test_case "crash run deterministic" `Quick test_crash_run_deterministic;
        Alcotest.test_case "late window is harmless" `Quick test_late_window_is_harmless;
        Alcotest.test_case "commit then crash" `Quick test_commit_then_crash;
        Alcotest.test_case "release swallowed by crashes" `Quick test_release_swallowed;
        Alcotest.test_case "commit-point crash enumeration" `Quick
          test_commit_point_enumeration;
        Alcotest.test_case "every-event crash slice (spec seed 1)" `Quick
          test_every_event_slice;
        Alcotest.test_case "orphan grant (spec seed 2 replay)" `Quick test_orphan_grant_replay;
        Alcotest.test_case "every-event partition slice (spec seed 1)" `Quick
          test_every_event_partition_slice;
        Alcotest.test_case "no stale give-up hint (spec seed 1 replay)" `Quick
          test_stale_give_up_hint;
      ] );
  ]
