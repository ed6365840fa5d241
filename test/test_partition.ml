(* Partition-tolerance tests: the decorrelated retransmit backoff, the
   split-brain auditors (hand-crafted violations and a QCheck property
   over reachable directory states), quorum membership under heartbeat
   suppression, lease fencing of a falsely-declared home's successor,
   fault-free byte-identity goldens for all four protocols, and the
   nemesis suite's rows. *)

open Objmodel

let oid = Oid.of_int

(* ------------------------------------------------------------------ *)
(* Decorrelated retransmit backoff.                                    *)

let drain stream ~n =
  let out = Array.make n 0.0 in
  let prev = ref (Sim.Backoff.first stream) in
  for i = 0 to n - 1 do
    prev := Sim.Backoff.next stream ~prev_us:!prev;
    out.(i) <- !prev
  done;
  out

let test_backoff_decorrelated () =
  (* Sibling nodes derive different streams from the same fault seed:
     a retry storm after a heal would need identical schedules. *)
  let mk node = Sim.Backoff.stream ~seed:42 ~node ~base_us:500.0 ~cap_us:40_000.0 in
  let a = drain (mk 0) ~n:32 and b = drain (mk 1) ~n:32 in
  Alcotest.(check bool) "node streams differ" true (a <> b);
  (* Same (seed, node) reproduces the exact schedule — faulty runs stay
     deterministic. *)
  let a' = drain (mk 0) ~n:32 in
  Alcotest.(check bool) "same seed+node reproduces" true (a = a')

let test_backoff_capped () =
  let stream = Sim.Backoff.stream ~seed:7 ~node:3 ~base_us:500.0 ~cap_us:40_000.0 in
  Alcotest.(check (float 0.0)) "first is the base" 500.0 (Sim.Backoff.first stream);
  (* Even pumped from the cap itself, a draw never escapes [base, cap]. *)
  let prev = ref (Sim.Backoff.cap stream) in
  for _ = 1 to 1_000 do
    let d = Sim.Backoff.next stream ~prev_us:!prev in
    if d < 500.0 || d > 40_000.0 then
      Alcotest.failf "backoff %f escaped [500, 40000]" d;
    prev := d
  done

(* ------------------------------------------------------------------ *)
(* Membership auditor: hand-crafted logs.                              *)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_membership_audit_clean () =
  (* Newest first, as the runtime prepends: partition 2 failed over to
     node 3 at epoch 1, back to node 2 at epoch 2. *)
  let log = [ (2, 2, 2); (1, 2, 3); (0, 2, 2) ] in
  (match Core.Membership_audit.check log with
  | Ok () -> ()
  | Error vs -> Alcotest.failf "clean log rejected: %s" (String.concat "; " vs));
  match Core.Membership_audit.check [] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "empty log rejected"

let test_membership_audit_double_acting_home () =
  (* The split-brain shape itself: nodes 1 and 3 both recorded as serving
     partition 2 within membership epoch 5. *)
  match Core.Membership_audit.check [ (5, 2, 3); (5, 2, 1) ] with
  | Ok () -> Alcotest.fail "double acting home accepted"
  | Error vs ->
      Alcotest.(check bool) "violation names the partition and both nodes" true
        (List.exists
           (fun v ->
             contains v "partition 2" && contains v "node 1" && contains v "node 3")
           vs)

let test_membership_audit_epoch_regression () =
  (* Oldest record at epoch 3, newer one at epoch 1: an acting home was
     installed under a stale view. Newest first, so [ (1,...); (3,...) ]. *)
  match Core.Membership_audit.check [ (1, 0, 2); (3, 0, 1) ] with
  | Ok () -> Alcotest.fail "epoch regression accepted"
  | Error vs ->
      Alcotest.(check bool) "violation mentions regression" true
        (List.exists (fun v -> contains v "regressed") vs)

(* ------------------------------------------------------------------ *)
(* Directory auditor: QCheck property over reachable states.           *)

let node_count = 4
let fam i = Txn.Txn_id.of_int i
let node_of_family f = Txn.Txn_id.to_int f mod node_count

(* Random acquire/release driving, the same shape as the eviction
   property in test_crash_recovery: every state reachable through the
   public API must satisfy the per-object audit. *)
let prop_reachable_directory_audits_clean =
  let gen = QCheck2.Gen.(triple (int_range 1 10_000) (int_range 2 8) (int_range 10 150)) in
  QCheck2.Test.make ~name:"reachable directory states pass the split-brain audit"
    ~count:150 gen (fun (seed, objects, ops) ->
      let gdo = Gdo.Directory.create () in
      for i = 0 to objects - 1 do
        Gdo.Directory.register_object gdo (oid i) ~pages:2 ~initial_node:(i mod node_count)
      done;
      let prng = Random.State.make [| seed |] in
      let held = Hashtbl.create 16 in
      for _ = 1 to ops do
        let f = fam (Random.State.int prng 12) in
        let o = oid (Random.State.int prng objects) in
        let mode = if Random.State.bool prng then Txn.Lock.Read else Txn.Lock.Write in
        if Random.State.int prng 4 = 0 then begin
          match Hashtbl.find_opt held (Txn.Txn_id.to_int f) with
          | Some os when os <> [] ->
              let victim = List.nth os (Random.State.int prng (List.length os)) in
              ignore (Gdo.Directory.release gdo victim ~family:f ~dirty:[]);
              Hashtbl.replace held (Txn.Txn_id.to_int f)
                (List.filter (fun o' -> o' <> victim) os)
          | _ -> ()
        end
        else
          match Gdo.Directory.acquire gdo o ~family:f ~node:(node_of_family f) ~mode () with
          | Gdo.Directory.Granted _ ->
              let os =
                Option.value (Hashtbl.find_opt held (Txn.Txn_id.to_int f)) ~default:[]
              in
              if not (List.mem o os) then Hashtbl.replace held (Txn.Txn_id.to_int f) (o :: os)
          | Gdo.Directory.Queued | Gdo.Directory.Busy | Gdo.Directory.Deadlock _ -> ()
      done;
      Gdo.Directory.audit gdo = [])

(* ------------------------------------------------------------------ *)
(* Fault-free byte-identity goldens, all four protocols.               *)

let golden_spec =
  {
    (Workload.Scenarios.spec Workload.Scenarios.High Workload.Scenarios.Medium) with
    Workload.Spec.root_count = 40;
    seed = 42;
  }

(* The membership machinery (quorum detector, epoch fencing, parking,
   backoff-armed transport) must stay completely inert on a fault-free
   run: these are the same numbers as the pre-fault-layer goldens in
   test_chaos, extended to RC-nested so all four protocols are pinned. *)
let goldens =
  [
    (Dsm.Protocol.Cotec, (484, 1_169_012, 1_119_040, 25968.873648));
    (Dsm.Protocol.Otec, (419, 956_560, 911_040, 20047.449955));
    (Dsm.Protocol.Lotec, (370, 731_252, 690_560, 19580.172744));
    (Dsm.Protocol.Rc_nested, (425, 1_606_888, 1_568_320, 20610.322997));
  ]

let test_fault_free_goldens_all_protocols () =
  let wl = Workload.Generator.generate golden_spec ~page_size:4096 in
  List.iter
    (fun (protocol, (messages, bytes, data_bytes, completion)) ->
      let name = Format.asprintf "%a" Dsm.Protocol.pp protocol in
      let run = Experiments.Runner.execute ~protocol wl in
      let m = Experiments.Runner.metrics run in
      let t = Dsm.Metrics.totals m in
      Alcotest.(check int) (name ^ " messages") messages (Dsm.Metrics.total_messages m);
      Alcotest.(check int) (name ^ " bytes") bytes (Dsm.Metrics.total_bytes m);
      Alcotest.(check int) (name ^ " data bytes") data_bytes (Dsm.Metrics.total_data_bytes m);
      Alcotest.(check (float 1e-6)) (name ^ " completion") completion
        (Dsm.Metrics.completion_time_us m);
      (* And the membership layer never woke up. *)
      Alcotest.(check int) (name ^ " no quorum votes") 0 t.Dsm.Metrics.quorum_votes;
      Alcotest.(check int) (name ^ " no declarations") 0 t.Dsm.Metrics.nodes_declared_dead;
      Alcotest.(check int) (name ^ " epoch still 0") 0
        (Core.Runtime.membership_epoch run.Experiments.Runner.runtime))
    goldens

(* ------------------------------------------------------------------ *)
(* Heartbeat suppression must not starve the quorum detector.          *)

(* Batching's heartbeat suppression skips a heartbeat when the channel
   recently carried traffic — so under a busy workload almost no explicit
   heartbeats flow, and liveness must come from the deliveries
   themselves. If delivery stopped refreshing the detectors, every
   observer would starve at once and the quorum would declare a LIVE
   node dead. Arm the membership machinery with a (harmless) slow-link
   window, tighten the timers so starvation would ripen many times over
   within the run, and assert nobody is ever declared. *)
let test_suppression_never_starves_quorum () =
  let config =
    {
      Core.Config.default with
      Core.Config.batching = Dsm.Batching.all;
      faults =
        Some
          {
            Sim.Fault.none with
            Sim.Fault.seed = 11;
            link_windows =
              [
                {
                  Sim.Fault.lw_kind =
                    Sim.Fault.Slow { slow_src = 0; slow_dst = 1; extra_us = 1.0 };
                  lw_from_us = 1_000.0;
                  lw_until_us = 30_000.0;
                };
              ];
          };
      request_timeout_us = 500.0;
      max_retransmits = 3;
      heartbeat_interval_us = 500.0;
      suspect_timeout_us = 1_500.0;
    }
  in
  let wl =
    Workload.Generator.generate Experiments.Partition.default_spec ~page_size:4096
  in
  let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
  let t = Dsm.Metrics.totals (Experiments.Runner.metrics run) in
  Alcotest.(check int) "no false suspicions" 0 t.Dsm.Metrics.false_suspicions;
  Alcotest.(check int) "no declarations" 0 t.Dsm.Metrics.nodes_declared_dead;
  Alcotest.(check int) "all roots committed"
    Experiments.Partition.default_spec.Workload.Spec.root_count
    t.Dsm.Metrics.roots_committed

(* ------------------------------------------------------------------ *)
(* Lease fencing of a falsely-declared home's successor.               *)

let attr size name = Attribute.make ~name ~size_bytes:size

let account_class ~page_size =
  Obj_class.compile ~page_size
    (Obj_class.define ~name:"Account"
       ~attrs:[| attr 64 "balance"; attr 64 "last_txn" |]
       ~methods:
         [
           Method_ir.make ~name:"deposit"
             ~body:[ Method_ir.Read 0; Method_ir.Write 0; Method_ir.Write 1 ];
           Method_ir.make ~name:"audit" ~body:[ Method_ir.Read 0; Method_ir.Read 1 ];
         ]
       ~ref_slots:0)

let small_catalog ~page_size =
  let acct = account_class ~page_size in
  Catalog.create
    [
      { Catalog.oid = oid 0; cls = acct; refs = [||] };
      { Catalog.oid = oid 1; cls = acct; refs = [||] };
      { Catalog.oid = oid 2; cls = acct; refs = [||] };
    ]

(* The hand-built fencing scenario: node 0 takes a 10 ms read lease on
   the object homed at node 2; node 2 is then partitioned away and
   falsely declared; a write submitted mid-fence reaches the successor,
   which must DEFER it until the lease has provably expired — serving
   early would let the leaseholder read stale data under a regime that
   no longer owns the partition. The run must still finish clean: the
   write commits after the fence, node 2 is readmitted, nobody is left
   declared or parked, and the split-brain audit is empty. *)
let test_lease_fence_defers_successor () =
  let config =
    {
      Core.Config.default with
      Core.Config.protocol = Dsm.Protocol.Lotec;
      node_count = 4;
      gdo_replicas = 1;
      lease = Gdo.Lease.Fixed_ttl { ttl_us = 10_000.0 };
      faults =
        Some
          {
            Sim.Fault.none with
            Sim.Fault.seed = 7;
            link_windows =
              [
                {
                  Sim.Fault.lw_kind = Sim.Fault.Partition [ 2 ];
                  lw_from_us = 1_000.0;
                  lw_until_us = 12_000.0;
                };
              ];
          };
      request_timeout_us = 500.0;
      max_retransmits = 3;
      heartbeat_interval_us = 500.0;
      suspect_timeout_us = 1_500.0;
    }
  in
  let rt =
    Core.Runtime.create ~config
      ~catalog:(small_catalog ~page_size:config.Core.Config.page_size)
  in
  (* Read lease on oid 2 (homed at node 2) granted to node 0 well before
     the partition opens... *)
  Core.Runtime.submit rt ~at:100.0 ~node:0 ~oid:(oid 2) ~meth:"audit" ~seed:1;
  (* ...and a write from node 1 mid-partition, after the false
     declaration (~3 ms) but inside the lease fence (~10.1 ms). *)
  Core.Runtime.submit rt ~at:5_000.0 ~node:1 ~oid:(oid 2) ~meth:"deposit" ~seed:2;
  Core.Runtime.run rt;
  let t = Dsm.Metrics.totals (Core.Runtime.metrics rt) in
  Alcotest.(check bool) "successor was fenced" true (t.Dsm.Metrics.fence_deferrals >= 1);
  Alcotest.(check int) "exactly one false declaration" 1 t.Dsm.Metrics.false_suspicions;
  Alcotest.(check int) "declared once" 1 t.Dsm.Metrics.nodes_declared_dead;
  Alcotest.(check bool) "readmitted" true (t.Dsm.Metrics.node_readmissions >= 1);
  Alcotest.(check int) "both roots committed" 2 t.Dsm.Metrics.roots_committed;
  List.iter
    (fun (r : Core.Runtime.root_result) ->
      if r.Core.Runtime.outcome <> Core.Runtime.Committed then
        Alcotest.failf "root %s gave up" r.Core.Runtime.meth)
    (Core.Runtime.results rt);
  for n = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d not left declared" n)
      false
      (Core.Runtime.node_declared_down rt ~node:n);
    Alcotest.(check bool)
      (Printf.sprintf "node %d not left parked" n)
      false
      (Core.Runtime.node_parked rt ~node:n)
  done;
  match Core.Runtime.audit rt with
  | [] -> ()
  | vs -> Alcotest.failf "split-brain audit: %s" (String.concat "; " vs)

(* ------------------------------------------------------------------ *)
(* Nemesis suite rows (every run passes the shared oracle).            *)

let run_nemesis schedule ~replicas =
  match
    Experiments.Suite.run
      {
        Experiments.Partition.suite with
        Experiments.Suite.protocols = [ Dsm.Protocol.Lotec ];
        cases = [ Experiments.Partition.case schedule ~replicas ];
      }
  with
  | [ row ] -> Experiments.Suite.get row
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_nemesis_false_suspicion () =
  (* The oracle already asserts accounting, the wire ledger and a clean
     audit; pin the membership outcome on top. *)
  let get = run_nemesis Experiments.Partition.false_suspicion ~replicas:1 in
  Alcotest.(check (float 0.0)) "one false declaration" 1.0 (get "nodes_declared_dead");
  Alcotest.(check (float 0.0)) "counted as false" 1.0 (get "false_suspicions");
  Alcotest.(check bool) "readmitted" true (get "node_readmissions" >= 1.0);
  Alcotest.(check bool) "failover happened" true (get "failovers" >= 1.0);
  Alcotest.(check bool) "epoch advanced" true (get "membership_epoch" >= 2.0);
  Alcotest.(check bool) "declaration latency measured" true (get "declaration_p50_us" > 0.0)

let test_nemesis_even_split_parks_without_declaring () =
  let get = run_nemesis Experiments.Partition.even_split ~replicas:0 in
  Alcotest.(check (float 0.0)) "no quorum on either side" 0.0 (get "nodes_declared_dead");
  Alcotest.(check (float 0.0)) "no false suspicions" 0.0 (get "false_suspicions");
  Alcotest.(check bool) "both sides parked" true (get "node_parks" >= 2.0)

(* ------------------------------------------------------------------ *)

let tests =
  [
  ( "partition",
    [
      Alcotest.test_case "backoff decorrelates across nodes" `Quick test_backoff_decorrelated;
      Alcotest.test_case "backoff respects base and cap" `Quick test_backoff_capped;
      Alcotest.test_case "membership audit accepts clean logs" `Quick
        test_membership_audit_clean;
      Alcotest.test_case "membership audit rejects double acting home" `Quick
        test_membership_audit_double_acting_home;
      Alcotest.test_case "membership audit rejects epoch regression" `Quick
        test_membership_audit_epoch_regression;
      QCheck_alcotest.to_alcotest prop_reachable_directory_audits_clean;
      Alcotest.test_case "fault-free goldens, all four protocols" `Quick
        test_fault_free_goldens_all_protocols;
      Alcotest.test_case "heartbeat suppression never starves the quorum" `Quick
        test_suppression_never_starves_quorum;
      Alcotest.test_case "lease fence defers the successor" `Quick
        test_lease_fence_defers_successor;
      Alcotest.test_case "nemesis: false suspicion declared and readmitted" `Quick
        test_nemesis_false_suspicion;
      Alcotest.test_case "nemesis: even split parks, never declares" `Quick
        test_nemesis_even_split_parks_without_declaring;
    ] )
  ]
