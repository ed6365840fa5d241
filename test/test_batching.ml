(* Tests for the message-combining layer (Dsm.Batching): switch parsing,
   the config's flush-timer check, the inert-when-off guarantee, ack
   piggybacking under a lossy interconnect, demand-fetch aggregation,
   same-instant release coalescing, heartbeat suppression under crash
   windows, and the exact wire-ledger reconciliation with riders present. *)

open Objmodel

let oid = Oid.of_int

(* ---------- policy ---------- *)

let test_policy_strings () =
  (match Dsm.Batching.of_string "off" with
  | Ok p -> Alcotest.(check bool) "off disabled" false (Dsm.Batching.enabled p)
  | Error e -> Alcotest.fail e);
  (match Dsm.Batching.of_string "all" with
  | Ok p ->
      Alcotest.(check bool) "all enabled" true (Dsm.Batching.enabled p);
      Alcotest.(check string) "round trip" "all" (Dsm.Batching.to_string p)
  | Error e -> Alcotest.fail e);
  (match Dsm.Batching.of_string "sometimes" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  Alcotest.(check string) "off round trip" "off" (Dsm.Batching.to_string Dsm.Batching.off)

let test_config_rejects_flush_above_timeout () =
  (* A retransmit timeout at or below the ack flush timer would make every
     deferred ack look like a loss to its sender. *)
  let cfg =
    {
      Core.Config.default with
      Core.Config.batching = Dsm.Batching.all;
      request_timeout_us = Dsm.Batching.ack_flush_us;
    }
  in
  Alcotest.(check bool) "rejected" true (Result.is_error (Core.Config.validate cfg));
  Alcotest.(check bool) "accepted with batching off" true
    (Result.is_ok (Core.Config.validate { cfg with Core.Config.batching = Dsm.Batching.off }))

(* ---------- full-run helpers ---------- *)

let medium_high_small roots =
  { Workload.Scenarios.medium_high with Workload.Spec.root_count = roots; seed = 42 }

let run_with ?config protocol spec =
  let config = Option.value config ~default:Core.Config.default in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  Experiments.Runner.metrics (Experiments.Runner.execute ~config ~protocol wl)

let check_reconciles m =
  Alcotest.(check int) "wire messages = network messages" (Dsm.Metrics.total_messages m)
    (Dsm.Metrics.wire_messages_total m);
  Alcotest.(check int) "wire bytes = network bytes" (Dsm.Metrics.total_bytes m)
    (Dsm.Metrics.wire_bytes_total m)

let summary m = Format.asprintf "%a" Dsm.Metrics.pp_summary m

let with_batching ?faults policy =
  { Core.Config.default with Core.Config.batching = policy; faults }

(* ---------- inert when off / fault-free ---------- *)

let test_fault_free_all_is_byte_identical () =
  (* Without a fault model there are no transport acks to defer and no
     heartbeats to suppress, fault-free LOTEC demand fetches are zero on
     this workload, and a zero-window release flush sends at the same
     instant the direct path would: a fault-free run with every feature on
     must be byte-identical to the off run. *)
  let spec = medium_high_small 40 in
  let off = run_with ~config:(with_batching Dsm.Batching.off) Dsm.Protocol.Lotec spec in
  let all = run_with ~config:(with_batching Dsm.Batching.all) Dsm.Protocol.Lotec spec in
  Alcotest.(check string) "summaries byte-identical" (summary off) (summary all);
  Alcotest.(check (float 0.0)) "same completion"
    (Dsm.Metrics.completion_time_us off)
    (Dsm.Metrics.completion_time_us all);
  Alcotest.(check int) "no riders" 0 (Dsm.Metrics.wire_riders_total all);
  check_reconciles all

let lossy_faults =
  {
    Sim.Fault.none with
    Sim.Fault.seed = 7;
    drop_probability = 0.08;
    duplicate_probability = 0.05;
    delay_jitter_us = 40.0;
  }

let test_off_under_faults_records_nothing () =
  let m =
    run_with
      ~config:(with_batching ~faults:lossy_faults Dsm.Batching.off)
      Dsm.Protocol.Lotec (medium_high_small 30)
  in
  let t = Dsm.Metrics.totals m in
  Alcotest.(check int) "no piggybacked acks" 0 t.Dsm.Metrics.acks_piggybacked;
  Alcotest.(check int) "no flushes" 0 t.Dsm.Metrics.acks_flushed;
  Alcotest.(check int) "no riders" 0 (Dsm.Metrics.wire_riders_total m);
  check_reconciles m

(* ---------- ack piggybacking ---------- *)

let test_ack_piggybacking_cuts_messages () =
  let spec = medium_high_small 30 in
  let off =
    run_with
      ~config:(with_batching ~faults:lossy_faults Dsm.Batching.off)
      Dsm.Protocol.Lotec spec
  in
  let on =
    run_with
      ~config:(with_batching ~faults:lossy_faults Dsm.Batching.all)
      Dsm.Protocol.Lotec spec
  in
  let t = Dsm.Metrics.totals on in
  Alcotest.(check bool) "acks rode payloads" true (t.Dsm.Metrics.acks_piggybacked > 0);
  Alcotest.(check bool) "fewer messages than off" true
    (Dsm.Metrics.total_messages on < Dsm.Metrics.total_messages off);
  (* Every deferred ack is accounted: it either rode a payload or went out
     in a flush. *)
  Alcotest.(check bool) "riders recorded" true (Dsm.Metrics.wire_riders_total on > 0);
  let off_t = Dsm.Metrics.totals off in
  Alcotest.(check int) "all roots still accounted"
    (off_t.Dsm.Metrics.roots_committed + off_t.Dsm.Metrics.roots_aborted)
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  check_reconciles off;
  check_reconciles on

(* ---------- demand-fetch aggregation ---------- *)

(* A diamond access pattern: the driver invokes the wide object twice with
   different methods. The second invocation finds the lock already held by
   the family (no acquisition-time transfer), so its reads demand-fetch —
   one round per attribute without batching, one widened round with it. *)
let attr size name = Attribute.make ~name ~size_bytes:size

let wide_class ~page_size =
  Obj_class.compile ~page_size
    (Obj_class.define ~name:"Wide"
       ~attrs:[| attr page_size "x"; attr page_size "y"; attr page_size "z" |]
       ~methods:
         [
           Method_ir.make ~name:"mx" ~body:[ Method_ir.Read 0 ];
           Method_ir.make ~name:"myz" ~body:[ Method_ir.Read 1; Method_ir.Read 2 ];
         ]
       ~ref_slots:0)

let driver_class ~page_size =
  Obj_class.compile ~page_size
    (Obj_class.define ~name:"Driver"
       ~attrs:[| attr 64 "a" |]
       ~methods:
         [
           Method_ir.make ~name:"m"
             ~body:
               [
                 Method_ir.Invoke { slot = 0; meth = "mx" };
                 Method_ir.Invoke { slot = 0; meth = "myz" };
               ];
         ]
       ~ref_slots:1)

let diamond_catalog ~page_size =
  Catalog.create
    [
      (* oid 0 -> home 0 with two nodes; the family runs at node 1, so the
         wide object's pages start remote. *)
      { Catalog.oid = oid 0; cls = wide_class ~page_size; refs = [||] };
      { Catalog.oid = oid 1; cls = driver_class ~page_size; refs = [| oid 0 |] };
    ]

let run_diamond policy =
  let config =
    {
      Core.Config.default with
      Core.Config.protocol = Dsm.Protocol.Lotec;
      node_count = 2;
      batching = policy;
    }
  in
  let rt =
    Core.Runtime.create ~config
      ~catalog:(diamond_catalog ~page_size:config.Core.Config.page_size)
  in
  Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 1) ~meth:"m" ~seed:1;
  Core.Runtime.run rt;
  let m = Core.Runtime.metrics rt in
  Alcotest.(check int) "committed" 1 (Dsm.Metrics.totals m).Dsm.Metrics.roots_committed;
  check_reconciles m;
  m

let page_requests m =
  match
    List.find_opt (fun (w, _, _) -> w = Dsm.Wire.Page_request) (Dsm.Metrics.wire_breakdown m)
  with
  | Some (_, n, _) -> n
  | None -> 0

let test_fetch_aggregation () =
  let off = run_diamond Dsm.Batching.off in
  let off_t = Dsm.Metrics.totals off in
  (* Off: mx's acquire transfers page 0; myz re-enters the family-held lock
     without a transfer, then pays one demand round per page. *)
  Alcotest.(check int) "two demand rounds without batching" 2
    off_t.Dsm.Metrics.demand_fetches;
  Alcotest.(check int) "three page-request rounds without batching" 3 (page_requests off);
  let on = run_diamond Dsm.Batching.all in
  let on_t = Dsm.Metrics.totals on in
  Alcotest.(check int) "one widened round with batching" 1 on_t.Dsm.Metrics.demand_fetches;
  Alcotest.(check int) "one predicted page aggregated" 1 on_t.Dsm.Metrics.fetches_aggregated;
  Alcotest.(check int) "two page-request rounds with batching" 2 (page_requests on);
  Alcotest.(check bool) "fewer messages" true
    (Dsm.Metrics.total_messages on < Dsm.Metrics.total_messages off)

(* ---------- release coalescing ---------- *)

(* Two independent families, submitted together at the same node, each
   writing its own remote object homed at node 0: they commit at the same
   instant, and their per-home release batches must leave in one combined
   Release message (the zero-window flush runs after every same-instant
   commit, by engine insertion order). *)
let writer_class ~page_size =
  Obj_class.compile ~page_size
    (Obj_class.define ~name:"Cell"
       ~attrs:[| attr 64 "v" |]
       ~methods:[ Method_ir.make ~name:"set" ~body:[ Method_ir.Read 0; Method_ir.Write 0 ] ]
       ~ref_slots:0)

let caller_class ~page_size =
  Obj_class.compile ~page_size
    (Obj_class.define ~name:"Caller"
       ~attrs:[| attr 64 "a" |]
       ~methods:
         [
           Method_ir.make ~name:"go"
             ~body:[ Method_ir.Write 0; Method_ir.Invoke { slot = 0; meth = "set" } ];
         ]
       ~ref_slots:1)

let twin_catalog ~page_size =
  Catalog.create
    [
      (* Even oids home at node 0, odd at node 1 (two nodes). *)
      { Catalog.oid = oid 0; cls = writer_class ~page_size; refs = [||] };
      { Catalog.oid = oid 2; cls = writer_class ~page_size; refs = [||] };
      { Catalog.oid = oid 1; cls = caller_class ~page_size; refs = [| oid 0 |] };
      { Catalog.oid = oid 3; cls = caller_class ~page_size; refs = [| oid 2 |] };
    ]

let release_messages m =
  match
    List.find_opt (fun (w, _, _) -> w = Dsm.Wire.Release) (Dsm.Metrics.wire_breakdown m)
  with
  | Some (_, n, _) -> n
  | None -> 0

let run_twins policy =
  let config =
    {
      Core.Config.default with
      Core.Config.protocol = Dsm.Protocol.Lotec;
      node_count = 2;
      batching = policy;
    }
  in
  let rt =
    Core.Runtime.create ~config
      ~catalog:(twin_catalog ~page_size:config.Core.Config.page_size)
  in
  Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 1) ~meth:"go" ~seed:1;
  Core.Runtime.submit rt ~at:0.0 ~node:1 ~oid:(oid 3) ~meth:"go" ~seed:2;
  Core.Runtime.run rt;
  let m = Core.Runtime.metrics rt in
  Alcotest.(check int) "both committed" 2 (Dsm.Metrics.totals m).Dsm.Metrics.roots_committed;
  check_reconciles m;
  m

let test_release_coalescing () =
  let off = run_twins Dsm.Batching.off in
  Alcotest.(check int) "no coalescing off" 0
    (Dsm.Metrics.totals off).Dsm.Metrics.releases_coalesced;
  Alcotest.(check int) "two release messages off" 2 (release_messages off);
  let on = run_twins Dsm.Batching.all in
  Alcotest.(check int) "one batch coalesced" 1
    (Dsm.Metrics.totals on).Dsm.Metrics.releases_coalesced;
  Alcotest.(check int) "one combined release message" 1 (release_messages on);
  Alcotest.(check bool) "combined message is cheaper than two" true
    (Dsm.Metrics.total_bytes on < Dsm.Metrics.total_bytes off);
  (* The combined message serialises as one larger frame, so arrival times
     shift by a fraction of a percent; completion must stay in that band. *)
  let off_us = Dsm.Metrics.completion_time_us off
  and on_us = Dsm.Metrics.completion_time_us on in
  Alcotest.(check bool)
    (Printf.sprintf "completion within 1%% (%.2f vs %.2f us)" on_us off_us)
    true
    (Float.abs (on_us -. off_us) <= 0.01 *. off_us)

(* ---------- heartbeat suppression ---------- *)

let test_heartbeat_suppression_under_crash () =
  let faults =
    {
      Sim.Fault.none with
      Sim.Fault.seed = 3;
      windows =
        [ { Sim.Fault.w_node = 3; w_kind = Sim.Fault.Crash; w_from_us = 5000.0; w_until_us = 15000.0 } ];
    }
  in
  let spec = medium_high_small 40 in
  let off =
    run_with ~config:(with_batching ~faults:faults Dsm.Batching.off)
      Dsm.Protocol.Lotec spec
  in
  let on =
    run_with ~config:(with_batching ~faults:faults Dsm.Batching.all)
      Dsm.Protocol.Lotec spec
  in
  let t = Dsm.Metrics.totals on in
  Alcotest.(check bool) "heartbeats suppressed" true
    (t.Dsm.Metrics.heartbeats_suppressed > 0);
  Alcotest.(check bool) "fewer messages than off" true
    (Dsm.Metrics.total_messages on < Dsm.Metrics.total_messages off);
  (* Suppression must not break the run: every root still accounted, and
     release coalescing stood down (crash windows active). *)
  Alcotest.(check int) "all roots accounted" spec.Workload.Spec.root_count
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  Alcotest.(check int) "coalescing stands down under crash" 0
    t.Dsm.Metrics.releases_coalesced;
  check_reconciles on

(* ---------- experiment sweep ---------- *)

let test_batching_sweep_headline () =
  (* The acceptance gate: on the standard workload under light loss, LOTEC
     with batching sends >= 15% fewer messages, with completion inside a
     15% band of the off run. The fault PRNG sequences diverge once message
     counts differ, and the retransmit schedule is decorrelated-jittered
     (see Sim.Backoff) — a couple of tail retransmits landing differently
     shifts completion by several percent on this 3%-loss run, so the band
     is wide; the message reduction, not completion, is the headline. *)
  let rows =
    Experiments.Suite.run
      { Experiments.Batching.suite with Experiments.Suite.protocols = [ Dsm.Protocol.Lotec ] }
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let row arm = List.find (fun (r : Experiments.Suite.row) -> r.Experiments.Suite.arm = arm) rows in
  let off = row "off" and on = row "all" in
  let get = Experiments.Suite.get in
  let pct =
    100.0 *. (get on "total_messages" -. get off "total_messages") /. get off "total_messages"
  in
  Alcotest.(check bool)
    (Printf.sprintf "message reduction >= 15%% (got %+.1f%%)" pct)
    true (pct <= -15.0);
  let slack = 1.15 *. get off "completion_time_us" in
  Alcotest.(check bool)
    (Printf.sprintf "completion no worse (%.0f vs %.0f us)" (get on "completion_time_us")
       (get off "completion_time_us"))
    true
    (get on "completion_time_us" <= slack);
  (* The software-cost replay: batching must win at high per-message
     cost — the paper's regime where LOTEC's message count hurts. *)
  List.iter
    (fun sw ->
      let at r = get r (Printf.sprintf "total_time_us_100Mbps_sw%g" sw) in
      Alcotest.(check bool)
        (Printf.sprintf "replayed time improves at sw=%g" sw)
        true
        (at on < at off))
    [ 100.0; 20.0 ]

let tests =
  [
    ( "batching",
      [
        Alcotest.test_case "policy strings" `Quick test_policy_strings;
        Alcotest.test_case "config rejects flush above timeout" `Quick
          test_config_rejects_flush_above_timeout;
        Alcotest.test_case "fault-free all is byte-identical" `Quick
          test_fault_free_all_is_byte_identical;
        Alcotest.test_case "off under faults records nothing" `Quick
          test_off_under_faults_records_nothing;
        Alcotest.test_case "ack piggybacking cuts messages" `Quick
          test_ack_piggybacking_cuts_messages;
        Alcotest.test_case "fetch aggregation" `Quick test_fetch_aggregation;
        Alcotest.test_case "release coalescing" `Quick test_release_coalescing;
        Alcotest.test_case "heartbeat suppression under crash" `Quick
          test_heartbeat_suppression_under_crash;
        Alcotest.test_case "sweep headline reduction" `Slow test_batching_sweep_headline;
      ] );
  ]
