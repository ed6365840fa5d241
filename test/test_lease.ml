(* Read-lease subsystem tests: the Gdo.Lease manager and cache as pure data
   structures, the runtime integration (local hits, recall-on-write,
   commit-time validation), the headline home-lock-op reduction on a
   read-dominated workload, and leases under interconnect chaos. *)

open Objmodel

let oid = Oid.of_int
let fam = Txn.Txn_id.of_int

let ttl_policy = Gdo.Lease.Fixed_ttl { ttl_us = 1000.0 }

let grant ?(mode = Txn.Lock.Read) o =
  {
    Gdo.Directory.g_oid = oid o;
    g_mode = mode;
    g_page_nodes = [| 0; 1 |];
    g_page_versions = [| 1; 1 |];
  }

(* ---------- policy ---------- *)

let test_policy_strings () =
  List.iter
    (fun (s, expect) ->
      match Gdo.Lease.policy_of_string s with
      | Ok p -> Alcotest.(check string) s expect (Gdo.Lease.policy_to_string p)
      | Error e -> Alcotest.fail e)
    [ ("off", "off"); ("none", "off"); ("ttl", "ttl"); ("ON", "ttl") ];
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Gdo.Lease.policy_of_string "sometimes"))

let test_policy_validation () =
  let bad p = Result.is_error (Gdo.Lease.validate_policy p) in
  Alcotest.(check bool) "off ok" false (bad Gdo.Lease.Off);
  Alcotest.(check bool) "ttl ok" false (bad ttl_policy);
  Alcotest.(check bool) "zero ttl" true (bad (Gdo.Lease.Fixed_ttl { ttl_us = 0.0 }));
  Alcotest.(check bool) "negative ttl" true (bad (Gdo.Lease.Fixed_ttl { ttl_us = -1.0 }))

(* ---------- home-side manager ---------- *)

let test_manager_off_inert () =
  let t = Gdo.Lease.create Gdo.Lease.Off in
  Alcotest.(check bool) "disabled" false (Gdo.Lease.enabled t);
  Alcotest.(check bool) "no lease" true
    (Gdo.Lease.lease_for_grant t (oid 1) ~node:0 ~now:0.0 ~writer_queued:false = None)

let test_manager_grant_and_renew () =
  let t = Gdo.Lease.create ttl_policy in
  (match Gdo.Lease.lease_for_grant t (oid 1) ~node:2 ~now:100.0 ~writer_queued:false with
  | Some (expires, epoch) ->
      Alcotest.(check (float 1e-9)) "expiry = now + ttl" 1100.0 expires;
      Alcotest.(check int) "epoch 0" 0 epoch
  | None -> Alcotest.fail "expected a lease");
  (* Renewal replaces, not duplicates. *)
  ignore (Gdo.Lease.lease_for_grant t (oid 1) ~node:2 ~now:500.0 ~writer_queued:false);
  Alcotest.(check (list int)) "one grant" [ 2 ] (Gdo.Lease.outstanding t (oid 1) ~now:600.0);
  (* Queued writer: no lease (it would be recalled immediately). *)
  Alcotest.(check bool) "writer queued refuses" true
    (Gdo.Lease.lease_for_grant t (oid 1) ~node:3 ~now:600.0 ~writer_queued:true = None);
  (* Expiry prunes. *)
  Alcotest.(check (list int)) "expired gone" [] (Gdo.Lease.outstanding t (oid 1) ~now:2000.0)

let test_manager_recall_lifecycle () =
  let t = Gdo.Lease.create ttl_policy in
  ignore (Gdo.Lease.lease_for_grant t (oid 1) ~node:1 ~now:0.0 ~writer_queued:false);
  ignore (Gdo.Lease.lease_for_grant t (oid 1) ~node:3 ~now:50.0 ~writer_queued:false);
  (match Gdo.Lease.begin_recall t (oid 1) ~now:100.0 ~excluded:(Some (fam 7)) with
  | `Recall { Gdo.Lease.ro_nodes; ro_epoch; ro_deadline; ro_token } ->
      Alcotest.(check (list int)) "nodes" [ 1; 3 ] ro_nodes;
      Alcotest.(check int) "epoch" 0 ro_epoch;
      Alcotest.(check (float 1e-9)) "deadline = latest expiry" 1050.0 ro_deadline;
      Alcotest.(check bool) "token visible" true
        (Gdo.Lease.recall_token t (oid 1) = Some ro_token)
  | `Clear | `In_progress -> Alcotest.fail "expected `Recall");
  Alcotest.(check bool) "in progress" true (Gdo.Lease.recall_in_progress t (oid 1));
  Alcotest.(check bool) "excluded recorded" true
    (Gdo.Lease.excluded_family t (oid 1) = Some (fam 7));
  (* No new leases while recalling. *)
  Alcotest.(check bool) "no lease mid-recall" true
    (Gdo.Lease.lease_for_grant t (oid 1) ~node:2 ~now:100.0 ~writer_queued:false = None);
  (* A second write queues behind the same recall. *)
  Alcotest.(check bool) "second recall parked" true
    (Gdo.Lease.begin_recall t (oid 1) ~now:110.0 ~excluded:None = `In_progress);
  Alcotest.(check bool) "yield 1 waiting" true
    (Gdo.Lease.note_yield t (oid 1) ~node:1 = `Waiting);
  Alcotest.(check bool) "yield 3 clears" true
    (Gdo.Lease.note_yield t (oid 1) ~node:3 = `Cleared);
  Alcotest.(check bool) "token gone" true (Gdo.Lease.recall_token t (oid 1) = None);
  Alcotest.(check bool) "late yield stale" true
    (Gdo.Lease.note_yield t (oid 1) ~node:1 = `Stale);
  (* Nothing outstanding: a fresh write sails through. *)
  Alcotest.(check bool) "clear now" true
    (Gdo.Lease.begin_recall t (oid 1) ~now:200.0 ~excluded:None = `Clear)

let test_manager_force_clear_and_epoch () =
  let t = Gdo.Lease.create ttl_policy in
  ignore (Gdo.Lease.lease_for_grant t (oid 1) ~node:1 ~now:0.0 ~writer_queued:false);
  let token =
    match Gdo.Lease.begin_recall t (oid 1) ~now:10.0 ~excluded:None with
    | `Recall r -> r.Gdo.Lease.ro_token
    | _ -> Alcotest.fail "expected `Recall"
  in
  Alcotest.(check bool) "wrong token refused" false
    (Gdo.Lease.force_clear t (oid 1) ~token:(token + 1));
  Alcotest.(check bool) "right token clears" true (Gdo.Lease.force_clear t (oid 1) ~token);
  Alcotest.(check bool) "idempotent" false (Gdo.Lease.force_clear t (oid 1) ~token);
  Alcotest.(check int) "epoch still 0" 0 (Gdo.Lease.epoch t (oid 1));
  Gdo.Lease.note_write_granted t (oid 1);
  Gdo.Lease.note_write_granted t (oid 1);
  Alcotest.(check int) "epoch bumps per write grant" 2 (Gdo.Lease.epoch t (oid 1))

(* ---------- node-side cache ---------- *)

let test_cache_hit_and_expiry () =
  let c = Gdo.Lease.Cache.create () in
  Alcotest.(check bool) "miss when empty" true
    (Gdo.Lease.Cache.hit c (oid 1) ~now:0.0 = None);
  Gdo.Lease.Cache.install c (oid 1) ~grant:(grant 1) ~expires:100.0 ~epoch:1;
  Alcotest.(check bool) "hit while valid" true (Gdo.Lease.Cache.hit c (oid 1) ~now:50.0 <> None);
  Alcotest.(check bool) "miss after expiry" true
    (Gdo.Lease.Cache.hit c (oid 1) ~now:100.0 = None);
  (* Renewal at the same epoch extends the expiry. *)
  Gdo.Lease.Cache.install c (oid 1) ~grant:(grant 1) ~expires:200.0 ~epoch:1;
  Alcotest.(check bool) "hit after renewal" true
    (Gdo.Lease.Cache.hit c (oid 1) ~now:150.0 <> None);
  Gdo.Lease.Cache.drop_expired c ~now:300.0;
  Alcotest.(check int) "gc dropped it" 0 (Gdo.Lease.Cache.entry_count c)

let test_cache_recall_epoch_fence () =
  let c = Gdo.Lease.Cache.create () in
  Gdo.Lease.Cache.install c (oid 1) ~grant:(grant 1) ~expires:100.0 ~epoch:1;
  (* No readers: the recall yields immediately and drops the entry. *)
  Alcotest.(check bool) "immediate yield" true
    (Gdo.Lease.Cache.recall c (oid 1) ~epoch:1 ~excluded:None = `Yield);
  (* The fence: a retransmitted grant at the recalled epoch must not
     resurrect the lease; a later-epoch grant installs fine. *)
  Gdo.Lease.Cache.install c (oid 1) ~grant:(grant 1) ~expires:200.0 ~epoch:1;
  Alcotest.(check bool) "stale reinstall refused" true
    (Gdo.Lease.Cache.hit c (oid 1) ~now:150.0 = None);
  Gdo.Lease.Cache.install c (oid 1) ~grant:(grant 1) ~expires:200.0 ~epoch:2;
  Alcotest.(check bool) "fresh epoch installs" true
    (Gdo.Lease.Cache.hit c (oid 1) ~now:150.0 <> None);
  (* A recall for an older generation than the installed lease answers
     without touching the newer lease. *)
  Alcotest.(check bool) "old-generation recall yields" true
    (Gdo.Lease.Cache.recall c (oid 1) ~epoch:1 ~excluded:None = `Yield);
  Alcotest.(check bool) "newer lease untouched" true
    (Gdo.Lease.Cache.hit c (oid 1) ~now:150.0 <> None)

let test_cache_deferred_yield () =
  let c = Gdo.Lease.Cache.create () in
  Gdo.Lease.Cache.install c (oid 1) ~grant:(grant 1) ~expires:1000.0 ~epoch:1;
  Gdo.Lease.Cache.add_reader c (oid 1) ~family:(fam 1);
  Gdo.Lease.Cache.add_reader c (oid 1) ~family:(fam 2);
  Alcotest.(check int) "two readers" 2 (Gdo.Lease.Cache.reader_count c (oid 1));
  Alcotest.(check bool) "recall deferred" true
    (Gdo.Lease.Cache.recall c (oid 1) ~epoch:1 ~excluded:None = `Deferred);
  Alcotest.(check bool) "recalled entry stops hitting" true
    (Gdo.Lease.Cache.hit c (oid 1) ~now:10.0 = None);
  Alcotest.(check bool) "first release: still blocked" true
    (Gdo.Lease.Cache.remove_reader c (oid 1) ~family:(fam 1) = `Nothing);
  Alcotest.(check bool) "last release yields" true
    (Gdo.Lease.Cache.remove_reader c (oid 1) ~family:(fam 2) = `Yield)

let test_cache_excluded_reader () =
  let c = Gdo.Lease.Cache.create () in
  Gdo.Lease.Cache.install c (oid 1) ~grant:(grant 1) ~expires:1000.0 ~epoch:1;
  Gdo.Lease.Cache.add_reader c (oid 1) ~family:(fam 1);
  Gdo.Lease.Cache.add_reader c (oid 1) ~family:(fam 9);
  (* Family 9 is the upgrading writer whose request triggered the recall:
     it must not block its own yield. *)
  Alcotest.(check bool) "only fam 1 blocks" true
    (Gdo.Lease.Cache.recall c (oid 1) ~epoch:1 ~excluded:(Some (fam 9)) = `Deferred);
  Alcotest.(check bool) "excluded's own release does not yield" true
    (Gdo.Lease.Cache.remove_reader c (oid 1) ~family:(fam 9) = `Nothing);
  Gdo.Lease.Cache.add_reader c (oid 1) ~family:(fam 9);
  Alcotest.(check bool) "blocking reader drains: yield" true
    (Gdo.Lease.Cache.remove_reader c (oid 1) ~family:(fam 1) = `Yield)

let test_cache_validation () =
  let c = Gdo.Lease.Cache.create () in
  Gdo.Lease.Cache.install c (oid 1) ~grant:(grant 1) ~expires:100.0 ~epoch:1;
  Gdo.Lease.Cache.add_reader c (oid 1) ~family:(fam 1);
  Alcotest.(check bool) "valid while fresh" true
    (Gdo.Lease.Cache.valid c (oid 1) ~family:(fam 1) ~now:50.0);
  Alcotest.(check bool) "unknown family invalid" false
    (Gdo.Lease.Cache.valid c (oid 1) ~family:(fam 2) ~now:50.0);
  Alcotest.(check bool) "expired invalid" false
    (Gdo.Lease.Cache.valid c (oid 1) ~family:(fam 1) ~now:100.0);
  (* A superseding install dooms readers admitted under the old epoch. *)
  Gdo.Lease.Cache.install c (oid 1) ~grant:(grant 1) ~expires:300.0 ~epoch:2;
  Alcotest.(check bool) "superseded invalid" false
    (Gdo.Lease.Cache.valid c (oid 1) ~family:(fam 1) ~now:50.0)

(* ---------- runtime integration ---------- *)

(* One run of the lease suite's workload at the given read-only method
   fraction and lease policy; the shared oracle asserts serializability,
   root accounting and zero-counter hygiene. *)
let run_lease ?(spec = Experiments.Lease.default_spec) protocol read_fraction policy =
  let spec = { spec with Workload.Spec.read_only_method_fraction = read_fraction } in
  let config = { Core.Config.default with Core.Config.lease = policy } in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  Experiments.Runner.metrics (Experiments.Runner.execute ~config ~protocol wl)

(* Relative change of home-node lock operations, in percent (negative =
   fewer home operations with leases on). *)
let reduction ~off ~on =
  let off = Dsm.Metrics.home_lock_ops off and on = Dsm.Metrics.home_lock_ops on in
  if off = 0 then 0.0 else 100.0 *. float_of_int (on - off) /. float_of_int off

(* The tentpole acceptance number: on a read-dominated workload (the 0.95
   read-only-method fraction of the suite spec runs ~89% read
   acquisitions), leases cut home-node lock operations by at least 30%. *)
let test_home_lock_reduction () =
  let spec = Experiments.Lease.default_spec in
  let off = run_lease Dsm.Protocol.Lotec 0.95 Gdo.Lease.Off in
  let on = run_lease Dsm.Protocol.Lotec 0.95 Experiments.Lease.default_policy in
  let t_off = Dsm.Metrics.totals off and t_on = Dsm.Metrics.totals on in
  Alcotest.(check int) "all committed (off)" spec.Workload.Spec.root_count
    t_off.Dsm.Metrics.roots_committed;
  Alcotest.(check int) "all committed (on)" spec.Workload.Spec.root_count
    t_on.Dsm.Metrics.roots_committed;
  Alcotest.(check bool) "leases actually hit" true (t_on.Dsm.Metrics.lease_hits > 0);
  Alcotest.(check bool) "writes actually recalled" true (t_on.Dsm.Metrics.lease_recalls > 0);
  let red = reduction ~off ~on in
  if red > -30.0 then
    Alcotest.failf "home_lock_ops reduction %.1f%% misses the -30%% target (off %d, on %d)" red
      (Dsm.Metrics.home_lock_ops off) (Dsm.Metrics.home_lock_ops on)

(* Same comparison, all four protocols: leases must preserve every
   protocol's invariants and reduce home traffic on the read-heavy point. *)
let test_all_protocols_reduce () =
  List.iter
    (fun protocol ->
      let off = run_lease protocol 0.95 Gdo.Lease.Off in
      let on = run_lease protocol 0.95 Experiments.Lease.default_policy in
      let red = reduction ~off ~on in
      if red >= 0.0 then
        Alcotest.failf "%s: leases did not reduce home ops (%.1f%%)"
          (Dsm.Protocol.to_string protocol) red)
    Dsm.Protocol.all

(* With the Off policy the whole subsystem must be invisible: identical
   traffic, bytes and completion to a run without the lease code paths. *)
let test_off_is_invisible () =
  let spec = { Experiments.Lease.default_spec with Workload.Spec.root_count = 40 } in
  let t = Dsm.Metrics.totals (run_lease ~spec Dsm.Protocol.Lotec 0.8 Gdo.Lease.Off) in
  Alcotest.(check int) "no grants" 0 t.Dsm.Metrics.lease_grants;
  Alcotest.(check int) "no hits" 0 t.Dsm.Metrics.lease_hits;
  Alcotest.(check int) "no recalls" 0 t.Dsm.Metrics.lease_recalls

(* Determinism: leases introduce timers and extra messages, but a repeated
   run must still be byte-identical. *)
let test_leased_run_deterministic () =
  let spec = { Experiments.Lease.default_spec with Workload.Spec.root_count = 60 } in
  let run () = run_lease ~spec Dsm.Protocol.Lotec 0.9 Experiments.Lease.default_policy in
  let a = run () and b = run () in
  Alcotest.(check int) "messages" (Dsm.Metrics.total_messages a) (Dsm.Metrics.total_messages b);
  Alcotest.(check int) "bytes" (Dsm.Metrics.total_bytes a) (Dsm.Metrics.total_bytes b);
  Alcotest.(check int) "hits" (Dsm.Metrics.totals a).Dsm.Metrics.lease_hits
    (Dsm.Metrics.totals b).Dsm.Metrics.lease_hits;
  Alcotest.(check (float 0.0)) "completion" (Dsm.Metrics.completion_time_us a)
    (Dsm.Metrics.completion_time_us b)

(* ---------- leases under chaos ---------- *)

let chaos_spec =
  {
    Experiments.Lease.default_spec with
    Workload.Spec.root_count = 40;
    read_only_method_fraction = 0.9;
  }

let leased_config ?(windows = []) ~fault_seed ~drop ~dup ~jitter () =
  {
    Core.Config.default with
    Core.Config.lease = Experiments.Lease.default_policy;
    faults =
      Some
        {
          Sim.Fault.seed = fault_seed;
          drop_probability = drop;
          duplicate_probability = dup;
          delay_jitter_us = jitter;
          windows;
          link_windows = [];
        };
  }

(* Recalls and yields ride the reliable transport: with drops and
   duplicates injected, every chaos invariant still holds (Runner.execute
   asserts serializability; Failure fails the test). *)
let test_leases_under_faults () =
  let config = leased_config ~fault_seed:11 ~drop:0.08 ~dup:0.08 ~jitter:40.0 () in
  let wl = Workload.Generator.generate chaos_spec ~page_size:4096 in
  let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
  let m = Experiments.Runner.metrics run in
  let t = Dsm.Metrics.totals m in
  Alcotest.(check int) "all roots accounted" chaos_spec.Workload.Spec.root_count
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  Alcotest.(check (list string)) "oracle clean (ledger balanced)" []
    (Experiments.Runner.oracle run);
  Alcotest.(check bool) "faults were injected" true (t.Dsm.Metrics.drops > 0);
  Alcotest.(check bool) "leases were exercised" true (t.Dsm.Metrics.lease_grants > 0)

(* Recalls racing node pause/crash windows: a recall sent into an outage is
   retransmitted (or resolved by the TTL force-clear), and the run still
   completes with a serializable history. *)
let test_leases_across_crash_windows () =
  let windows =
    [
      { Sim.Fault.w_node = 1; w_kind = Sim.Fault.Pause; w_from_us = 2_000.0; w_until_us = 7_000.0 };
      { Sim.Fault.w_node = 2; w_kind = Sim.Fault.Crash; w_from_us = 4_000.0; w_until_us = 12_000.0 };
    ]
  in
  let config = leased_config ~windows ~fault_seed:3 ~drop:0.02 ~dup:0.02 ~jitter:10.0 () in
  let wl = Workload.Generator.generate chaos_spec ~page_size:4096 in
  let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
  let m = Experiments.Runner.metrics run in
  let t = Dsm.Metrics.totals m in
  Alcotest.(check int) "all roots accounted" chaos_spec.Workload.Spec.root_count
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  Alcotest.(check (list string)) "oracle clean (ledger balanced)" []
    (Experiments.Runner.oracle run);
  Alcotest.(check bool) "outage cost retransmits" true (t.Dsm.Metrics.retransmits > 0);
  Alcotest.(check bool) "leases were exercised" true (t.Dsm.Metrics.lease_grants > 0)

(* QCheck property: for arbitrary small fault rates, seeds and TTLs, every
   invariant holds with leases enabled under every protocol. *)
let prop_leased_chaos_invariants =
  let gen =
    QCheck2.Gen.(
      quad (int_range 1 1000) (float_bound_inclusive 0.1) (float_bound_inclusive 0.1)
        (float_range 2_000.0 40_000.0))
  in
  QCheck2.Test.make ~name:"lease invariants hold under faults" ~count:8 gen
    (fun (fault_seed, drop, dup, ttl_us) ->
      List.for_all
        (fun protocol ->
          let config =
            {
              (leased_config ~fault_seed ~drop ~dup ~jitter:20.0 ()) with
              Core.Config.lease = Gdo.Lease.Fixed_ttl { ttl_us };
            }
          in
          let wl = Workload.Generator.generate chaos_spec ~page_size:4096 in
          let run = Experiments.Runner.execute ~config ~protocol wl in
          let t = Dsm.Metrics.totals (Experiments.Runner.metrics run) in
          t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted
            = chaos_spec.Workload.Spec.root_count
          && Experiments.Runner.oracle run = [])
        Dsm.Protocol.[ Otec; Lotec ])

let tests =
  [
    ( "lease",
      [
        Alcotest.test_case "policy strings" `Quick test_policy_strings;
        Alcotest.test_case "policy validation" `Quick test_policy_validation;
        Alcotest.test_case "manager off inert" `Quick test_manager_off_inert;
        Alcotest.test_case "manager grant and renew" `Quick test_manager_grant_and_renew;
        Alcotest.test_case "manager recall lifecycle" `Quick test_manager_recall_lifecycle;
        Alcotest.test_case "manager force-clear and epoch" `Quick
          test_manager_force_clear_and_epoch;
        Alcotest.test_case "cache hit and expiry" `Quick test_cache_hit_and_expiry;
        Alcotest.test_case "cache recall epoch fence" `Quick test_cache_recall_epoch_fence;
        Alcotest.test_case "cache deferred yield" `Quick test_cache_deferred_yield;
        Alcotest.test_case "cache excluded reader" `Quick test_cache_excluded_reader;
        Alcotest.test_case "cache validation" `Quick test_cache_validation;
        Alcotest.test_case "home lock ops cut >=30%" `Quick test_home_lock_reduction;
        Alcotest.test_case "every protocol reduces" `Quick test_all_protocols_reduce;
        Alcotest.test_case "off is invisible" `Quick test_off_is_invisible;
        Alcotest.test_case "leased run deterministic" `Quick test_leased_run_deterministic;
        Alcotest.test_case "leases under faults" `Quick test_leases_under_faults;
        Alcotest.test_case "leases across crash windows" `Quick
          test_leases_across_crash_windows;
        QCheck_alcotest.to_alcotest prop_leased_chaos_invariants;
      ] );
  ]
