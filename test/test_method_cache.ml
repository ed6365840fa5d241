(* Method-result cache tests: the Dsm.Method_cache policy and per-node store
   as pure data structures, config validation (the cache requires a lease),
   the cache-off byte-identity guarantee against the pre-cache goldens for
   all four protocols, the headline hit-rate / message-reduction gates on
   the web-serving workload, and the racy paths — recalls invalidating
   in-flight cached objects, and epoch bumps inside crash windows. *)

open Objmodel

let oid = Oid.of_int
let lru capacity = Dsm.Method_cache.Lru { capacity }

(* ---------- policy ---------- *)

let test_policy_strings () =
  List.iter
    (fun (s, expect) ->
      match Dsm.Method_cache.policy_of_string s with
      | Ok p -> Alcotest.(check string) s expect (Dsm.Method_cache.policy_to_string p)
      | Error e -> Alcotest.fail e)
    [ ("off", "off"); ("none", "off"); ("on", "lru"); ("lru", "lru"); ("LRU:8", "lru") ];
  (match Dsm.Method_cache.policy_of_string "lru:8" with
  | Ok (Dsm.Method_cache.Lru { capacity }) -> Alcotest.(check int) "capacity parsed" 8 capacity
  | _ -> Alcotest.fail "lru:8 should parse");
  (match Dsm.Method_cache.policy_of_string "on" with
  | Ok (Dsm.Method_cache.Lru { capacity }) ->
      Alcotest.(check int) "default capacity" Dsm.Method_cache.default_capacity capacity
  | _ -> Alcotest.fail "on should parse as lru");
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Dsm.Method_cache.policy_of_string "sometimes"));
  Alcotest.(check bool) "bad capacity rejected" true
    (Result.is_error (Dsm.Method_cache.policy_of_string "lru:zero"))

let test_policy_validation () =
  let bad p = Result.is_error (Dsm.Method_cache.validate_policy p) in
  Alcotest.(check bool) "off ok" false (bad Dsm.Method_cache.off);
  Alcotest.(check bool) "lru ok" false (bad (lru 1));
  Alcotest.(check bool) "zero capacity" true (bad (lru 0));
  Alcotest.(check bool) "negative capacity" true (bad (lru (-4)));
  Alcotest.(check bool) "off disabled" false (Dsm.Method_cache.policy_enabled Dsm.Method_cache.off);
  Alcotest.(check bool) "lru enabled" true (Dsm.Method_cache.policy_enabled (lru 1));
  Alcotest.(check string) "pp shows capacity" "lru(8)"
    (Format.asprintf "%a" Dsm.Method_cache.pp_policy (lru 8))

(* ---------- per-node store ---------- *)

let reads_a = [ (0, 1); (1, 3) ]

let test_store_off_inert () =
  let t = Dsm.Method_cache.create Dsm.Method_cache.off in
  Alcotest.(check bool) "disabled" false (Dsm.Method_cache.enabled t);
  Alcotest.(check bool) "install refused" false
    (Dsm.Method_cache.install t ~oid:(oid 1) ~meth:"m1" ~versions:[| 1 |] ~reads:reads_a);
  Alcotest.(check bool) "find misses" true
    (Dsm.Method_cache.find t ~oid:(oid 1) ~meth:"m1" ~versions:[| 1 |] = None);
  Alcotest.(check int) "empty" 0 (Dsm.Method_cache.entry_count t)

let test_store_hit_and_version_eviction () =
  let t = Dsm.Method_cache.create (lru 8) in
  Alcotest.(check bool) "filled" true
    (Dsm.Method_cache.install t ~oid:(oid 1) ~meth:"m1" ~versions:[| 1; 3 |] ~reads:reads_a);
  Alcotest.(check bool) "duplicate refused" false
    (Dsm.Method_cache.install t ~oid:(oid 1) ~meth:"m1" ~versions:[| 1; 3 |] ~reads:reads_a);
  (match Dsm.Method_cache.find t ~oid:(oid 1) ~meth:"m1" ~versions:[| 1; 3 |] with
  | Some reads -> Alcotest.(check (list (pair int int))) "read log" reads_a reads
  | None -> Alcotest.fail "expected a hit");
  Alcotest.(check bool) "other method misses" true
    (Dsm.Method_cache.find t ~oid:(oid 1) ~meth:"m2" ~versions:[| 1; 3 |] = None);
  (* The lazy version-advance invalidation: a key hit at different versions
     drops the stale entry, so even the original versions miss afterwards. *)
  Alcotest.(check bool) "stale versions miss" true
    (Dsm.Method_cache.find t ~oid:(oid 1) ~meth:"m1" ~versions:[| 2; 3 |] = None);
  Alcotest.(check int) "stale entry dropped" 0 (Dsm.Method_cache.entry_count t);
  Alcotest.(check bool) "original versions also gone" true
    (Dsm.Method_cache.find t ~oid:(oid 1) ~meth:"m1" ~versions:[| 1; 3 |] = None)

let test_store_lru_eviction () =
  let t = Dsm.Method_cache.create (lru 2) in
  let install o = ignore (Dsm.Method_cache.install t ~oid:(oid o) ~meth:"m1" ~versions:[| 1 |] ~reads:reads_a) in
  install 1;
  install 2;
  (* Touch 1 so 2 becomes the LRU victim. *)
  ignore (Dsm.Method_cache.find t ~oid:(oid 1) ~meth:"m1" ~versions:[| 1 |]);
  install 3;
  Alcotest.(check int) "at capacity" 2 (Dsm.Method_cache.entry_count t);
  Alcotest.(check bool) "LRU victim evicted" true
    (Dsm.Method_cache.find t ~oid:(oid 2) ~meth:"m1" ~versions:[| 1 |] = None);
  Alcotest.(check bool) "recently used survives" true
    (Dsm.Method_cache.find t ~oid:(oid 1) ~meth:"m1" ~versions:[| 1 |] <> None);
  Alcotest.(check bool) "newcomer present" true
    (Dsm.Method_cache.find t ~oid:(oid 3) ~meth:"m1" ~versions:[| 1 |] <> None)

let test_store_invalidate_and_clear () =
  let t = Dsm.Method_cache.create (lru 8) in
  let install o m = ignore (Dsm.Method_cache.install t ~oid:(oid o) ~meth:m ~versions:[| 1 |] ~reads:reads_a) in
  install 1 "m1";
  install 1 "m2";
  install 2 "m1";
  Alcotest.(check int) "object wiped (all methods)" 2
    (Dsm.Method_cache.invalidate_object t (oid 1));
  Alcotest.(check bool) "other object untouched" true
    (Dsm.Method_cache.find t ~oid:(oid 2) ~meth:"m1" ~versions:[| 1 |] <> None);
  Alcotest.(check int) "idempotent" 0 (Dsm.Method_cache.invalidate_object t (oid 1));
  Alcotest.(check int) "clear drops the rest" 1 (Dsm.Method_cache.clear t);
  Alcotest.(check int) "empty after clear" 0 (Dsm.Method_cache.entry_count t)

(* QCheck property: under any install/find/invalidate sequence the entry
   count never exceeds the LRU capacity. *)
let prop_capacity_bound =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 6)
        (list_size (int_range 0 60) (triple (int_range 0 9) (int_range 0 3) (int_range 1 3))))
  in
  QCheck2.Test.make ~name:"method cache never exceeds capacity" ~count:50 gen
    (fun (capacity, ops) ->
      let t = Dsm.Method_cache.create (lru capacity) in
      List.for_all
        (fun (o, m, v) ->
          let meth = Printf.sprintf "m%d" m in
          (match m mod 3 with
          | 0 ->
              ignore
                (Dsm.Method_cache.install t ~oid:(oid o) ~meth ~versions:[| v |] ~reads:reads_a)
          | 1 -> ignore (Dsm.Method_cache.find t ~oid:(oid o) ~meth ~versions:[| v |])
          | _ -> ignore (Dsm.Method_cache.invalidate_object t (oid o)));
          Dsm.Method_cache.entry_count t <= capacity)
        ops)

(* ---------- config validation ---------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_config_requires_lease () =
  let config = { Core.Config.default with Core.Config.method_cache = lru 8 } in
  (match Core.Config.validate config with
  | Error msg ->
      Alcotest.(check bool) "error names the lease" true
        (contains ~sub:"lease" (String.lowercase_ascii msg))
  | Ok () -> Alcotest.fail "cache without a lease must be rejected");
  let ok =
    { config with Core.Config.lease = Gdo.Lease.Fixed_ttl { ttl_us = 1000.0 } }
  in
  Alcotest.(check bool) "cache over a lease validates" true
    (Result.is_ok (Core.Config.validate ok))

(* ---------- cache off: byte-identity against the pre-cache goldens ---------- *)

let golden_spec =
  {
    (Workload.Scenarios.spec Workload.Scenarios.High Workload.Scenarios.Medium) with
    Workload.Spec.root_count = 40;
    seed = 42;
  }

(* The first three rows are the goldens from test_chaos.ml, captured before
   the cache subsystem existed; Rc_nested is recorded here for the first
   time. With method_cache = Off the runtime must be byte-identical. *)
let goldens =
  [
    (Dsm.Protocol.Cotec, (484, 1_169_012, 25968.873648));
    (Dsm.Protocol.Otec, (419, 956_560, 20047.449955));
    (Dsm.Protocol.Lotec, (370, 731_252, 19580.172744));
    (Dsm.Protocol.Rc_nested, (425, 1_606_888, 20610.322997));
  ]

let test_cache_off_byte_identity () =
  let wl = Workload.Generator.generate golden_spec ~page_size:4096 in
  let config = { Core.Config.default with Core.Config.method_cache = Dsm.Method_cache.off } in
  List.iter
    (fun (protocol, (messages, bytes, completion)) ->
      let name = Format.asprintf "%a" Dsm.Protocol.pp protocol in
      let m = Experiments.Runner.metrics (Experiments.Runner.execute ~config ~protocol wl) in
      let t = Dsm.Metrics.totals m in
      Alcotest.(check int) (name ^ " messages") messages (Dsm.Metrics.total_messages m);
      Alcotest.(check int) (name ^ " bytes") bytes (Dsm.Metrics.total_bytes m);
      Alcotest.(check (float 1e-6)) (name ^ " completion") completion
        (Dsm.Metrics.completion_time_us m);
      Alcotest.(check int) (name ^ " no cache hits") 0 t.Dsm.Metrics.cache_hits;
      Alcotest.(check int) (name ^ " no cache misses") 0 t.Dsm.Metrics.cache_misses;
      Alcotest.(check int) (name ^ " no cache fills") 0 t.Dsm.Metrics.cache_fills;
      Alcotest.(check int) (name ^ " no invalidations") 0 t.Dsm.Metrics.cache_invalidations)
    goldens

(* ---------- runtime integration: the headline gates ---------- *)

(* One web-sessions run at a request-level read share: [1 - read_fraction]
   of roots hit the writer endpoint. [cached] turns on the lease and the
   cache (the cache suite's cached arm); otherwise both stay off (its
   baseline arm). The shared oracle asserts serializability, root
   accounting, zero-counter hygiene and exact wire-ledger reconciliation. *)
let run_web ?(spec = Workload.Scenarios.web_sessions) ~cached protocol read_fraction =
  let spec = { spec with Workload.Spec.root_update_fraction = Some (1.0 -. read_fraction) } in
  let config =
    if cached then
      {
        Core.Config.default with
        Core.Config.lease = Experiments.Method_cache.default_lease;
        method_cache = Experiments.Method_cache.default_policy;
      }
    else Core.Config.default
  in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let m = Experiments.Runner.metrics (Experiments.Runner.execute ~config ~protocol wl) in
  (m, Dsm.Metrics.totals m)

(* The acceptance numbers: on web-sessions at a 0.99 request read share,
   LOTEC with the cache serves at least half its consults from cache and
   moves at least 5x fewer messages than the everything-off baseline. *)
let test_lotec_headline_gates () =
  let spec = Workload.Scenarios.web_sessions in
  let base, tb = run_web ~cached:false Dsm.Protocol.Lotec 0.99 in
  let on, t = run_web ~cached:true Dsm.Protocol.Lotec 0.99 in
  Alcotest.(check int) "all committed (baseline)" spec.Workload.Spec.root_count
    (tb.Dsm.Metrics.roots_committed + tb.Dsm.Metrics.roots_aborted);
  Alcotest.(check int) "all committed (cached)" spec.Workload.Spec.root_count
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  let hits = t.Dsm.Metrics.cache_hits and misses = t.Dsm.Metrics.cache_misses in
  let rate = if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) in
  if rate < 0.5 then
    Alcotest.failf "hit rate %.2f misses the 0.5 floor (%d hits, %d misses)" rate hits misses;
  let factor =
    float_of_int (Dsm.Metrics.total_messages base) /. float_of_int (Dsm.Metrics.total_messages on)
  in
  if factor < 5.0 then
    Alcotest.failf "message factor %.2fx misses the 5x floor (%d vs %d msgs)" factor
      (Dsm.Metrics.total_messages base) (Dsm.Metrics.total_messages on)

(* Every protocol must keep its invariants with the cache on and actually
   use it on the read-heavy point (the oracle asserts the rest). *)
let test_all_protocols_cache () =
  List.iter
    (fun protocol ->
      let _, t = run_web ~cached:true protocol 0.95 in
      if t.Dsm.Metrics.cache_hits = 0 then
        Alcotest.failf "%s: cache never hit" (Dsm.Protocol.to_string protocol))
    Dsm.Protocol.all

(* Recall racing an in-flight cached invocation: at a 0.8 read share the
   web-sessions run interleaves writes (lease recalls, epoch bumps) with a
   steady stream of cached reads, so invalidations land while cached
   invocations are outstanding. The oracle asserts the committed history
   stays serializable and the wire ledger still reconciles exactly. *)
let test_recall_races_cached_reads () =
  let _, t = run_web ~cached:true Dsm.Protocol.Lotec 0.8 in
  Alcotest.(check bool) "cache hit under write pressure" true (t.Dsm.Metrics.cache_hits > 0);
  Alcotest.(check bool) "recalls invalidated entries" true (t.Dsm.Metrics.cache_invalidations > 0);
  Alcotest.(check bool) "writes were present" true
    (t.Dsm.Metrics.roots_aborted + t.Dsm.Metrics.roots_committed > 0
    && t.Dsm.Metrics.cache_misses > 0)

(* Determinism: the cache adds lookups and invalidation hooks, but a
   repeated run must still be byte-identical. *)
let test_cached_run_deterministic () =
  let spec = { Workload.Scenarios.web_sessions with Workload.Spec.root_count = 200 } in
  let run () = run_web ~spec ~cached:true Dsm.Protocol.Lotec 0.95 in
  let a, ta = run () and b, tb = run () in
  Alcotest.(check int) "messages" (Dsm.Metrics.total_messages a) (Dsm.Metrics.total_messages b);
  Alcotest.(check int) "bytes" (Dsm.Metrics.total_bytes a) (Dsm.Metrics.total_bytes b);
  Alcotest.(check int) "hits" ta.Dsm.Metrics.cache_hits tb.Dsm.Metrics.cache_hits;
  Alcotest.(check int) "fills" ta.Dsm.Metrics.cache_fills tb.Dsm.Metrics.cache_fills;
  Alcotest.(check int) "invalidations" ta.Dsm.Metrics.cache_invalidations
    tb.Dsm.Metrics.cache_invalidations;
  Alcotest.(check (float 0.0)) "completion" (Dsm.Metrics.completion_time_us a)
    (Dsm.Metrics.completion_time_us b)

(* ---------- cache under chaos and crash windows ---------- *)

let chaos_spec =
  {
    Workload.Scenarios.web_sessions with
    Workload.Spec.root_count = 120;
    root_update_fraction = Some 0.15;
  }

let cached_config ?(windows = []) ~fault_seed ~drop ~dup ~jitter () =
  {
    Core.Config.default with
    Core.Config.lease = Experiments.Method_cache.default_lease;
    method_cache = Experiments.Method_cache.default_policy;
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

let check_chaos_invariants name run =
  let m = Experiments.Runner.metrics run in
  let t = Dsm.Metrics.totals m in
  Alcotest.(check int) (name ^ ": all roots accounted") chaos_spec.Workload.Spec.root_count
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  Alcotest.(check (list string)) (name ^ ": oracle clean (ledger balanced)") []
    (Experiments.Runner.oracle run);
  Alcotest.(check int) (name ^ ": wire messages reconcile") (Dsm.Metrics.total_messages m)
    (Dsm.Metrics.wire_messages_total m);
  Alcotest.(check int) (name ^ ": wire bytes reconcile") (Dsm.Metrics.total_bytes m)
    (Dsm.Metrics.wire_bytes_total m);
  t

(* Drops and duplicates against cached reads: a duplicated recall or a
   dropped grant must never let a stale cached result commit. *)
let test_cache_under_faults () =
  let config = cached_config ~fault_seed:11 ~drop:0.06 ~dup:0.06 ~jitter:30.0 () in
  let wl = Workload.Generator.generate chaos_spec ~page_size:4096 in
  let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
  let t = check_chaos_invariants "faults" run in
  Alcotest.(check bool) "faults were injected" true (t.Dsm.Metrics.drops > 0);
  Alcotest.(check bool) "cache was exercised" true (t.Dsm.Metrics.cache_hits > 0)

(* Epoch bump during a crash window: node 2 crashes mid-run (wiping its
   cache), writes recalled during the outage bump the lease epoch, and the
   dead node's entries must not resurrect as hits after restart. *)
let test_epoch_bump_in_crash_window () =
  let windows =
    [
      { Sim.Fault.w_node = 1; w_kind = Sim.Fault.Pause; w_from_us = 2_000.0; w_until_us = 6_000.0 };
      { Sim.Fault.w_node = 2; w_kind = Sim.Fault.Crash; w_from_us = 3_000.0; w_until_us = 10_000.0 };
    ]
  in
  let config = cached_config ~windows ~fault_seed:3 ~drop:0.02 ~dup:0.02 ~jitter:10.0 () in
  let wl = Workload.Generator.generate chaos_spec ~page_size:4096 in
  let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
  let t = check_chaos_invariants "crash window" run in
  Alcotest.(check bool) "outage cost retransmits" true (t.Dsm.Metrics.retransmits > 0);
  Alcotest.(check bool) "cache survived the window" true (t.Dsm.Metrics.cache_hits > 0);
  Alcotest.(check bool) "entries were invalidated" true (t.Dsm.Metrics.cache_invalidations > 0)

(* QCheck property: arbitrary small fault rates and seeds, cache on, every
   protocol keeps root accounting and an exactly reconciled ledger. *)
let prop_cached_chaos_invariants =
  let gen =
    QCheck2.Gen.(
      triple (int_range 1 1000) (float_bound_inclusive 0.08) (float_bound_inclusive 0.08))
  in
  QCheck2.Test.make ~name:"cache invariants hold under faults" ~count:6 gen
    (fun (fault_seed, drop, dup) ->
      List.for_all
        (fun protocol ->
          let config = cached_config ~fault_seed ~drop ~dup ~jitter:20.0 () in
          let wl = Workload.Generator.generate chaos_spec ~page_size:4096 in
          let m = Experiments.Runner.metrics (Experiments.Runner.execute ~config ~protocol wl) in
          let t = Dsm.Metrics.totals m in
          t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted
            = chaos_spec.Workload.Spec.root_count
          && Dsm.Metrics.wire_messages_total m = Dsm.Metrics.total_messages m
          && Dsm.Metrics.wire_bytes_total m = Dsm.Metrics.total_bytes m)
        Dsm.Protocol.[ Otec; Lotec ])

let tests =
  [
    ( "method-cache",
      [
        Alcotest.test_case "policy strings" `Quick test_policy_strings;
        Alcotest.test_case "policy validation" `Quick test_policy_validation;
        Alcotest.test_case "store off inert" `Quick test_store_off_inert;
        Alcotest.test_case "store hit and version eviction" `Quick
          test_store_hit_and_version_eviction;
        Alcotest.test_case "store LRU eviction" `Quick test_store_lru_eviction;
        Alcotest.test_case "store invalidate and clear" `Quick test_store_invalidate_and_clear;
        QCheck_alcotest.to_alcotest prop_capacity_bound;
        Alcotest.test_case "config requires lease" `Quick test_config_requires_lease;
        Alcotest.test_case "cache off is byte-identical" `Quick test_cache_off_byte_identity;
        Alcotest.test_case "lotec headline gates" `Quick test_lotec_headline_gates;
        Alcotest.test_case "every protocol caches" `Quick test_all_protocols_cache;
        Alcotest.test_case "recall races cached reads" `Quick test_recall_races_cached_reads;
        Alcotest.test_case "cached run deterministic" `Quick test_cached_run_deterministic;
        Alcotest.test_case "cache under faults" `Quick test_cache_under_faults;
        Alcotest.test_case "epoch bump in crash window" `Quick test_epoch_bump_in_crash_window;
        QCheck_alcotest.to_alcotest prop_cached_chaos_invariants;
      ] );
  ]
