(* The web-sessions preset: tiny hot objects re-read from every node, almost
   no writers. Repeat invocations hit the same (oid, method) pairs at an
   unchanged version vector — exactly what the method cache serves. *)
let default_spec = Workload.Scenarios.web_sessions

(* Lease policy paired with every cache-on (and lease-only) case. Same
   reasoning as the lease suite's default — the TTL bounds a deferred
   yield well below the makespan — but longer: web runs are read-dominated
   enough that expiry-and-re-grant churn on hot objects, not write stalls,
   is the binding cost. *)
let default_lease = Gdo.Lease.Fixed_ttl { ttl_us = 60_000.0 }

let default_policy = Dsm.Method_cache.Lru { capacity = Dsm.Method_cache.default_capacity }
let cached_arm = "cache:" ^ Dsm.Method_cache.policy_to_string default_policy

let cached_lotec row = row.Suite.protocol = Dsm.Protocol.Lotec && row.Suite.arm = cached_arm

let suite =
  {
    Suite.name = "cache";
    protocols = Dsm.Protocol.all;
    spec = default_spec;
    (* The axis is the request-level read share: [1 - read_fraction] of
       roots hit the writer endpoint (see
       {!Workload.Spec.root_update_fraction}). The web specs make every
       non-writer method read-only, so this is the whole read/write mix. *)
    cases =
      List.map
        (fun read ->
          Suite.case
            [ ("read_fraction", Printf.sprintf "%.2f" read) ]
            ~workload:(fun s -> { s with Workload.Spec.root_update_fraction = Some (1.0 -. read) }))
        [ 0.8; 0.95; 0.99 ];
    (* The lease does the message-elimination heavy lifting — a cache hit
       was already a zero-message acquisition under the lease alone. What
       the cache adds on top is skipping the method body entirely, visible
       in completion time and in the hit-rate column. *)
    arms =
      [
        ( "baseline",
          fun c -> { c with Core.Config.lease = Gdo.Lease.Off; method_cache = Dsm.Method_cache.off }
        );
        ( "lease",
          fun c -> { c with Core.Config.lease = default_lease; method_cache = Dsm.Method_cache.off }
        );
        ( cached_arm,
          fun c -> { c with Core.Config.lease = default_lease; method_cache = default_policy } );
      ];
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          total_messages;
          total_bytes;
          counter "lease_hits" (fun t -> t.lease_hits);
          counter "cache_hits" (fun t -> t.cache_hits);
          counter "cache_misses" (fun t -> t.cache_misses);
          ( "cache_hit_rate",
            fun run ->
              let t = Dsm.Metrics.totals (Runner.metrics run) in
              let consults = t.cache_hits + t.cache_misses in
              Float
                (if consults = 0 then 0.0
                 else float_of_int t.cache_hits /. float_of_int consults) );
          counter "cache_fills" (fun t -> t.cache_fills);
          counter "cache_invalidations" (fun t -> t.cache_invalidations);
          completion_time_us;
        ];
    gates =
      Suite.
        [
          gate ~every:false "best cached-LOTEC hit rate" ~select:cached_lotec
            ~metric:(fun ~peer:_ row -> get row "cache_hit_rate")
            (At_least 0.5);
          gate ~every:false
            "best cached-LOTEC message reduction factor vs baseline at read share >= 0.95"
            ~select:(fun row ->
              cached_lotec row && float_of_string (label row "read_fraction") >= 0.95)
            ~metric:(fun ~peer row ->
              get (peer ~arm:"baseline" ()) "total_messages" /. get row "total_messages")
            (At_least 5.0);
        ];
  }
