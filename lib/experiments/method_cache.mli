(** Method-cache suite: the method-result cache (see {!Dsm.Method_cache})
    against two baselines, on the web-serving workload.

    For each protocol and request-level read share, the same workload runs
    three ways: [baseline] (leases and cache off — the paper's plain
    protocol), [lease] (read leases on), and the cached arm (leases {e and}
    the method-result cache on; the cache requires the lease as its
    invalidation signal, see {!Core.Config}).

    The lease does the message-elimination heavy lifting — a cache hit was
    already a zero-message acquisition with the lease alone. What the cache
    adds on top is skipping the method body entirely: no local page reads,
    no per-statement CPU, no lock-table churn — visible in completion
    time and in the hit-rate column rather than in messages. The shared
    oracle's serializability check is what pins "a cache hit is
    indistinguishable from re-execution". *)

val default_spec : Workload.Spec.t
(** {!Workload.Scenarios.web_sessions}: tiny hot objects re-read from every
    node. [root_update_fraction] is overridden per case. *)

val default_lease : Gdo.Lease.policy
(** The [Fixed_ttl] policy paired with every lease-on arm. *)

val default_policy : Dsm.Method_cache.policy
(** LRU at {!Dsm.Method_cache.default_capacity}. *)

val suite : Suite.t
(** All four protocols × read shares [[0.8; 0.95; 0.99]], arms [baseline],
    [lease] and cached. Gates: the best cached-LOTEC hit rate is at least
    0.5, and the best cached-LOTEC message reduction against [baseline] at
    a read share of at least 0.95 is at least 5×. *)
