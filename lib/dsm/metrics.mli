(** Measurement ledger for a simulation run.

    Records, per shared object, the consistency traffic (message and byte
    counts, split control/data), plus the run's counters in one {!totals}
    record. The per-object message ledger is what regenerates the paper's
    figures:

    - Figures 2–5 plot [data_bytes] (+ control) per object;
    - Figures 6–8 replay the ledger through {!total_time_us} for a grid of
      (bandwidth × software cost) link parameters — exactly how the authors
      "instrumented [the] simulator to assess the effects of changing the
      network bandwidth and message initiation overhead". *)

type per_object = {
  mutable messages : int;
  mutable control_messages : int;
  mutable control_bytes : int;
  mutable data_messages : int;
  mutable data_bytes : int;
  mutable demand_fetches : int;
  mutable acquisitions : int;  (** global lock acquisitions granted *)
}

type totals = {
  mutable roots_committed : int;
      (** Transactions and locks: roots committed and given up, deadlock and
          sub-transaction aborts, root retries, local and global lock
          acquisitions, write-upon-read upgrades, eager page pushes and demand
          fetches. *)
  mutable roots_aborted : int;
  mutable deadlock_aborts : int;
  mutable sub_aborts : int;
  mutable retries : int;
  mutable local_acquisitions : int;
  mutable global_acquisitions : int;
  mutable upgrades : int;
  mutable eager_pushes : int;
  mutable demand_fetches : int;

  mutable drops : int;
      (** Fault injection: see [Sim.Fault] and the runtime's reliable
          transport. Network-level drops (including crash-window losses) and
          duplicates, and transport-level retransmissions and retransmit-timer
          expiries. All zero on a fault-free run. *)
  mutable duplicates : int;
  mutable retransmits : int;
  mutable timeouts : int;

  mutable gdo_releases : int;
      (** Leases: see [Gdo.Lease]. Leases granted by homes, read acquisitions
          satisfied locally by a valid lease (zero home-node messages), recall
          messages sent, yields received, recalls resolved by TTL expiry
          instead of yields, and families aborted by commit/upgrade-time lease
          validation. [gdo_releases] counts release batches the home processes
          — together with acquisitions and recall traffic it makes up
          {!home_lock_ops}. All zero when the lease policy is [Off] (except
          [gdo_releases]). *)
  mutable lease_grants : int;
  mutable lease_hits : int;
  mutable lease_recalls : int;
  mutable lease_yields : int;
  mutable lease_expiries : int;
  mutable lease_aborts : int;

  mutable give_ups : int;
      (** Crash recovery: see [Sim.Failure_detector] and DESIGN.md "Failure
          model & recovery". Reliable-transport deliveries abandoned after
          [max_retransmits] (each surfaces as a suspect hint, never a stall),
          root families aborted by a crash, nodes declared dead by the
          suspicion protocol, dead families evicted from the directory, and GDO
          home failovers. All zero on a crash-free run. *)
  mutable crash_aborts : int;
  mutable nodes_declared_dead : int;
  mutable families_reclaimed : int;
  mutable failovers : int;

  mutable quorum_votes : int;
      (** Quorum membership: see DESIGN.md "Failure model & recovery".
          Suspicion corroborations recorded by the quorum detector (one per
          distinct (observer, suspect, incarnation)), declarations whose
          subject was in fact alive (a partition or gray failure, not a crash —
          ground truth is consulted for this tally only, never for the protocol
          decision), falsely-declared nodes readmitted on proof of life,
          state-changing requests rejected for carrying a stale membership
          epoch (or arriving at a node no longer serving the partition),
          acquire processing deferred until a declared node's outstanding
          leases provably expired, and nodes that parked because they could no
          longer reach a majority. All zero unless crash or link windows are
          configured. *)
  mutable false_suspicions : int;
  mutable node_readmissions : int;
  mutable stale_epoch_rejects : int;
  mutable fence_deferrals : int;
  mutable node_parks : int;

  mutable acks_piggybacked : int;
      (** Message combining: see [Dsm.Batching]. Transport acks that rode a
          payload instead of travelling standalone (and the flush messages that
          carried the rest), extra predicted pages aggregated into demand-fetch
          rounds that would otherwise have needed their own request/reply
          pairs, release batches merged into another family's [Release]
          message, and periodic heartbeats suppressed because the channel
          carried recent traffic. All zero when batching is off. *)
  mutable acks_flushed : int;
  mutable fetches_aggregated : int;
  mutable releases_coalesced : int;
  mutable heartbeats_suppressed : int;

  mutable cache_hits : int;
      (** Method cache: see [Dsm.Method_cache]. Consults of the per-node
          method-result cache that hit (the invocation was served from the
          cached read log — zero messages, zero page reads) or missed,
          executions whose read log was installed into the cache, and entries
          wiped by the lease layer's invalidation hooks (recall/expiry/epoch
          bump) or a node crash. All zero when the method-cache policy is
          [Off]. *)
  mutable cache_misses : int;
  mutable cache_fills : int;
  mutable cache_invalidations : int;

  mutable ships : int;
      (** Function shipping: see [Dsm.Shipping]. Cost-model verdicts that
          shipped the invocation to its majority home, verdicts that kept it at
          the invoker, re-invocations forced to an already-pinned execution
          site without consulting the model (one site per (family, object)),
          and the cumulative predicted wire-byte saving of the shipped calls
          (stale-page bytes avoided minus invoke/reply/residual bytes — a
          model-side estimate; the measured saving is the byte-ledger delta the
          ship experiment reports). All zero when the shipping policy is
          [Off]. *)
  mutable ship_declines : int;
  mutable ships_forced : int;
  mutable ship_bytes_saved : int;

  mutable escrow_reserves : int;
      (** Escrow: see [Dsm.Escrow]. Delta reservations admitted at GDO homes
          (one per [Escrow_request]/[Escrow_reply] round trip), commutative
          calls committed locally against delegated quota with zero messages,
          lazy [Escrow_reconcile] pushes of accumulated local deltas, quota
          recall round trips the home initiated for a conflicting exclusive
          access (and the yields that answered them), reservations refused
          (bounds or a held lock — the call fell back to the exclusive-lock
          path), and quota units delegated to nodes. All zero when the escrow
          policy is [Off]. *)
  mutable escrow_local_commits : int;
  mutable escrow_reconciles : int;
  mutable escrow_recalls : int;
  mutable escrow_yields : int;
  mutable escrow_refusals : int;
  mutable escrow_quota_units : int;
}
(** The run's counters, one field each. *)

type t

val create : unit -> t
(** Fresh ledger: every counter zero, every histogram empty. *)

val counters : t -> totals
(** The live counter record. The runtime counts by updating its fields in
    place ([c.drops <- c.drops + 1]). *)

val totals : t -> totals
(** A snapshot of {!counters}: later updates do not change it. *)

(** Four counters also have a one-line update function, because the
    metrics replay in [perfbench/replay.ml] times these calls. *)

val incr_roots_committed : t -> unit
val incr_retries : t -> unit
val incr_upgrades : t -> unit
val incr_global_acquisitions : t -> unit

val record_message :
  t -> oid:Objmodel.Oid.t -> kind:Sim.Network.kind -> bytes:int -> unit
(** Fed from the network's [on_message] hook; [oid] comes from the message
    tag. Untagged traffic (negative tag in the hook) should be recorded
    against {!untagged}. *)

val untagged : Objmodel.Oid.t
(** Pseudo-object charging traffic not attributable to a single object
    (multi-object root release messages). *)

val record_demand_fetch : t -> oid:Objmodel.Oid.t -> unit
(** Counts one demand fetch of [oid], per object and in
    [(counters t).demand_fetches]. *)

val record_acquisition : t -> oid:Objmodel.Oid.t -> unit

(** {1 Per-message-type wire ledger}

    The runtime records every remote protocol message under its
    {!Wire.t} type at send time, retransmitted copies included (under the
    original type), in parallel with the per-object ledger fed by the
    network hook. The two reconcile exactly: {!wire_messages_total} equals
    {!total_messages} and {!wire_bytes_total} equals {!total_bytes} — the
    invariant is test-enforced. This is the breakdown that makes the
    paper's messages-vs-bytes tradeoff visible per message type (see
    OBSERVABILITY.md). *)

val record_wire : t -> mtype:Wire.t -> bytes:int -> unit

val record_rider : t -> mtype:Wire.t -> count:int -> bytes:int -> unit
(** Account [count] control payloads of type [mtype] that rode a carrier
    message of another type (piggybacked acks on a payload, a heartbeat
    satisfied by data traffic): the rider's bytes are added under [mtype]
    with {e zero} messages, because the carrier was already counted as one
    message carrying its base-plus-rider bytes. Both reconciliation
    equalities above keep holding exactly with riders present. *)

val wire_breakdown : t -> (Wire.t * int * int) list
(** [(type, messages, bytes)] for every catalog type, in {!Wire.all}
    order, zero rows included. Bytes include rider bytes recorded under the
    type. *)

val wire_messages_total : t -> int
val wire_bytes_total : t -> int

val wire_riders_total : t -> int
(** Total combined payloads across all types; 0 without batching. *)

val pp_wire_breakdown : Format.formatter -> t -> unit
(** Table of the non-zero rows of {!wire_breakdown} plus a total line; a
    riders column appears when any payload was combined. *)

(** {1 Latency histograms}

    HDR-style distributions (see {!Histogram}) recorded by the runtime:

    - {e acquire}: global lock acquisition, from the request leaving the
      fiber to the grant being installed (granted acquires only);
    - {e commit}: submission to root commit, committed roots only —
      retries and their backoff included;
    - {e recall}: lease recall-to-clear, from the home issuing the recall
      to the last yield arriving (or the TTL force-clear);
    - {e recovery}: crash-to-recommit, from a root family's first
      crash-induced abort to its eventual commit (committed,
      crash-affected roots only). *)

val acquire_latency : t -> Histogram.t
val commit_latency : t -> Histogram.t
val recall_latency : t -> Histogram.t
val recovery_latency : t -> Histogram.t

val declaration_latency : t -> Histogram.t
(** Suspicion-to-declaration: from an observer first suspecting a node to
    the quorum declaring that (node, incarnation) dead. Empty unless the
    membership machinery declared someone. *)

val record_acquire_latency_us : t -> float -> unit
val record_commit_latency_us : t -> float -> unit
val record_recall_latency_us : t -> float -> unit
val record_recovery_latency_us : t -> float -> unit
val record_declaration_latency_us : t -> float -> unit

val pp_latencies : Format.formatter -> t -> unit
(** p50/p90/p99/max lines for the histograms (recall and recovery only
    when non-empty). *)

(** {1 Totals} *)

val home_lock_ops : t -> int
(** Lock-protocol operations processed by GDO homes: global acquisitions +
    upgrades + release batches + recall/yield messages. The lease
    experiment's headline metric. *)

val per_object : t -> Objmodel.Oid.t -> per_object
(** Zeroed entry if the object generated no traffic. *)

val objects : t -> Objmodel.Oid.t list
(** Objects with recorded traffic, ascending (excludes {!untagged} unless it
    has traffic). *)

val total_bytes : t -> int
val total_data_bytes : t -> int
val total_messages : t -> int

val total_time_us : t -> link:Sim.Network.link -> float
(** Total message time of the run's consistency traffic under the given
    link: [messages * software_cost + bytes * 8 / bandwidth]. *)

val total_time_us_am :
  t -> link:Sim.Network.link -> control_software_cost_us:float -> float
(** Active-messages variant of {!total_time_us} (paper §6: "integration of
    active messaging into LOTEC to improve its performance for gigabit
    networks"): control messages — lock traffic, page requests, the small
    messages LOTEC sends many of — are charged
    [control_software_cost_us] instead of the link's software cost; data
    messages and all serialisation terms are unchanged. *)

val completion_time_us : t -> float
val set_completion_time_us : t -> float -> unit
(** Simulated makespan of the run, recorded by the runtime. *)

val pp_summary : Format.formatter -> t -> unit
