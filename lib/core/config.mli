(** Runtime configuration: protocol choice, cluster shape, cost model.

    All times are simulated microseconds; all sizes are bytes. The defaults
    correspond to the paper's setting: 4 KiB pages, a switched 100 Mbps
    network with 20 µs per-message software cost, and cheap local
    operations relative to messaging. *)

type t = {
  node_count : int;
  page_size : int;
  link : Sim.Network.link;
  protocol : Dsm.Protocol.t;
  class_protocols : (string * Dsm.Protocol.t) list;
      (** per-class protocol overrides, by class name — the paper's §6
          future-work extension ("different consistency protocols ... on a
          per-class basis"). Classes not listed use [protocol]. *)
  control_msg_bytes : int;  (** lock requests, page requests, acks *)
  gdo_replicas : int;
      (** The paper's GDO is "partitioned and replicated ... to ensure
          efficiency and reliability". Each directory mutation (lock grant,
          queue change, release) is shipped asynchronously to this many
          replica sites; 0 (default) disables replication. With crash
          windows configured the replication is {e live}: when a home
          crashes and is declared dead, its first surviving ring successor
          — a replica — takes over the partition, reconfirms holders,
          evicts the dead node's families, and serves re-routed requests
          until the home rejoins (see DESIGN.md, "Failure model &
          recovery"). With [gdo_replicas = 0] the partition is simply
          unavailable until the restart. *)
  statement_us : float;  (** CPU cost per executed IR statement *)
  abort_probability : float;
      (** chance an executing sub-transaction fails at its end (paper §3.2);
          the failure is undone locally from the sub-transaction's undo log
          ({!Txn.Undo_log}) and retried up to {!max_sub_retries} times *)
  (* Extensions (paper §5.1 / §6). *)
  prefetch : bool;  (** optimistic pre-acquisition of sub-invocation locks *)
  multicast_push : bool;  (** RC-nested pushes charged as one multicast message *)
  (* Recursion policy (paper §3.4). *)
  allow_recursive_catalogs : bool;
      (** The paper precludes mutually recursive invocations and offers two
          enforcement alternatives. [false] (default): reject cyclic
          reference graphs statically at {!Runtime.create}. [true]: admit
          them and verify at run time — each invocation walks its ancestor
          chain (cost proportional to nesting depth, as the paper notes) and
          a family that actually recurses is aborted permanently. *)
  (* Instrumentation and execution model. *)
  trace_capacity : int;  (** > 0 keeps a ring of protocol events of that size *)
  streaming : bool;
      (** Bounded-memory mode for very large runs (the 100k-root golden and
          the benchmark's stream-scale workload): per-root results and the
          serializability history are not retained — aggregate
          {!Dsm.Metrics} counters and histograms are the only output — and
          a root family's transaction-tree records are pruned
          when the family completes, so resident memory no longer grows
          with the root count. {!Runtime.results} returns [[]],
          {!Runtime.check_serializable} trivially passes. Requires a
          fault-free run ([faults = None]): the reliable transport and
          crash recovery consult completed families' records. Off by
          default — default-config runs are byte-identical to the
          pre-streaming runtime. *)
  cpu_limited : bool;
      (** serialise statement execution on one CPU per node (off by default:
          the paper's metrics are traffic-, not CPU-bound) *)
  (* Interconnect fault injection and the runtime's reliable transport. *)
  faults : Sim.Fault.config option;
      (** [None] (default): the paper's perfectly reliable switched network.
          [Some f] with {!Sim.Fault.is_active}[ f]: the network drops,
          duplicates, jitters and window-defers messages per [f], and the
          runtime layers a reliable transport (per-message acks, receiver
          dedup, sender retransmit) over every protocol message so the run
          still completes correctly. An inactive config behaves exactly like
          [None]. *)
  request_timeout_us : float;
      (** base retransmit timer for an unacknowledged protocol message;
          subsequent retransmit delays grow by decorrelated jitter
          ({!Sim.Backoff}): drawn uniformly from [base, 3 * prev) on the
          sender's private seed-deterministic stream and clamped to
          {!retransmit_backoff_cap_us}, which it must not exceed. Only used
          when [faults] is active. *)
  max_retransmits : int;
      (** retransmissions of one message before the transport gives up.
          A give-up is counted ({!Dsm.Metrics}), reported to the sender's
          failure detector as a suspect hint, and surfaced to the blocked
          operation (which aborts its family and retries) — it never
          stalls the simulation. With the default 10 and drop rates
          <= 0.2 a give-up is a ~1e-8 per-message event; crash-window
          tests lower it to exercise the recovery path. *)
  heartbeat_interval_us : float;
      (** period of the liveness heartbeats every node broadcasts while
          crash windows are configured (crash-free runs send none) *)
  suspect_timeout_us : float;
      (** silence after which a peer becomes a suspect
          ([Sim.Failure_detector]); must be >= the heartbeat interval *)
  lease : Gdo.Lease.policy;
      (** Read leases: {!Gdo.Lease.Off} (default) reproduces the paper's
          protocol exactly; a [Fixed_ttl] policy lets the GDO home grant
          read leases alongside read grants, so repeat read acquisitions at a
          leased node complete with zero home-node messages, and write
          acquisitions first recall outstanding leases (see {!Gdo.Lease}). *)
  batching : Dsm.Batching.t;
      (** Message combining: {!Dsm.Batching.off} (default) reproduces the
          paper's per-message protocol exactly; enabling features piggybacks
          transport acks on same-channel payloads, aggregates a method's
          demand fetches, coalesces same-instant per-home releases and
          suppresses heartbeats on recently active channels (see
          {!Dsm.Batching}). With batching on, [request_timeout_us] must be
          above {!Dsm.Batching.ack_flush_us} so a flushed ack always beats
          the sender's retransmit timer. *)
  method_cache : Dsm.Method_cache.policy;
      (** Method-result caching: {!Dsm.Method_cache.Off} (default)
          reproduces the lease runtime exactly; an LRU policy lets a node
          serve a repeat read-only invocation from its cached read log —
          zero messages {e and} zero local page reads — whenever its read
          lease on the object is valid and the cached version vector
          matches. Requires an enabled [lease] policy: the lease's
          recall/expiry/epoch machinery is the cache's invalidation signal
          (see {!Dsm.Method_cache}). *)
  shipping : Dsm.Shipping.policy;
      (** Function shipping: {!Dsm.Shipping.Off} (default) reproduces the
          data-shipping runtime exactly; [On] runs the per-invocation cost
          model at every method dispatch and, when shipping wins, executes
          the invocation as a sub-fiber at the majority home of its
          predicted pages — one [Ship_invoke]/[Ship_reply] pair instead of
          the stale-page transfers — under the unchanged O2PL/lease/commit
          rules (see {!Dsm.Shipping}). Excludes [prefetch]: optimistic
          pre-acquisition would fetch pages to the invoker while the model
          is deciding to execute elsewhere. *)
  escrow : Dsm.Escrow.policy;
      (** Escrow commit: {!Dsm.Escrow.Off} (default) reproduces the
          exclusive-locking runtime exactly; [On] routes every invocation of
          a declared-commutative method ({!Objmodel.Method_ir.commutativity})
          through bounds-checked delta reservations at the object's GDO home
          instead of page locks, with per-node quota delegation enabling a
          zero-message local pre-commit fast path, lazily reconciled and
          epoch-fence recalled like a lease (see {!Dsm.Escrow}). Requires a
          fault-free run and [abort_probability = 0]; excludes [prefetch]
          and [shipping]. *)
}

val default : t

(** {1 Fixed costs}

    Settings no workload varies: named constants rather than fields. *)

val page_header_bytes : int
(** per-page framing in data messages (64) *)

val page_map_entry_bytes : int
(** per-page cost of shipping the page map in a grant (4) *)

val local_lock_op_us : float
(** one local lock-table operation (1 µs) *)

val gdo_op_us : float
(** directory processing per lock operation (2 µs) *)

val undo_page_us : float
(** undoing one logged page write (1 µs) *)

val page_service_us : float
(** a node serving a page request (1 µs) *)

val max_sub_retries : int
(** re-executions of a failed sub-transaction (2) *)

val max_root_retries : int
(** re-executions of an aborted family before it gives up (20) *)

val root_retry_backoff_us : float
(** base family-retry backoff, doubled per retry and jittered (200 µs) *)

val retransmit_backoff_cap_us : float
(** upper bound on any single retransmit delay (40 ms). Uncapped
    exponential backoff pushes retries of a long partition far past its
    heal; the cap bounds the post-heal recovery latency. *)

val validate : t -> (unit, string) result
(** Sanity-check ranges (positive sizes, probability in [0,1], ...). *)

val pp : Format.formatter -> t -> unit
