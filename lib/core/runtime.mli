open Objmodel

(** The distributed object system: nested object transactions over DSM.

    A runtime instance is one simulated cluster execution: a set of nodes
    with page stores and local lock tables, a partitioned GDO reached by
    messages, and a consistency protocol (COTEC / OTEC / LOTEC / RC-nested)
    deciding which pages move at lock acquisition.

    Roots are submitted with {!submit} and executed as fibers when {!run}
    drives the event loop. Each root is a method invocation; nested [Invoke]
    statements become sub-transactions (closed nesting, nested O2PL).
    Deadlock-aborted families retry with backoff up to a configured limit;
    injected sub-transaction failures undo locally and retry in place.

    The paper's algorithms map to this module as follows:
    - Algorithm 4.1 LocalLockAcquisition — [acquire_object], backed by
      {!Txn.Local_locks};
    - Algorithm 4.2 GlobalLockAcquisition — the GDO-home message handler,
      backed by {!Gdo.Directory.acquire};
    - Algorithm 4.3 LocalLockRelease — pre-commit/abort/commit disposition;
    - Algorithm 4.4 GlobalLockRelease — the GDO-home release handler;
    - Algorithm 4.5 TransferOfUpdatedPages — the page-transfer engine, with
      per-protocol transfer sets from {!Dsm.Protocol.transfer_set}.

    Escrow commit lives in {!Escrow_layer}: [create] installs it only when
    the escrow policy is on, and the runtime calls it at five points (a
    commuting invocation, a waiter queued at a home, root commit and abort,
    the end-of-run flush, {!check_escrow}). The other levers (leases, the
    method cache, batching, shipping, crash recovery and membership) are
    still branches in this module. *)

type t

type root_outcome =
  | Committed
  | Gave_up  (** aborted after exhausting the root retry budget *)

type root_result = {
  oid : Oid.t;
  meth : string;
  node : int;
  submitted_at : float;
  completed_at : float;
  attempts : int;  (** 1 for a first-try commit *)
  outcome : root_outcome;
}

val create : config:Config.t -> catalog:Catalog.t -> t
(** Build the cluster. Object pages initially reside, at version 0, on the
    object's home node ([oid mod node_count]); the GDO entry for an object
    lives on the same node.
    @raise Invalid_argument if the config fails {!Config.validate} or the
    catalog is not acyclic. *)

val config : t -> Config.t
val catalog : t -> Catalog.t
val engine : t -> Sim.Engine.t
val metrics : t -> Dsm.Metrics.t
val directory : t -> Gdo.Directory.t
val store : t -> node:int -> Dsm.Page_store.t

val trace : t -> Dsm.Event.t Sim.Trace.t option
(** The typed protocol-event trace, when [Config.trace_capacity > 0]. Feed
    its entries to {!Dsm.Trace_export} for the per-transaction timeline or
    the Chrome trace-event JSON export. *)

val submit : t -> at:float -> node:int -> oid:Oid.t -> meth:string -> seed:int -> unit
(** Schedule a root invocation of [meth] on [oid] at node [node] and
    simulated time [at]. [seed] makes the root's private random stream
    (branch outcomes and failure injection), so a root's execution path does
    not depend on cross-family interleaving.
    @raise Not_found if the object or method does not exist.
    @raise Invalid_argument after {!run} has completed. *)

val run : t -> unit
(** Drive the simulation until all submitted roots complete; records the
    makespan in the metrics.
    @raise Sim.Engine.Stalled on an internal scheduling bug (transaction
    deadlocks are detected and resolved; they do not stall the engine). *)

val results : t -> root_result list
(** Completion records, in completion order. *)

val committed_history : t -> Serializability.committed_root list
(** Reads/writes of every committed family, for the serializability
    checker. *)

val check_serializable : t -> Serializability.verdict

val check_escrow : t -> ((Objmodel.Oid.t * int) list, string list) result
(** Replay the run's typed escrow op log, in simulated-time order, through
    {!Serializability.check_escrow} under the run's escrow bounds. [Ok []]
    trivially when the policy is off. *)

val membership_epoch : t -> int
(** Current membership epoch: bumped at every quorum death declaration,
    readmission, and rejoin-with-standing-declaration. 0 for fault-free
    runs. *)

val node_declared_down : t -> node:int -> bool
(** Has a quorum declared [node] dead under its current incarnation (and
    no readmission or rejoin cleared it)? Membership state, not ground
    truth: true for a falsely declared live node until one of its
    messages gets through. *)

val node_parked : t -> node:int -> bool
(** Is [node] currently self-parked (its own detector reaches fewer than
    a majority of undeclared nodes)? A parked node serves no acquires and
    starts no new roots until the majority is reachable again. *)

val audit : t -> string list
(** The split-brain auditor: {!Gdo.Directory.audit} over the directory
    (at most one exclusive holder per entry, holder/waiter consistency)
    plus {!Membership_audit.check} over the acting-home log (at most one
    serving node per (epoch, partition)). Empty when clean; run after
    {!run} in nemesis tests. *)

val dump_directory : t -> string
(** {!Gdo.Directory.dump} enriched with per-object membership state:
    partition, acting home and its epoch, lease fence, declared/parked
    flags — the stall diagnostic for partition nemesis runs. *)

val next_version_exceeds : t -> int -> bool
(** True if more than [n] page versions were produced — a cheap progress
    probe for tests. *)
