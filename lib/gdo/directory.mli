open Txn

(** The Global Directory of Objects (GDO).

    One entry per object, holding the lock and consistency fields of the
    paper's Figure 1:

    - [LockState] — free, held for read, held for update;
    - [ReadCount] — number of families concurrently holding read locks;
    - [HolderPtr] — the holding families (with their executing nodes);
    - [NonHoldersPtr] — FIFO of waiting families;
    - [PageMap] — per page, the node storing its most up-to-date version,
      together with that version number.

    The directory is partitioned: each object has a {e home} node, and the
    runtime routes every global lock operation to the home as a message. The
    data structure itself is therefore purely local and synchronous; all
    distribution lives in the runtime.

    Beyond the paper, the directory maintains a waits-for graph over waiting
    families and refuses (with [Deadlock]) any request whose wait would close
    a cycle — the victim family aborts and retries. It also tracks each
    object's {e copyset} (nodes caching any of its pages), which the
    RC-nested extension uses to push updates eagerly. *)

type lock_state = Free | Held_read | Held_write
(** Figure 1's LockState. "Retained" is intra-family state and lives in the
    per-site table ([Txn.Local_locks]); the GDO sees a family-held lock. *)

type holder = { family : Txn_id.t; node : int }
(** Figure 1's HolderPtr entry: a family executes at one site. *)

(** Payload of a successful (or queued-then-delivered) grant: what the GDO
    sends to the acquiring site — the holder list and the object's page
    map. *)
type grant = {
  g_oid : Objmodel.Oid.t;
  g_mode : Lock.mode;
  g_page_nodes : int array;  (** index: page; value: node with newest copy *)
  g_page_versions : int array;
}

type acquire_result =
  | Granted of grant
  | Queued  (** the caller will receive a deferred grant on release *)
  | Busy  (** non-blocking acquire refused: the lock is not free *)
  | Deadlock of Txn_id.t list
      (** granting would close a waits-for cycle (returned as the family
          cycle); the requester must abort *)

(** A deferred grant produced by a release: deliver [d_grant] to family
    [d_family] at node [d_node]. *)
type delivery = { d_family : Txn_id.t; d_node : int; d_grant : grant }

type escrow_result =
  | Escrow_admitted  (** the delta reservation is recorded; proceed without locking *)
  | Escrow_refused_bounds
      (** the worst case over outstanding reservations and delegated quota
          would breach a bound; the caller falls back to the exclusive-lock
          path (refusals never wait, so escrow adds no waits-for edges) *)
  | Escrow_refused_locked
      (** a normal lock is held on the object; commutative calls fall back
          to the exclusive-lock path until it drains *)

type t

val create : unit -> t
(** Empty directory: no objects, no waits-for edges. *)

val register_object : t -> Objmodel.Oid.t -> pages:int -> initial_node:int -> unit
(** Add an entry; all pages start at version 0 on [initial_node].
    @raise Invalid_argument on duplicate registration. *)

val acquire :
  t ->
  Objmodel.Oid.t ->
  family:Txn_id.t ->
  node:int ->
  mode:Lock.mode ->
  ?block:bool ->
  unit ->
  acquire_result
(** Algorithm 4.2 (GlobalLockAcquisition). Re-entrant acquisition by a family
    that already holds the lock in a sufficient mode returns [Granted]
    immediately. A Read→Write request by a family holding Read is treated as
    an upgrade: granted when the family is the sole reader, queued at the
    front otherwise.

    [block] (default true) selects what happens when the lock cannot be
    granted now: blocking requests join the wait queue (after the waits-for
    cycle check), non-blocking ones — used by optimistic pre-acquisition —
    get [Busy] back and leave no trace. Keeping pre-acquisition non-blocking
    preserves the soundness of enqueue-time deadlock detection: every family
    has at most one blocking wait outstanding.

    Acquisition is idempotent under retransmission: a blocking request by a
    family already in the object's wait queue returns [Queued] without
    enqueueing a second waiter, and a request by a family that already holds
    the lock in a sufficient mode is re-granted — so a duplicated or
    retransmitted acquire message never corrupts directory state. *)

val release :
  t ->
  Objmodel.Oid.t ->
  family:Txn_id.t ->
  dirty:(int * int * int) list ->
  delivery list
(** Algorithm 4.4 (GlobalLockRelease) for one object. [dirty] lists
    [(page, version, node)] updates to fold into the page map (empty on abort
    releases). Returns the deferred grants the caller must deliver.
    Releasing a lock the family does not hold is a no-op returning []. *)

val evict_families : t -> dead:(Txn_id.t -> bool) -> int * delivery list
(** Crash recovery: purge every family [dead] judges dead from every entry
    — held locks are released (no dirty pages: a dead family's writes were
    never published), wait-queue entries and their waits-for edges are
    drained — then waiters are promoted exactly as after a release, so
    queued survivors receive their deferred grants. Returns the number of
    distinct families evicted and the deliveries, in ascending-oid order.
    Idempotent: evicting already-absent families changes nothing. *)

val repoint_pages :
  t ->
  dead_node:int ->
  find_copy:(Objmodel.Oid.t -> page:int -> version:int -> int option) ->
  int
(** Crash recovery: patch page-map entries whose newest version lives on
    [dead_node] to a surviving copy of the {e same} committed version, as
    located by [find_copy] (a scan of live nodes' page stores). Falling
    back to an older version would break conflict-serializability, so an
    entry with no surviving copy is left pointing at the dead node — the
    recorded version is durable there and is served again after the
    restart. Returns the number of entries repointed. *)

val lock_state : t -> Objmodel.Oid.t -> lock_state
(** The entry's current LockState. *)

val holders : t -> Objmodel.Oid.t -> holder list
(** Current holders; empty iff {!lock_state} is [Free]. *)

val read_count : t -> Objmodel.Oid.t -> int
(** Figure 1's ReadCount: number of holders when held for read, else 0. *)

val waiting_count : t -> Objmodel.Oid.t -> int
(** Length of the NonHoldersPtr FIFO. *)

val has_queued_writer : t -> Objmodel.Oid.t -> bool
(** Is any waiter a writer (or a pending upgrade)? The lease layer refuses
    to grant new leases while one is queued — they would be recalled before
    the reader could profit. *)

val page_map : t -> Objmodel.Oid.t -> int array * int array
(** Copy of (page_nodes, page_versions). *)

val note_cached : t -> Objmodel.Oid.t -> node:int -> unit
(** Record that [node] now caches pages of the object (copyset). *)

val copyset : t -> Objmodel.Oid.t -> int list
(** Nodes caching the object, ascending. *)

val object_count : t -> int
(** Number of registered objects. *)

(** {2 Escrow delta locks}

    Escrow turns a registered object into a bounded integer quantity that
    declared-commutative methods update through {e delta reservations}
    instead of page locks (see {!Dsm.Escrow} for the policy and DESIGN.md
    "Escrow commit" for the protocol). Locks and escrow exclude each other:
    {!escrow_reserve} is refused while a normal lock is held, and a normal
    {!acquire} queues while foreign reservations or delegated quota are
    outstanding — the waiter is promoted when the escrow side drains. Escrow
    never waits, so it adds no waits-for edges and cannot deadlock. *)

val register_escrow : t -> Objmodel.Oid.t -> lower:int -> upper:int -> initial:int -> unit
(** Attach an escrow ledger (quantity [initial], invariant
    [[lower, upper]]) to a registered object.
    @raise Invalid_argument if already escrowed or [initial] is out of
    bounds. *)

val has_escrow : t -> Objmodel.Oid.t -> bool

val escrow_value : t -> Objmodel.Oid.t -> int
(** Committed quantity at the home (excludes uncommitted reservations and
    unreconciled local deltas at quota-holding nodes). *)

val escrow_reserve :
  t -> Objmodel.Oid.t -> family:Txn_id.t -> node:int -> delta:int -> escrow_result
(** The escrow admission test: record a signed [delta] reservation for
    [family] iff the quantity stays inside the bounds even when every
    outstanding same-side obligation commits. A family's reservations
    aggregate into one ledger row. *)

val escrow_commit : t -> Objmodel.Oid.t -> family:Txn_id.t -> delivery list
(** Fold [family]'s aggregated reservation into the committed quantity and
    drop it; returns deferred grants for waiters unblocked by the drain.
    A family with no reservation is a no-op (idempotent). *)

val escrow_abort : t -> Objmodel.Oid.t -> family:Txn_id.t -> delivery list
(** Drop [family]'s reservation without folding it in (abort undo), then
    promote as {!escrow_commit} does. *)

val escrow_delegate : t -> Objmodel.Oid.t -> node:int -> up:int -> down:int -> int * int
(** Delegate local-commit quota to [node]: up to [up] raise units and
    [down] lower units, each clamped to the worst-case headroom remaining.
    Returns the units actually granted. Refused entirely (0, 0) while a
    normal lock is held. *)

val escrow_reconcile :
  t -> Objmodel.Oid.t -> node:int -> delta:int -> used_up:int -> used_down:int -> unit
(** Lazy reconciliation: fold [delta] — the net of [node]'s zero-message
    local commits since its last push — into the committed quantity and
    consume the quota units they spent. Requires
    [delta = used_up - used_down].
    @raise Invalid_argument on a malformed report or quota underflow. *)

val escrow_begin_recall : t -> Objmodel.Oid.t -> int
(** Bump and return the object's escrow epoch: the fence for a quota
    recall. Yields stamped with an older epoch are stale and ignored. *)

val escrow_yield :
  t ->
  Objmodel.Oid.t ->
  node:int ->
  epoch:int ->
  delta:int ->
  used_up:int ->
  used_down:int ->
  carried:(Txn_id.t * int) list ->
  delivery list * (Txn_id.t * int) list
(** [node] surrenders its delegated quota in response to a recall: the
    final unreconciled [delta] is folded in ({!escrow_reconcile}), the
    node's remaining quota is zeroed, and [carried] — the units still held
    by the node's uncommitted families, as [(family, net delta)] rows —
    is re-booked as home reservations (always admissible: the surrendered
    quota covered them). Because the carried families are wait targets the
    queued waiters never saw, the deadlock check is re-run for each
    waiter; waiters whose wait now closes a cycle are evicted and returned
    as [(family, node)] victims for the runtime to deliver the usual
    deadlock refusal to. Then remaining waiters are promoted. A stale
    [epoch] makes the whole call a no-op returning [([], [])]. *)

val escrow_epoch : t -> Objmodel.Oid.t -> int

val escrow_outstanding : t -> Objmodel.Oid.t -> bool
(** Any uncommitted reservation or delegated quota on the object? While
    true, normal acquires queue (and the runtime recalls quotas). *)

val escrow_reservations : t -> Objmodel.Oid.t -> (Txn_id.t * int * int) list
(** Outstanding [(family, node, aggregated delta)] rows, ascending by
    family; for tests and diagnostics. *)

val escrow_quotas : t -> Objmodel.Oid.t -> (int * int * int) list
(** Outstanding delegated quota [(node, up units, down units)] rows,
    ascending by node, omitting all-zero rows. *)

val waits_for_edges : t -> (Txn_id.t * Txn_id.t) list
(** Current waits-for edges (waiting family, holding family); for tests and
    diagnostics. *)

val audit : t -> string list
(** Structural invariants every reachable directory state must satisfy —
    the split-brain auditor's per-object half: a [Held_write] entry has
    exactly one holder, a [Held_read] entry at least one, a [Free] entry
    none; no family holds an entry twice; the wait queue's cached length
    and queued-writer count match its contents; no family is queued twice
    on one entry; and waiters and waits-for edges match both ways (every
    waiter has an edge, every edge a waiter). Each queue is walked once.
    Returns human-readable violation descriptions, [[]] when clean. *)

val dump : ?partition_info:(Objmodel.Oid.t -> string) -> t -> string
(** Human-readable dump of every non-free entry (lock state, holders,
    waiters, outstanding escrow ledger) — a stall diagnostic, in ascending
    oid order with sorted sub-lists so the output is deterministic across
    hash seeds. [partition_info], when given, appends per-object membership
    state (acting home, membership epoch, lease fence) supplied by the
    runtime. *)
