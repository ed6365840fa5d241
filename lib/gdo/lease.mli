open Txn

(** Read leases: locally cached read grants with recall-on-write.

    A {e read lease} is a home-node promise to a caching node: "until this
    lease expires or is recalled, no update lock on this object will be
    granted". While a node holds a valid lease on an object, the runtime can
    satisfy read-mode lock requests by {e new} families entirely locally —
    zero messages to the GDO home — installing the cached grant (page map
    included) in the node's local lock table. A write acquisition at the home
    first {e recalls} outstanding leases from the copyset and blocks until
    every leased node yields or the lease's logical-time TTL expires.

    The module is a pure, synchronous data structure in the style of
    {!Directory}: the home-side manager ({!t}) and the node-side cache
    ({!Cache.t}) record state and return instructions; all messaging,
    scheduling and timing lives in the runtime.

    {2 Safety argument (O2PL preserved)}

    A lease-backed read lock is invisible to the directory, so the usual
    two-phase argument is re-established by three rules:

    - {b Recall-before-write.} No write lock is granted while any lease is
      outstanding. A leased node yields only after every lease-backed reader
      (other than the excluded upgrader, see below) has released — so a
      yield carries the same "readers are done" meaning as a directory
      release.
    - {b TTL doom.} If the home stops waiting because the lease TTL expired
      (a reader still running, a yield lost beyond retransmission), the
      stranded readers are not protected any more. Every lease-backed reader
      therefore re-validates its leases at commit (and at read-to-write
      upgrade): an expired or superseded lease forces the family to abort
      and retry, keeping unprotected reads out of the committed history.
    - {b Epoch fencing.} The home stamps every lease with the object's write
      {e epoch} and bumps the epoch on every write grant. Recalls carry the
      epoch being recalled and the cache refuses to (re)install a lease at
      or below the highest recalled epoch, so a retransmitted or reordered
      grant can never resurrect a recalled lease. A reader admitted under an
      older epoch fails validation after any intervening write grant.

    The only family allowed to keep its lease-backed read across a yield is
    the {e excluded} family: the writer whose request triggered the recall
    (necessarily the first blocked writer, hence the first to be granted).
    Its read is then protected by its own impending write lock. *)

(** When (and for how long) the home grants leases. TTLs are simulated
    ("logical") microseconds. *)
type policy =
  | Off  (** never grant leases: byte-identical to the pre-lease runtime *)
  | Fixed_ttl of { ttl_us : float }
      (** lease every read grant for [ttl_us] simulated microseconds *)

val policy_enabled : policy -> bool
(** False only for {!Off}. *)

val validate_policy : policy -> (unit, string) result
(** Reject a non-positive TTL. *)

val policy_of_string : string -> (policy, string) result
(** Parse "off" or "ttl" (with the default 20 ms TTL); [Error] names the
    valid set. *)

val policy_to_string : policy -> string
(** Inverse of {!policy_of_string} ("off" or "ttl"); the TTL is not
    round-tripped. *)

val pp_policy : Format.formatter -> policy -> unit
(** Display form including parameters, e.g. ["ttl(20000us)"]. *)

(** {1 Home side} *)

type t

val create : policy -> t
(** Home-side lease manager with no outstanding leases. *)

val enabled : t -> bool
(** False for {!Off}: every other operation is then a cheap no-op. *)

val lease_for_grant :
  t -> Objmodel.Oid.t -> node:int -> now:float -> writer_queued:bool -> (float * int) option
(** Should a read grant to [node] carry a lease? [Some (expires, epoch)] if
    the policy is on, no recall is in progress and
    [writer_queued] is false (a lease granted under a queued writer would be
    recalled immediately). Records the lease as outstanding; granting again
    to the same node renews (extends) its lease. *)

val outstanding : t -> Objmodel.Oid.t -> now:float -> int list
(** Nodes holding an unexpired lease (expired entries are pruned). *)

val fence_deadline : t -> Objmodel.Oid.t -> now:float -> float
(** The latest expiry among the object's outstanding grants, or [now] if
    none. Failover fencing: a successor taking over a declared-dead home's
    partition must not grant on the object before this instant — earlier,
    a node holding one of the dead home's read leases could still be
    serving leased reads the new regime does not know about. *)

val recall_in_progress : t -> Objmodel.Oid.t -> bool
(** Whether a {!begin_recall} on the object has not yet cleared. *)

type recall_order = {
  ro_nodes : int list;  (** leased nodes to send [Lease_recall] to *)
  ro_epoch : int;  (** epoch being recalled, fencing stale re-grants *)
  ro_deadline : float;  (** latest lease expiry: force-clear no later than this *)
  ro_token : int;  (** identifies this recall to {!force_clear} *)
}

val begin_recall :
  t ->
  Objmodel.Oid.t ->
  now:float ->
  excluded:Txn_id.t option ->
  [ `Clear | `In_progress | `Recall of recall_order ]
(** Start recalling every outstanding lease, on behalf of a blocked write
    whose requesting family is [excluded]. [`Clear]: nothing outstanding,
    the write may proceed. [`In_progress]: an earlier write already started
    a recall — queue behind it. [`Recall]: send a recall to each node and
    arm a timer at [ro_deadline]. *)

val excluded_family : t -> Objmodel.Oid.t -> Txn_id.t option
(** The family the in-progress recall excludes, if any. *)

val note_yield : t -> Objmodel.Oid.t -> node:int -> [ `Cleared | `Waiting | `Stale ]
(** A [Lease_yield] arrived. [`Cleared]: that was the last awaited node —
    run the blocked writes. [`Stale]: no recall in progress (late or
    duplicated yield) — ignore. *)

val recall_token : t -> Objmodel.Oid.t -> int option
(** Token of the in-progress recall, if any. A poller armed by
    [`Recall] should stand down once the token no longer matches its
    own — the recall was resolved (or superseded) in the meantime. *)

val force_clear : t -> Objmodel.Oid.t -> token:int -> bool
(** TTL deadline fired. True iff recall [token] was still in progress: all
    remaining leases are dropped as expired and the blocked writes must be
    run (stranded readers will fail commit-time validation). *)

val evict_node : t -> node:int -> Objmodel.Oid.t list
(** Crash recovery: the node was declared dead — drop every lease granted
    to it (it can neither serve readers nor yield). Returns, ascending,
    the objects whose in-progress recall was waiting only on the dead node
    and therefore cleared: the caller must run their blocked writes, as
    after a final yield. Safe because a dead node's lease-backed readers
    died with it — nothing unprotected can reach the committed history. *)

val note_write_granted : t -> Objmodel.Oid.t -> unit
(** Bump the object's epoch: leases stamped with earlier epochs (and readers
    admitted under them) are permanently superseded. *)

val epoch : t -> Objmodel.Oid.t -> int
(** The object's current lease epoch (starts at 0, bumped per write grant). *)

(** {1 Node side} *)

module Cache : sig
  type cache

  val create : unit -> cache

  val set_on_invalidate : cache -> (Objmodel.Oid.t -> unit) -> unit
  (** Subscribe to lease invalidation: [f oid] is called whenever the cache
      learns its leased view of [oid] is over — a [Lease_recall] delivery
      (every delivery, retransmissions included), an expired entry being
      GCed by {!drop_expired}, or an epoch-superseding {!install} (a write
      was granted in between). The runtime's method-result cache
      ([Dsm.Method_cache]) hooks this to wipe the object's cached results;
      at most one subscriber is kept (the latest wins). *)

  val install :
    cache -> Objmodel.Oid.t -> grant:Directory.grant -> expires:float -> epoch:int -> unit
  (** A read grant arrived carrying a lease. Called only after the grant's
      acquisition-time page transfer has landed, so every page the cached
      page map names as local really is local. Refused (no-op) when [epoch]
      does not exceed the highest recalled epoch, or is below the installed
      entry's epoch — the epoch fence. An equal-epoch install renews the
      entry; a higher-epoch install supersedes it (existing readers keep
      their admission epoch and will fail validation). *)

  val hit : cache -> Objmodel.Oid.t -> now:float -> Directory.grant option
  (** The cached grant, when the lease is valid (present, unexpired, not
      recalled): the caller may satisfy a read-mode acquire locally. *)

  val add_reader : cache -> Objmodel.Oid.t -> family:Txn_id.t -> unit
  (** Record [family] as holding a lease-backed read (admission epoch =
      entry epoch). Call after a successful {!hit}. *)

  val remove_reader : cache -> Objmodel.Oid.t -> family:Txn_id.t -> [ `Yield | `Nothing ]
  (** The family released (commit/abort) or upgraded away its lease-backed
      read. [`Yield]: a deferred recall was waiting on this reader — send
      [Lease_yield] to the home now. *)

  val recall :
    cache -> Objmodel.Oid.t -> epoch:int -> excluded:Txn_id.t option -> [ `Yield | `Deferred ]
  (** A [Lease_recall] arrived. Marks the entry recalled (no further hits)
      and raises the recalled-epoch fence. [`Yield]: no blocking readers —
      reply immediately. [`Deferred]: readers other than [excluded] are
      still running; {!remove_reader} will surface the yield when the last
      one drains. Idempotent: a retransmitted recall on an already-yielded
      or absent entry is [`Yield] again (the home dedups). *)

  val valid : cache -> Objmodel.Oid.t -> family:Txn_id.t -> now:float -> bool
  (** Commit-time (and upgrade-time) validation of a lease-backed read:
      entry present, [family] recorded at the entry's current epoch, and the
      lease unexpired. A recalled-but-unyielded lease is still valid — the
      home is waiting on us. *)

  val reader_count : cache -> Objmodel.Oid.t -> int
  val entry_count : cache -> int

  val drop_expired : cache -> now:float -> unit
  (** GC readerless expired entries (hits already ignore them). *)
end
