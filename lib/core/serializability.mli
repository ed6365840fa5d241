open Txn

(** Conflict-serializability checking over committed root transactions.

    Nested O2PL guarantees serializable executions (paper §4.3); this module
    verifies it empirically. Page writes are globally unique version numbers,
    so the conflict graph over committed families can be rebuilt exactly:

    - {b ww}: the writer of version [v] precedes the writer of the next
      version of the same page;
    - {b wr}: the writer of version [v] precedes every family that read [v];
    - {b rw}: a family that read version [v] precedes the writer of the next
      version of the same page.

    An execution is conflict-serializable iff this graph is acyclic; the
    serialization order is any topological order. *)

type access = { oid : Objmodel.Oid.t; page : int; version : int }

type committed_root = {
  root : Txn_id.t;
  reads : access list;  (** versions observed (reads and read-before-write) *)
  writes : access list;  (** versions produced *)
}

type verdict =
  | Serializable of Txn_id.t list  (** a witness serialization order *)
  | Cyclic of Txn_id.t list  (** a conflict cycle *)

val check : committed_root list -> verdict
(** Cost: O(A log A) in the history's A distinct accesses. Each page's
    writers are sorted once, and each read finds its writers by binary
    search. Pages are indexed densely by oid, since oids are catalog
    indices. *)

val edges : committed_root list -> (Txn_id.t * Txn_id.t) list
(** The conflict edges (deduplicated, no self-edges), for diagnostics. *)

(** {1 Escrow semantics}

    Escrowed objects deliberately step outside the page-version conflict
    graph: commuting deltas are admitted concurrently, so their page
    histories need not serialize. What must hold instead is O'Neil-style
    escrow correctness, checked by replaying the typed op log the runtime
    records for every escrowed object:

    - every admitted reservation passes the worst-case bounds test at the
      moment it was admitted;
    - the object's value — and its worst case over all outstanding
      reservations and delegated quota — never leaves [\[lower, upper\]];
    - local commits never exceed the node's delegated quota, and every
      reconcile reports exactly the pending delta and quota spent;
    - conservation: home value + unreconciled node deltas always equals
      [initial] + every committed delta (nothing lost, nothing doubled);
    - at end of run no reservation is unresolved and no delta unreconciled. *)

type escrow_op =
  | E_reserve of { oid : Objmodel.Oid.t; family : Txn_id.t; delta : int }
      (** the home admitted a [delta] reservation for [family] *)
  | E_commit of { oid : Objmodel.Oid.t; family : Txn_id.t }
      (** [family]'s reservation folded into the home value at root commit *)
  | E_abort of { oid : Objmodel.Oid.t; family : Txn_id.t }
      (** [family]'s reservation dropped without folding *)
  | E_delegate of { oid : Objmodel.Oid.t; node : int; up : int; down : int }
      (** the home granted [node] [up]/[down] quota units *)
  | E_local_commit of { oid : Objmodel.Oid.t; node : int; delta : int }
      (** a zero-message commit at [node] against its delegated quota *)
  | E_reconcile of {
      oid : Objmodel.Oid.t;
      node : int;
      delta : int;
      used_up : int;
      used_down : int;
    }  (** [node] pushed its pending [delta] home, consuming spent quota *)
  | E_revoke of { oid : Objmodel.Oid.t; node : int }
      (** [node]'s remaining quota was recalled (after its final reconcile) *)

val check_escrow :
  lower:int ->
  upper:int ->
  initial:int ->
  ops:escrow_op list ->
  ((Objmodel.Oid.t * int) list, string list) result
(** Replay [ops] (in simulated-time order) against the invariants above.
    [Ok finals] gives each escrowed object's final value, sorted by oid;
    [Error es] lists every violated invariant with its op index. *)
