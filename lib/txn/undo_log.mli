(** Per-transaction undo logs over the page-version model.

    Page contents are modelled as version numbers; a write records the page's
    previous version so an abort can restore it. Undo is purely local — no
    network communication is required (paper §4.1, LocalLockRelease note).

    Closed-nesting disposition mirrors lock inheritance: when a
    sub-transaction pre-commits, its records are merged into its parent
    (the parent now owns responsibility for undoing them if it later
    aborts); when it aborts, its records are replayed newest-first and
    discarded. *)

type record = {
  oid : Objmodel.Oid.t;
  page : int;
  prev_version : int;  (** version the page had at this node before the write *)
}

type t

val create : unit -> t

val record : t -> oid:Objmodel.Oid.t -> page:int -> prev_version:int -> unit
(** Append a write record (newest first). *)

val merge_into_parent : child:t -> parent:t -> unit
(** Pre-commit: move the child's records into the parent, keeping the
    child's records newer than everything already in the parent. The child
    log becomes empty. *)

val entries_newest_first : t -> record list
(** All records, newest first — the order in which undo must be applied. *)

val dirty_pages : t -> (Objmodel.Oid.t * int) list
(** Deduplicated (object, page) pairs written under this log, in no
    particular order. At root commit this is the family's dirty-page set. *)

val is_empty : t -> bool

val length : t -> int
(** Number of write records (one per write, not per distinct page). *)
