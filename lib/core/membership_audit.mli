(** Split-brain auditor over the runtime's acting-home log.

    Quorum membership replaces ground-truth crash confirmation, so a
    false declaration is possible by design (a partitioned-away node
    looks dead). What must {e never} happen is two regimes serving the
    same directory partition under the same membership epoch — the
    split-brain the epoch/lease fencing exists to prevent. This module
    checks the log of acting-home changes the runtime keeps
    ([Runtime.audit] runs it): at most one serving node per (epoch,
    partition), and epochs non-decreasing along the log.

    The per-object half of the audit — at most one exclusive holder per
    directory entry — is [Gdo.Directory.audit]. *)

val check : (int * int * int) list -> (unit, string list) result
(** [check log] over (epoch, partition, serving) records, newest first as
    the runtime accumulates them. [Ok ()] when no partition was ever
    served by two nodes within one epoch and epochs never regressed;
    otherwise every violation, described. *)
