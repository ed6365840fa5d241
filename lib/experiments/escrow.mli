(** Escrow commit versus exclusive locking ({!Dsm.Escrow}).

    The bank workload hammers a handful of hot accounts with declared-
    commutative unit deposits and withdrawals. Under the baseline protocols
    every one of them serializes on the account's exclusive object lock;
    with escrow delta locks they commute, and with quota delegation most of
    them commit locally with zero messages. This suite runs every case
    twice — escrow off (the exclusive baseline) and escrow on — across
    protocols and access skews, on {!Workload.Scenarios.bank}.

    The headline gate, recorded in [BENCH_escrow.json]: LOTEC with escrow
    completes the skew-1.2 bank workload at least 25% faster than its
    exclusive-locking baseline. The shared oracle checks serializability
    and a clean escrow ledger replay — the two halves of correctness for
    an escrow run. *)

val default_spec : skew:float -> Workload.Spec.t
(** {!Workload.Scenarios.bank} with the given [access_skew]. *)

val default_params : Dsm.Escrow.params

val default_skews : float list
(** 0.6 (warm) and 1.2 (hot head accounts). *)

val suite : Suite.t
(** All four protocols × {!default_skews}, arms [exclusive] and [escrow]. *)
