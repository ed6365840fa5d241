(** Message-combining (batching) switch.

    The paper's §5 caveat is that LOTEC's lazy page movement trades fewer
    consistency {e bytes} for {e more, smaller messages}, so its advantage
    over OTEC erodes as the per-message software cost rises. This switch
    gates the runtime's message-combining layer, the standard
    countermeasure. With {!all}, four features run together:

    - {b ack piggybacking}: transport acks are deferred and ride the next
      payload on the same (receiver → sender) channel; a standalone [Ack]
      is sent only when {!ack_flush_us} elapses with no payload, carrying
      every ack pending on the channel. Only meaningful under an active
      fault model — the reliable transport sends no acks otherwise.
    - {b fetch aggregation}: at the first demand fetch of a method on an
      object, every stale page of the method's predicted access set is
      fetched — one request/response pair per source instead of one per
      touched attribute group.
    - {b release coalescing}: release batches from one node to one home
      that commit at the same instant are combined into a single [Release]
      message. Stands down under crash injection: a commit's releases must
      leave the node atomically with the commit point.
    - {b heartbeat suppression}: a periodic [Heartbeat] is skipped when the
      channel carried any message within the last heartbeat interval —
      delivered traffic refreshes the receiver's failure detector instead.
      Only meaningful when crash or link windows are configured.

    {!off} is inert: a run with batching off is byte-identical to the
    pre-batching runtime (golden-tested). Combined sends stay honest in the
    wire ledger: piggybacked acks/heartbeats are accounted as 0-message
    riders (see {!Metrics.record_rider}), so the per-type ledger still
    reconciles exactly with the network totals. *)

type t
(** One of two values: {!off} or {!all}. *)

val off : t
(** Every feature disabled: the runtime behaves byte-identically to the
    pre-batching protocol. *)

val all : t
(** Every combining feature on. *)

val ack_flush_us : float
(** Flush timer for deferred acks (50 µs); [Core.Config] requires the
    retransmit timeout to exceed it, or piggybacking would cause spurious
    retransmits. *)

val ack_rider_bytes : int
(** Bytes one piggybacked ack adds to its carrier message (8). *)

val release_flush_us : float
(** Release-coalescing window (0): only releases issued at the same
    simulated instant combine. *)

val enabled : t -> bool
(** True for {!all}. *)

val of_string : string -> (t, string) result
(** ["off"]/["none"] or ["all"]/["on"]. *)

val to_string : t -> string
(** ["off"] or ["all"]. *)

val pp : Format.formatter -> t -> unit
(** Feature list, e.g. ["acks(flush 50us)+fetch+release+heartbeat"]. *)
