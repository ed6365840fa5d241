(** Heartbeat-based failure detection state for one observer node.

    Each node keeps one detector instance recording, per peer, the
    simulated time of the last heartbeat heard from it. A peer becomes a
    {e suspect} when no heartbeat has arrived for longer than the
    configured timeout, or when the reliable transport gave up delivering
    to it ({!hint} — exhausting [max_retransmits] is strong evidence the
    peer is unreachable).

    The module is a pure data structure in the style of [Gdo.Directory]:
    it records observations and answers queries; all messaging, timer
    scheduling and the quorum declaration protocol live in
    [Core.Membership], which declares a node dead only when a majority of
    the undeclared observers suspect it — so a partitioned-away live node
    can be declared, and is readmitted when it is heard from again (see
    DESIGN.md, "Failure model & recovery"). *)

type t

val create : node_count:int -> timeout_us:float -> t
(** Fresh detector for an observer among [node_count] nodes. Every peer
    starts as heard-from at time 0, so nothing is suspect before
    [timeout_us] of silence has elapsed.
    @raise Invalid_argument on a non-positive node count or timeout. *)

val heartbeat : t -> node:int -> now:float -> unit
(** A heartbeat from [node] arrived at [now]: it is alive — clear any
    standing suspicion (including transport hints). Times are monotonic
    per the simulation clock; an out-of-order observation is ignored. *)

val hint : t -> node:int -> unit
(** The transport exhausted its retransmit budget against [node]: mark it
    immediately suspect without waiting for the heartbeat timeout. The
    hint stands until the next {!heartbeat} from the node. *)

val is_suspect : t -> node:int -> now:float -> bool
(** [node] is hinted, or silent for strictly longer than the timeout. *)

val suspects : t -> now:float -> int list
(** All suspect peers in ascending node order (deterministic iteration
    for the declaration protocol). The observer itself is never listed. *)

val last_heard : t -> node:int -> float
(** Time of the last liveness proof received from [node] (0 if never) —
    the start of its current silence, for declaration-latency metrics. *)

val set_self : t -> int -> unit
(** Record which node this detector observes for; that node is excluded
    from {!suspects}. *)
