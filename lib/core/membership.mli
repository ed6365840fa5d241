open Objmodel

(** Quorum membership: per-node heartbeat failure detectors (with
    batching's heartbeat suppression), suspicion gossip and votes, death
    declarations and readmissions, incarnations, the membership epoch and
    each node's view of it, acting homes with failover, failback and their
    confirms, lease fences, minority parking, and the split-brain check
    over the acting-home log. [Runtime] installs it only when the config
    has crash or link windows; it reaches the runtime only through {!env}.
    Ground truth (which node is really crashed) feeds metrics only, never
    a decision. *)

type env = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  metrics : Dsm.Metrics.t;
  record_event : (unit -> Dsm.Event.t) -> unit;
  send : mtype:Dsm.Wire.t -> src:int -> dst:int -> (unit -> unit) -> unit;
      (** one untagged control message, its thunk run at [dst] on delivery *)
  crashed : int -> bool;  (** is the node inside a crash window? *)
  gdo : Gdo.Directory.t;
  lease_mgr : Gdo.Lease.t;
  catalog : Catalog.t;
  fail_stranded : node:int -> unit;
      (** fail the global acquires in flight to partitions [node] serves *)
  reclaim : node:int -> unit;  (** reclaim a dead node's directory residue *)
}

type t

val create : env -> t

val home_of : t -> int -> int
(** The node serving a partition: its home, unless a quorum declared the
    home dead and a replica took over. *)

val incarnation : t -> int -> int
(** Bumped at every rejoin and readmission; fences stragglers. *)

val epoch : t -> int
(** Bumped at every declaration, readmission, and rejoin with a standing
    declaration. *)

val epoch_view : t -> int -> int
(** The highest epoch the node has heard of: the stamp on its acquires. *)

type admission = Serve | Refuse | Defer of float

val admit : t -> home:int -> partition:int -> epoch:int -> admission
(** May [home] serve an acquire of [partition] stamped with [epoch]?
    [Refuse] under a stale view or at a node that must not grant (the
    epoch fence); [Defer us] while a dead home's read leases may still be
    live (the lease fence). Counts each refusal and deferral. *)

val note_traffic : t -> src:int -> dst:int -> unit
(** A remote message left [src] for [dst]. *)

val hint : t -> observer:int -> node:int -> sent:float -> unit
(** [observer]'s transport gave up on a message to [node] last transmitted
    at [sent]: suspect the node, unless [observer] heard from it since. *)

val delivered : t -> src:int -> dst:int -> unit
(** A remote message from [src] reached a live [dst]: merge the sender's
    view, count it as a heartbeat under suppression, and readmit a falsely
    declared sender. *)

val park_wait : t -> node:int -> unit Sim.Engine.Ivar.t option
(** Filled when the parked node unparks; [None] when it is not parked. *)

val crash_enter : t -> node:int -> unit
(** The node crashed: unpark it; its partitions move only at a quorum
    declaration. *)

val crash_rejoin : t -> node:int -> unit
(** The node restarts under a new incarnation: every detector hears from
    it, a standing declaration is cleared, and its partitions fail back. *)

val run : t -> unit
(** Start the heartbeat loops, up to a horizon past the last window. *)

val check_log : (int * int * int) list -> string list
(** The split-brain check over (epoch, partition, serving) records, newest
    first: every partition served by two nodes within one epoch, and every
    epoch regression, described. *)

val audit : t -> string list
(** {!check_log} over the run's acting-home log, plus every node still
    declared dead or parked. *)

val partition_info : t -> int -> string
(** A partition's acting home and epoch, lease fence and flags. *)
