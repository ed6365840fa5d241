open Objmodel
open Txn

(** The runtime half of escrow commit (see {!Dsm.Escrow} for the policy
    and {!Gdo.Directory} for the home-side ledger): node quota ledgers,
    family holds, quota recall and yield, slow-path reservations, root
    resolution, lazy reconciliation and the op log that
    {!Serializability.check_escrow} replays. [Runtime] installs a layer
    only when the policy is on, and the layer reaches the runtime only
    through {!env}. *)

type env = {
  engine : Sim.Engine.t;
  gdo : Gdo.Directory.t;
  tree : Txn_tree.t;
  counters : Dsm.Metrics.totals;  (** the runtime's live counter record *)
  record_event : (unit -> Dsm.Event.t) -> unit;
  home_of : Oid.t -> int;  (** the node serving the object's partition *)
  send : mtype:Dsm.Wire.t -> src:int -> dst:int -> oid:Oid.t -> (unit -> unit) -> unit;
      (** one control message tagged with the object, its thunk run at
          [dst] on delivery *)
  exec_statement : node:int -> unit;  (** one method statement's CPU cost *)
  deliver_grant : home:int -> Gdo.Directory.delivery -> unit;
      (** hand a promoted waiter its deferred grant *)
  refuse_waiter : home:int -> oid:Oid.t -> family:Txn_id.t -> node:int -> unit;
      (** fail the family's queued acquire of the object with a deadlock
          refusal *)
}

type t

val create : env -> Dsm.Escrow.params -> node_count:int -> Catalog.t -> t
(** Register every object whose class declares a commuting method for
    escrow at the directory, seeded from the policy's bounds. *)

val try_invoke :
  t -> oid:Oid.t -> cm:Obj_class.compiled_method -> node:int -> family:Txn_id.t -> bool
(** Run a commuting invocation as an escrow delta: drawn from the node's
    delegated quota with zero messages, or reserved at the home in one
    round trip, retried over a bounded backoff. False when the method does
    not commute or the home kept refusing: the caller takes the
    exclusive-lock path. *)

val waiter_queued : t -> home:int -> oid:Oid.t -> unit
(** A lock waiter queued at [oid]'s home: recall the object's delegated
    quota so the queue can drain once the reservations resolve. *)

val resolve_family : t -> Txn_id.t -> node:int -> commit:bool -> unit
(** Resolve a root family's escrow holds at its root commit or abort. *)

val flush : t -> unit
(** Send every ledger's unreconciled local commits home; the caller runs
    the engine again to deliver them. *)

val check : t -> ((Oid.t * int) list, string list) result
(** {!Serializability.check_escrow} over the run's op log, under the
    policy's bounds. *)
