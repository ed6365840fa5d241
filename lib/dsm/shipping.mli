(** Function-shipping policy: move the method to the data.

    LOTEC is a data-shipping protocol — pages always travel to the invoking
    site. When a method's predicted access set ([Objmodel.Access_analysis])
    lives mostly on one remote node, that costs several 4 KB page transfers
    where a single small invocation message would do; this is the paper's
    own small-messages-versus-bytes sensitivity (figs 6–8) turned into an
    optimization, in the spirit of lease-based TM task migration. This
    module holds the policy type and the pure per-call cost model; the
    runtime evaluates it at method-dispatch time and, on [Ship], executes
    the invocation as a sub-fiber at the chosen home under the unchanged
    O2PL/lease/commit rules.

    The model compares, in microseconds, with [σ] the link's per-message
    software cost and [β] its per-byte wire time ([8e6 / bandwidth_bps]):

    - {e data shipping}: [C_fetch = 2σ·groups(stale) + β·page_bytes·|stale|],
      where [stale] is the set of predicted pages owned by another node and
      not locally fresh, and [groups] counts distinct source nodes (each
      costs one grouped request/reply exchange);
    - {e function shipping} to the plurality owner [h] of [stale] (ties to
      the lowest node id):
      [C_ship = σ·(2 + 2·groups(residual)) + β·(invoke + reply +
      page_bytes·|residual|)], where [residual] is the set of predicted
      pages not already resident at [h].

    The invocation ships iff [|stale| >= min_remote_pages] and
    [C_ship < C_fetch] (a tie stays home). Consequences worth noting:
    methods with no (or one) predicted remote page never ship under the
    default floor, and the ship region is downward-closed in the software
    cost — raising σ only ever flips decisions from [Ship] to [Stay], never
    the other way (the σ-coefficient of [C_ship - C_fetch] is
    non-negative).

    The policy is validated by [Core.Config] and {!off} is inert: with
    shipping off the runtime is byte-identical to the data-shipping
    protocol (golden-tested). *)

type params = {
  invoke_bytes : int;  (** payload of a [Ship_invoke] message *)
  reply_bytes : int;  (** payload of a [Ship_reply] message *)
  min_remote_pages : int;
      (** floor on [|stale|] below which the model never ships; the default
          (2) keeps zero- and single-remote-page methods at the invoker *)
}

type policy =
  | Off  (** never ship: byte-identical to the data-shipping runtime *)
  | On of params

type decision =
  | Stay  (** fetch the pages; execute at the invoker *)
  | Ship of { site : int; saved_bytes : int }
      (** execute at [site]; [saved_bytes] is the predicted wire-byte saving
          (stale-page bytes minus invoke/reply/residual bytes) *)

val default_params : params
(** 256 B invoke, 64 B reply, floor 2. *)

val off : policy

val policy_enabled : policy -> bool
(** False only for {!Off}. *)

val validate_policy : policy -> (unit, string) result
(** Reject non-positive message sizes or a floor below 1. *)

val policy_of_string : string -> (policy, string) result
(** Parse ["off"]/["none"] or ["on"] (default parameters); [Error] names
    the valid set. *)

val policy_to_string : policy -> string
(** ["off"] or ["on"]; parameters are not round-tripped (see {!pp_policy}). *)

val pp_policy : Format.formatter -> policy -> unit
(** Display form including parameters, e.g. ["on(min 2, inv 256B, rep 64B)"]. *)

val decide :
  params ->
  link:Sim.Network.link ->
  invoker:int ->
  owners:(int * int) list ->
  fresh:(int -> bool) ->
  page_bytes:int ->
  decision
(** The cost model above, with σ and β taken from [link]. [owners] lists
    [(page, owning node)] for the
    invoked method's predicted pages as recorded in the GDO page map;
    [fresh page] tells whether the invoker already stores that page at its
    newest committed version; [page_bytes] is the wire cost of one page
    transfer. Deterministic: equal inputs yield equal decisions, and the
    candidate site is the plurality owner with ties broken to the lowest
    node id. *)
