(** Run a generated workload under a protocol, check it, and collect the
    metrics. *)

type run = {
  protocol : Dsm.Protocol.t;
  workload : Workload.Generator.t;
  runtime : Core.Runtime.t;  (** after [run] completed *)
}

val execute :
  ?config:Core.Config.t ->
  ?on_stall:(Core.Runtime.t -> unit) ->
  protocol:Dsm.Protocol.t ->
  Workload.Generator.t ->
  run
(** Build a runtime for the workload's catalog (node count taken from the
    workload spec; everything else from [config], default
    {!Core.Config.default}), submit every root, drive the simulation to
    completion, and check the finished run with {!oracle}.
    [on_stall], if given, is called with the runtime when the run raises
    {!Sim.Engine.Stalled}, before the exception propagates — a hook for
    dumping diagnostic state such as {!Core.Runtime.dump_directory}.
    @raise Failure if the oracle reports any violation — that would be a
    protocol bug, not a workload property. *)

val oracle : run -> string list
(** The one correctness oracle every run passes, as a list of violations
    (empty when clean), each prefixed with the name of the broken clause:

    - [serializability]: the committed history has no conflict cycle;
    - [escrow replay]: the escrow op log replays within bounds
      ({!Core.Runtime.check_escrow});
    - [root accounting]: committed + aborted roots = submitted roots;
    - [ledger balance]: per object, messages = control + data messages,
      and an object with messages has bytes;
    - [wire reconciliation]: the send-time wire ledger equals the network
      ledger exactly, in messages and in bytes;
    - [split-brain audit]: {!Core.Runtime.audit} is empty — the directory
      is consistent, no partition was served by two nodes in one
      membership epoch, and no node is still declared dead or parked at
      the end;
    - [map holder]: for every page, the node the GDO page map names as its
      holder stores exactly the version the map records;
    - [lease hygiene], [cache hygiene], [batching hygiene] (riders
      included), [shipping hygiene], [escrow hygiene]: a lever the config
      leaves off records zero in every one of its counters;
    - [fault hygiene]: with faults inactive, zero drops, duplicates,
      retransmits, timeouts and give-ups;
    - [crash accounting]: with no crash window, zero crash aborts and
      every death declaration counted as a false suspicion. *)

val execute_all :
  ?config:Core.Config.t -> protocols:Dsm.Protocol.t list -> Workload.Generator.t -> run list
(** One fresh runtime per protocol over the same workload. *)

val metrics : run -> Dsm.Metrics.t
