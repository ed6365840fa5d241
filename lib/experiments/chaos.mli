(** Chaos testing: full workloads under an unreliable interconnect.

    The paper assumes a perfectly reliable switched network; {!Sim.Fault}
    relaxes that with seed-deterministic message drops, duplicates, delay
    jitter and node pause/crash windows, and the runtime layers a reliable
    transport on top. The [chaos] suite checks the protocols survive the
    abuse: it sweeps fault rates × seeds × protocols over a small
    high-contention workload, and every run passes the shared oracle
    ({!Runner.oracle}) — serializability, root accounting, a balanced and
    exactly reconciling ledger, a drained simulation.

    The [crash] suite adds scheduled fail-stop crash-restart windows
    ({!Sim.Fault.Crash}), exercising the full recovery path: heartbeat
    failure detection, dead-family lock reclamation at the directory,
    page-map repointing and — with one GDO replica — home failover to the
    ring successor. *)

val default_spec : Workload.Spec.t
(** A small high-contention workload (few objects, few nodes) sized so a
    full sweep stays fast: fault handling is exercised by rates, not load. *)

val fault_config :
  drop:float -> duplicate:float -> jitter_us:float -> fault_seed:int -> Sim.Fault.config option
(** [None] when the rates inject nothing — the run then takes the exact
    fault-free code path, byte-identical to the reliable network. *)

val rate_cases : fault_seeds:int list -> (float * float * float) list -> Suite.case list
(** One case per (drop, duplicate, jitter) rate × fault seed; a fault-free
    rate runs once, under the first seed. *)

val chaos : Suite.t
(** COTEC/OTEC/LOTEC × (drop, duplicate, jitter µs) rates [(0,0,0);
    (0.05,0.05,25); (0.1,0.1,50); (0.2,0.2,100)] × seeds [[1; 2]]. *)

val tight_timers : Core.Config.t -> Core.Config.t
(** Recovery timers tightened (0.5 ms retransmit timer, 3 retransmits,
    0.5 ms heartbeats, 1.5 ms suspicion) so detection and failover
    complete inside a few-millisecond window; shared with the partition
    nemesis. *)

val crash_faults : fault_seed:int -> (int * float * float) list -> Sim.Fault.config
(** Crash windows given as [(node, from_us, until_us)], half-open. *)

val default_crash_windows : (int * float * float) list list
(** One mid-run crash, and a staggered two-node pattern, sized against
    {!default_spec}'s makespan. *)

val crash : Suite.t
(** COTEC/OTEC/LOTEC × {!default_crash_windows} (fault seed 1) under
    {!tight_timers}, arms [gdo_replicas] 0 and 1 — so the suite covers both
    partition unavailability and live failover. *)
