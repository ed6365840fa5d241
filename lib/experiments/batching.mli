(** Message-combining suite: protocols × batching policy under light
    interconnect faults, replayed over the Figures 6–8 software-cost grid.

    LOTEC's weakness in the paper is message {e count}: it trades bytes
    for many small messages, so a high per-message software cost erodes
    its advantage (figures 6-8). The combining layer ({!Dsm.Batching})
    attacks exactly that term — this suite measures how much of it comes
    back. Runs execute under a light drop/jitter fault model on purpose:
    transport acks only exist on a lossy interconnect (and fault-free
    LOTEC demand fetches are zero on the standard workload, because the
    predicted access sets cover the actual ones), so a fault-free suite
    would have nothing to combine. The shared oracle reconciles the wire
    ledger with riders included, and holds a batching-off run to zero
    combining activity. *)

val default_spec : Workload.Spec.t
(** {!Workload.Scenarios.medium_high}. *)

val default_faults : Sim.Fault.config
(** Light loss: drop 0.03, 30 us jitter, no crash windows, fixed seed. *)

val default_bandwidth_bps : float
(** 100 Mbps — the figure-7 regime, where software cost and serialisation
    are comparable. *)

val suite : Suite.t
(** OTEC and LOTEC under {!default_faults}, arms batching [off] and [all].
    Besides the counters, one [total_time_us_100Mbps_swN] column
    ({!Suite.time_replay}) per software cost N of {!Paper.software_costs_us}:
    [messages * N + bytes * 8 / default_bandwidth_bps]. *)
