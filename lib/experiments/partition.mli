(** Partition / gray-failure nemesis for the quorum membership protocol.

    Scheduled network partitions, asymmetric one-way cuts and slow-link
    (gray failure) windows — no crashes — driven across protocols and
    replication settings. Since every node stays up, any death
    declaration the quorum produces is false by construction, which is
    precisely the regime split-brain-safe failover must survive: the
    falsely declared node is fenced by the membership epoch, readmitted
    by message delivery, and nothing it holds is ever reclaimed.

    Every run passes the shared oracle ({!Runner.oracle}): exact root
    accounting, exact wire reconciliation (membership traffic included),
    a clean split-brain audit ({!Core.Runtime.audit}), serializability,
    every declaration counted false, and no node left declared or parked
    at the end. The suite's gates require that on every schedule built to
    force a false declaration, a declaration, its false-suspicion count
    and a readmission all actually happened. *)

type schedule = {
  sched_name : string;
  sched_link_windows : Sim.Fault.link_window list;
  sched_expect_false : bool;  (** the forced-false gates cover this schedule *)
  sched_config : Core.Config.t -> Core.Config.t;  (** applied after the timers *)
  sched_replicas : int list;  (** the GDO replica counts the schedule runs with *)
}

val minority_isolated : schedule
(** Node 3 split from the {0,1,2} majority long enough to be declared,
    failed over (with replicas), parked, and readmitted at the heal. *)

val even_split : schedule
(** Symmetric 2-2 split: no quorum on either side, so no declaration —
    both sides park until the heal. *)

val one_way_cut : schedule
(** Asymmetric 1 -> 2 cut: a single suspecting observer cannot reach
    quorum, so no declaration. *)

val slow_link : schedule
(** Gray failure: 0 -> 1 delivers 2 ms late — suspicion without quorum,
    no declaration. *)

val false_suspicion : schedule
(** A healthy home isolated just long enough that the declaration
    strictly precedes the heal. *)

val false_suspicion_leased : schedule
(** {!false_suspicion} with 10 ms read leases on, replicated only: the
    successor of the falsely declared home must wait out the lease fence
    before serving — fence deferrals show up in the metrics. *)

val default_schedules : schedule list
(** All six schedules above. *)

val default_spec : Workload.Spec.t

val case : schedule -> replicas:int -> Suite.case
(** The schedule's link windows (fault seed 1) under
    {!Chaos.tight_timers}, with [replicas] GDO replicas. *)

val suite : Suite.t
(** COTEC/OTEC/LOTEC × every schedule × its replica counts. *)
