(** Lease suite: the read-lease subsystem (see {!Gdo.Lease}) off vs on.

    For each protocol and each read-heaviness level, the same workload runs
    once with leases disabled and once with the fixed-TTL policy, and the
    suite reports the consistency traffic (messages/bytes), completion time
    and — the headline — {e home-node lock operations}
    ({!Dsm.Metrics.home_lock_ops}: global acquisitions + upgrades + release
    batches + recall/yield traffic). On read-dominated workloads repeat
    read acquisitions are absorbed by the local lease caches, so the
    home-node figure drops sharply; on write-heavy workloads recalls claw
    the saving back — which is the trade-off the suite quantifies. *)

val default_spec : Workload.Spec.t
(** A high-contention workload (few objects, default cluster) whose roots
    revisit the same objects from every node — the access pattern leases
    are built for. [read_only_method_fraction] is overridden per case. *)

val default_policy : Gdo.Lease.policy
(** [Fixed_ttl] whose TTL bounds a recalling write's worst-case stall well
    below the run length while outliving any one family. *)

val suite : Suite.t
(** All four protocols × read fractions [[0.5; 0.8; 0.95]], arms leases
    off and {!default_policy}. *)
