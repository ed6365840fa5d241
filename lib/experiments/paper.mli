(** The paper's evaluation (§5, with the §5.1/§6 ablations) as suites.

    Every figure, table and finding the reproduction reports is a suite
    row, written to [BENCH_<name>.json]; the qualitative claims are
    blocking gates, and the paper's quantitative §5 bands ("OTEC generally
    outperforms COTEC by approximately 20 - 25% while LOTEC outperforms
    OTEC by another 5 - 10%") are report-only gates, in or out as
    measured. Percent gates compare a row with a peer row as
    [100 * (row - peer) / peer]. *)

val software_costs_us : float list
(** Figures 6–8's x-axis: 100 µs, 20 µs, 5 µs, 1 µs, 500 ns. *)

val paper : Suite.t
(** Figures 2–8 and the §5 headline: COTEC/OTEC/LOTEC × the four
    scenarios (fig2 medium-high, fig3 large-high, fig4 medium-moderate,
    fig5 large-moderate). Columns: total bytes and messages, the
    per-object [bytes_per_object] (Figures 2–5: page data plus the
    object-tagged control traffic) and [messages_per_object], the ledger
    replayed at 10 Mbps, 100 Mbps and 1 Gbps × {!software_costs_us}
    (Figures 6–8), and the §6 active-message replay at 1 Gbps with data
    messages at 20 µs and control messages at 20, 5, 1 and 0.5 µs. Gates:
    bytes LOTEC ≤ OTEC ≤ COTEC on every scenario; on fig2 LOTEC's time
    below OTEC's and COTEC's at 10 and 100 Mbps and every software cost,
    above OTEC's at 1 Gbps with a 100 µs stack, and its active-message
    margin over OTEC never worse as the control cost drops; report-only,
    per scenario, OTEC vs COTEC in [−25, −20] % and LOTEC vs OTEC in
    [−10, −5] %. *)

val protocols : Suite.t
(** All four protocols on the Figure 2 scenario, arms [plain] and
    [multicast_push]: RC-nested against the paper's protocols, and
    committed roots, makespan and root-latency mean, median and 95th
    percentile per protocol (throughput = committed / makespan). Gates:
    RC-nested sends more bytes than LOTEC and completes first; multicast
    push sends fewer bytes than plain RC-nested. *)

val ablation : Suite.t
(** LOTEC × workloads low-contention (Figure 5's scenario with 60 roots
    arriving every 500 µs), high-contention (Figure 3's) and fig2, arms
    [baseline], [prefetch] (optimistic pre-acquisition, §5.1) and
    [gdo_replicas=1], [gdo_replicas=2] (§4.1). Gates: prefetch lowers
    completion time at low contention; on fig2 every replica adds
    messages and leaves mean root latency unchanged. *)

val per_class : Suite.t
(** The §6 per-class protocol extension: COTEC/OTEC/LOTEC over a
    heterogeneous workload (30 objects of 1–20 pages, 120 roots), arms
    [uniform] and [hybrid] (classes under 6 pages pinned to OTEC; the
    [class_protocols] column counts them). The hybrid arm's classes come
    from this suite's own spec, so a copy with another [spec] or case
    workload pins classes of a catalog it does not run. *)

val granularity : Suite.t
(** §5.1 locking overhead: LOTEC over 96 shared pages and 120 roots cut
    into 48, 24, 12 or 6 objects of 2, 4, 8 or 16 pages. Gate: 8-page
    objects take fewer global lock acquisitions than 2-page objects. *)

val sweep : Suite.t
(** The §5 workload dimensions about Figure 2's setting: object count
    (10, 20, 50, 100, 200), object size (1–2, 1–5, 5–10, 10–20 pages) and
    root count (50, 100, 200, 400), under COTEC/OTEC/LOTEC. Gates: the
    byte ordering holds at every object count and root count; LOTEC's gap
    to OTEC at 10–20 pages is below its gap at 1–2 pages. *)

val scaling : Suite.t
(** §2 throughput vs cluster size: LOTEC over Figure 4's scenario with
    15 µs mean arrivals on 2, 4, 8 and 16 nodes, arms [comm-bound] (the
    default cost model) and [cpu-bound] (one contended CPU per node, 50 µs
    statements). Gates: from 2 to 16 nodes cpu-bound throughput rises and
    comm-bound throughput does not. *)

val all : Suite.t list
(** The seven suites above, in this order. *)
