(** Function shipping versus data shipping ({!Dsm.Shipping}).

    LOTEC always moves pages to the invoking site. This suite measures what
    the per-call cost model buys on a locality-skewed nesting workload —
    multi-page objects homed on single nodes, invoked mostly from
    elsewhere — by running every case twice: shipping off (the always
    data-ship baseline) and shipping on, across protocols, locality skews
    and per-message software costs (the model's σ tracks the link). The
    headline gates, recorded in [BENCH_ship.json]: LOTEC with shipping at
    skew 1.5 and σ 20 µs moves at least 30% fewer bytes than its data-ship
    baseline, with completion time no worse than +2%. The shared oracle's
    serializability check is what pins "a shipped child is
    indistinguishable from a local one". *)

val default_spec : skew:float -> Workload.Spec.t
(** The locality-skewed nesting preset: 48 objects of 3–6 pages over 8
    nodes, methods covering most of their object, deep nesting
    ([invoke_probability] 0.75), root traffic concentrated by [skew]. *)

val default_params : Dsm.Shipping.params

val default_skews : float list
(** 0 (uniform) and 1.5 (skewed). *)

val default_software_costs : float list
(** 20 and 60 µs. *)

val case : skew:float -> software_us:float -> Suite.case
(** The workload at [skew], on a link whose per-message software cost is
    [software_us]. *)

val suite : Suite.t
(** All four protocols × {!default_skews} × {!default_software_costs},
    arms [data-ship] and [shipping]. *)
