(* The locality-skewed nesting preset: multi-page objects whose pages all
   start at one home node, methods that touch most of them, and deep
   nesting so a large share of invocations target objects homed away from
   the invoker — the regime where moving the method beats moving the
   pages. [skew] concentrates root traffic on the low-numbered objects,
   raising the fraction of cross-node invocations of the same hot homes. *)
let default_spec ~skew =
  {
    Workload.Spec.default with
    Workload.Spec.seed = 77;
    object_count = 48;
    min_pages = 3;
    max_pages = 6;
    root_count = 120;
    arrival_mean_us = 400.0;
    access_fraction = 0.85;
    access_density = 0.95;
    scatter_probability = 0.0;
    write_fraction = 0.3;
    branch_probability = 0.1;
    invoke_probability = 0.75;
    max_ref_slots = 3;
    read_only_method_fraction = 0.4;
    access_skew = skew;
  }

let default_params = Dsm.Shipping.default_params
let default_skews = [ 0.0; 1.5 ]
let default_software_costs = [ 20.0; 60.0 ]

let case ~skew ~software_us =
  Suite.case
    [ ("skew", Printf.sprintf "%.1f" skew); ("software_us", Printf.sprintf "%g" software_us) ]
    ~workload:(fun s -> { s with Workload.Spec.access_skew = skew })
    ~config:(fun c ->
      {
        c with
        Core.Config.link = { c.Core.Config.link with Sim.Network.software_cost_us = software_us };
      })

(* The gate row: LOTEC under shipping at the strongest skew and the
   cheapest messaging — the least favourable σ, so shipping must win on
   bytes, not on an inflated per-message charge. *)
let headline row =
  row.Suite.protocol = Dsm.Protocol.Lotec
  && row.Suite.arm = "shipping"
  && Suite.label row "skew" = "1.5"
  && Suite.label row "software_us" = "20"

let suite =
  {
    Suite.name = "ship";
    protocols = Dsm.Protocol.all;
    spec = default_spec ~skew:0.0;
    cases =
      List.concat_map
        (fun skew -> List.map (fun software_us -> case ~skew ~software_us) default_software_costs)
        default_skews;
    arms =
      [
        ("data-ship", fun c -> { c with Core.Config.shipping = Dsm.Shipping.off });
        (* The model's σ and β come from the case's link. *)
        ("shipping", fun c -> { c with Core.Config.shipping = Dsm.Shipping.On default_params });
      ];
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          total_messages;
          total_bytes;
          counter "ships" (fun t -> t.ships);
          counter "ship_declines" (fun t -> t.ship_declines);
          counter "ships_forced" (fun t -> t.ships_forced);
          counter "ship_bytes_saved" (fun t -> t.ship_bytes_saved);
          completion_time_us;
          (* Total consistency time replayed under the case's link. *)
          ( "total_time_us",
            fun run ->
              Float
                (Dsm.Metrics.total_time_us (Runner.metrics run)
                   ~link:(Core.Runtime.config run.Runner.runtime).Core.Config.link) );
        ];
    gates =
      Suite.
        [
          gate "LOTEC skew 1.5 sw 20: bytes reduction vs data-ship (%)" ~select:headline
            ~metric:(fun ~peer row ->
              100.0
              *. (1.0 -. (get row "total_bytes" /. get (peer ~arm:"data-ship" ()) "total_bytes")))
            (At_least 30.0);
          gate "LOTEC skew 1.5 sw 20: completion time ratio vs data-ship" ~select:headline
            ~metric:(fun ~peer row ->
              get row "completion_time_us" /. get (peer ~arm:"data-ship" ()) "completion_time_us")
            (At_most 1.02);
        ];
  }
