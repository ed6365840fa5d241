(* The hot-account preset: {!Workload.Scenarios.bank} with the suite's
   skew — the only axis the experiment varies about the workload. *)
let default_spec ~skew = { Workload.Scenarios.bank with Workload.Spec.access_skew = skew }

let default_params = Dsm.Escrow.default_params
let default_skews = [ 0.6; 1.2 ]

let suite =
  {
    Suite.name = "escrow";
    protocols = Dsm.Protocol.all;
    spec = Workload.Scenarios.bank;
    cases =
      List.map
        (fun skew ->
          Suite.case
            [ ("skew", Printf.sprintf "%.1f" skew) ]
            ~workload:(fun s -> { s with Workload.Spec.access_skew = skew }))
        default_skews;
    arms =
      [
        ("exclusive", fun c -> { c with Core.Config.escrow = Dsm.Escrow.off });
        ("escrow", fun c -> { c with Core.Config.escrow = Dsm.Escrow.On default_params });
      ];
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          total_messages;
          total_bytes;
          counter "escrow_reserves" (fun t -> t.escrow_reserves);
          counter "escrow_local_commits" (fun t -> t.escrow_local_commits);
          counter "escrow_reconciles" (fun t -> t.escrow_reconciles);
          counter "escrow_recalls" (fun t -> t.escrow_recalls);
          counter "escrow_refusals" (fun t -> t.escrow_refusals);
          completion_time_us;
        ];
    gates =
      [
        (* The hottest hot-account fight, where coordination avoidance has
           to show. *)
        Suite.gate "LOTEC skew 1.2: completion reduction vs exclusive (%)"
          ~select:
            (Suite.matches ~protocol:Dsm.Protocol.Lotec ~arm:"escrow" ~case:[ ("skew", "1.2") ])
          ~metric:(fun ~peer row ->
            let time r = Suite.get r "completion_time_us" in
            100.0 *. (1.0 -. (time row /. time (peer ~arm:"exclusive" ()))))
          (At_least 25.0);
      ];
  }
