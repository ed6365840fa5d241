(* The standard scenario, under light interconnect faults. The fault model
   matters: without it the transport sends no acks (there is nothing to
   lose), and on this workload LOTEC's predicted access sets cover the
   actual ones, so fault-free demand fetches are zero — ack piggybacking,
   the headline saving, only exists on a lossy interconnect, which is also
   the regime the paper's software-cost argument is about. *)
let default_spec = Workload.Scenarios.medium_high

let default_faults =
  {
    Sim.Fault.seed = 1;
    drop_probability = 0.03;
    duplicate_probability = 0.0;
    delay_jitter_us = 30.0;
    windows = [];
    link_windows = [];
  }

let default_bandwidth_bps = 1e8

let suite =
  {
    Suite.name = "batch";
    protocols = Dsm.Protocol.[ Otec; Lotec ];
    spec = default_spec;
    cases =
      [ Suite.case [] ~config:(fun c -> { c with Core.Config.faults = Some default_faults }) ];
    arms =
      List.map
        (fun policy ->
          (Dsm.Batching.to_string policy, fun c -> { c with Core.Config.batching = policy }))
        Dsm.Batching.[ off; all ];
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          total_messages;
          total_bytes;
          ( "wire_riders_total",
            fun run -> Int (Dsm.Metrics.wire_riders_total (Runner.metrics run)) );
          counter "acks_piggybacked" (fun t -> t.acks_piggybacked);
          counter "acks_flushed" (fun t -> t.acks_flushed);
          counter "fetches_aggregated" (fun t -> t.fetches_aggregated);
          counter "releases_coalesced" (fun t -> t.releases_coalesced);
          counter "heartbeats_suppressed" (fun t -> t.heartbeats_suppressed);
          counter "retransmits" (fun t -> t.retransmits);
          completion_time_us;
        ]
      (* The Figures 6-8 replay: per-message software cost x the measured
         ledgers. This is where combining pays — at high software cost the
         per-message overhead dominates, which is exactly LOTEC's weakness
         in the paper. *)
      @ List.map (Suite.time_replay ~bandwidth_bps:default_bandwidth_bps) Paper.software_costs_us;
    gates = [];
  }
