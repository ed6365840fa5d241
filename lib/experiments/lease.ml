(* Few hot objects, brisk arrivals, every node submitting: the same objects
   are re-read from the same nodes by many families, which is the pattern a
   lease turns into zero-message acquisitions. The method catalog is wide
   because the generator guarantees one mutator per class (method m0) and
   picks methods uniformly — a wide catalog is what makes a high
   [read_only_method_fraction] translate into a genuinely read-dominated
   run. Four nodes keeps recall fan-out (the cost of a write to a leased
   object) small relative to per-node read reuse (the saving). *)
let default_spec =
  {
    Workload.Scenarios.medium_high with
    Workload.Spec.object_count = 8;
    root_count = 160;
    node_count = 4;
    methods_per_class = 16;
    access_skew = 0.8;
    arrival_mean_us = 120.0;
  }

(* The TTL bounds how long a recalling write can stall when a yield is
   deferred behind a still-running reader (or lost outright): long enough
   to outlive any one family — so commit-time validation rarely dooms a
   reader — but far shorter than the run, so a deferred yield costs
   milliseconds, not the makespan. *)
let default_policy = Gdo.Lease.Fixed_ttl { ttl_us = 20_000.0 }

let suite =
  {
    Suite.name = "lease";
    protocols = Dsm.Protocol.all;
    spec = default_spec;
    (* On read-dominated workloads repeat read acquisitions are absorbed by
       the local lease caches; on write-heavier ones recalls claw the saving
       back — the read share is the axis of that trade-off. *)
    cases =
      List.map
        (fun read ->
          Suite.case
            [ ("read_fraction", Printf.sprintf "%.2f" read) ]
            ~workload:(fun s -> { s with Workload.Spec.read_only_method_fraction = read }))
        [ 0.5; 0.8; 0.95 ];
    arms =
      List.map
        (fun policy ->
          (Gdo.Lease.policy_to_string policy, fun c -> { c with Core.Config.lease = policy }))
        [ Gdo.Lease.Off; default_policy ];
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          total_messages;
          total_bytes;
          ("home_lock_ops", fun run -> Int (Dsm.Metrics.home_lock_ops (Runner.metrics run)));
          counter "lease_grants" (fun t -> t.lease_grants);
          counter "lease_hits" (fun t -> t.lease_hits);
          counter "lease_recalls" (fun t -> t.lease_recalls);
          counter "lease_yields" (fun t -> t.lease_yields);
          counter "lease_expiries" (fun t -> t.lease_expiries);
          counter "lease_aborts" (fun t -> t.lease_aborts);
          completion_time_us;
        ];
    gates = [];
  }
