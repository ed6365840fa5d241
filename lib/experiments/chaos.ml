let default_spec =
  {
    Workload.Scenarios.medium_high with
    Workload.Spec.object_count = 10;
    root_count = 25;
    node_count = 4;
  }

let fault_config ~drop ~duplicate ~jitter_us ~fault_seed =
  let fc =
    {
      Sim.Fault.none with
      Sim.Fault.seed = fault_seed;
      drop_probability = drop;
      duplicate_probability = duplicate;
      delay_jitter_us = jitter_us;
    }
  in
  if Sim.Fault.is_active fc then Some fc else None

let default_rates = [ (0.0, 0.0, 0.0); (0.05, 0.05, 25.0); (0.1, 0.1, 50.0); (0.2, 0.2, 100.0) ]

let rate_cases ~fault_seeds rates =
  List.concat_map
    (fun (drop, duplicate, jitter_us) ->
      (* A fault-free case is seed-independent: run it once. *)
      let seeds =
        if drop = 0.0 && duplicate = 0.0 && jitter_us = 0.0 then [ List.hd fault_seeds ]
        else fault_seeds
      in
      List.map
        (fun fault_seed ->
          Suite.case
            [
              ("drop", Printf.sprintf "%.2f" drop);
              ("duplicate", Printf.sprintf "%.2f" duplicate);
              ("jitter_us", Printf.sprintf "%.0f" jitter_us);
              ("fault_seed", string_of_int fault_seed);
            ]
            ~config:(fun c ->
              { c with Core.Config.faults = fault_config ~drop ~duplicate ~jitter_us ~fault_seed }))
        seeds)
    rates

let chaos =
  {
    Suite.name = "chaos";
    protocols = Dsm.Protocol.[ Cotec; Otec; Lotec ];
    spec = default_spec;
    cases = rate_cases ~fault_seeds:[ 1; 2 ] default_rates;
    arms = Suite.default_arm;
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          total_messages;
          counter "drops" (fun t -> t.drops);
          counter "duplicates" (fun t -> t.duplicates);
          counter "retransmits" (fun t -> t.retransmits);
          counter "timeouts" (fun t -> t.timeouts);
          completion_time_us;
        ];
    gates = [];
  }

(* Detection, declaration and failover all land well inside a
   few-millisecond window: a sender gives up on a crashed peer after
   ~3.5 ms (0.5 + 1 + 2), a silent peer is declared dead ~2 ms into the
   window. *)
let tight_timers c =
  {
    c with
    Core.Config.request_timeout_us = 500.0;
    max_retransmits = 3;
    heartbeat_interval_us = 500.0;
    suspect_timeout_us = 1_500.0;
  }

let crash_faults ~fault_seed windows =
  {
    Sim.Fault.none with
    Sim.Fault.seed = fault_seed;
    windows =
      List.map
        (fun (node, from_us, until_us) ->
          {
            Sim.Fault.w_node = node;
            w_kind = Sim.Fault.Crash;
            w_from_us = from_us;
            w_until_us = until_us;
          })
        windows;
  }

(* Default windows against [default_spec]'s ~20-26 ms fault-free makespan:
   one mid-run crash, and a staggered pair leaving a quorum up throughout.
   Every node is the GDO home of some partition (home = oid mod nodes), so
   any crash exercises home unavailability; with replicas >= 1 it exercises
   failover and failback instead. *)
let default_crash_windows =
  [ [ (2, 3_000.0, 9_000.0) ]; [ (1, 2_000.0, 6_000.0); (3, 8_000.0, 13_000.0) ] ]

let crash =
  let case windows =
    Suite.case
      [
        ( "windows",
          String.concat ","
            (List.map (fun (n, f, u) -> Printf.sprintf "%d:%.0f-%.0f" n f u) windows) );
        ("fault_seed", "1");
      ]
      ~config:(fun c ->
        tight_timers { c with Core.Config.faults = Some (crash_faults ~fault_seed:1 windows) })
  in
  {
    Suite.name = "crash";
    (* RC-nested's eager pushes are not crash-hardened. *)
    protocols = Dsm.Protocol.[ Cotec; Otec; Lotec ];
    spec = default_spec;
    cases = List.map case default_crash_windows;
    (* Without a replica a crashed home's partition is unavailable until it
       rejoins; with one, the ring successor takes over. *)
    arms =
      List.map
        (fun r ->
          (Printf.sprintf "gdo_replicas=%d" r, fun c -> { c with Core.Config.gdo_replicas = r }))
        [ 0; 1 ];
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          counter "crash_aborts" (fun t -> t.crash_aborts);
          ( "recovered",
            fun run ->
              Int (Dsm.Histogram.count (Dsm.Metrics.recovery_latency (Runner.metrics run))) );
          counter "give_ups" (fun t -> t.give_ups);
          counter "nodes_declared_dead" (fun t -> t.nodes_declared_dead);
          counter "families_reclaimed" (fun t -> t.families_reclaimed);
          counter "failovers" (fun t -> t.failovers);
          percentile "recovery_p50_us" Dsm.Metrics.recovery_latency 50.0;
          percentile "recovery_p99_us" Dsm.Metrics.recovery_latency 99.0;
          total_messages;
          completion_time_us;
        ];
    gates = [];
  }
