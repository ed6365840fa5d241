(* Partition / gray-failure nemesis: scheduled network partitions,
   asymmetric cuts and slow links driven against the quorum membership
   protocol.

   Windows open at 1 ms — inside the workload's arrival span, so some
   roots are submitted mid-partition and the in-window availability
   columns measure something real.

   Unlike the crash suite nothing here ever crashes: every node stays up
   and keeps executing, and any death declaration the quorum produces is
   by construction FALSE — which is exactly the regime the membership
   protocol must survive. The shared oracle checks every run (clean
   split-brain audit, exact wire reconciliation with the extra Suspect /
   View_change traffic, every declaration counted false, nobody left
   declared or parked); the gates check that the schedules built to force
   a false declaration really produced one, counted it as false, and
   readmitted the node. *)

type schedule = {
  sched_name : string;
  sched_link_windows : Sim.Fault.link_window list;
  sched_expect_false : bool;
  sched_config : Core.Config.t -> Core.Config.t;
  sched_replicas : int list;
}

(* ------------------------------------------------------------------ *)
(* Schedules. Timers are tightened ([Chaos.tight_timers]: heartbeat
   500 us, suspect timeout 1.5 ms), so windows a few milliseconds long
   are plenty for suspicion to ripen into a declaration before the heal. *)

let lw kind ~from_us ~until_us =
  { Sim.Fault.lw_kind = kind; lw_from_us = from_us; lw_until_us = until_us }

let schedule ?(expect_false = false) name windows =
  {
    sched_name = name;
    sched_link_windows = windows;
    sched_expect_false = expect_false;
    sched_config = Fun.id;
    sched_replicas = [ 0; 1 ];
  }

(* Node 3 cut off from the {0,1,2} majority. The majority declares it
   dead (falsely — it is parked, not crashed), fails its partition over
   when replicas are configured, and readmits it when its first
   post-heal message is delivered. *)
let minority_isolated =
  schedule ~expect_false:true "minority-iso"
    [ lw (Sim.Fault.Partition [ 3 ]) ~from_us:1_000.0 ~until_us:7_000.0 ]

(* Symmetric 2-2 split: neither side has a quorum (3 of 4), so nobody is
   declared — both sides park and the run resumes at the heal. *)
let even_split =
  schedule "even-split" [ lw (Sim.Fault.Partition [ 0; 1 ]) ~from_us:1_000.0 ~until_us:5_000.0 ]

(* Asymmetric cut 1 -> 2: node 2 stops hearing node 1 and suspects it,
   but nobody else does — a single observer cannot manufacture a quorum,
   so no declaration. *)
let one_way_cut =
  schedule "one-way"
    [ lw (Sim.Fault.One_way { cut_src = 1; cut_dst = 2 }) ~from_us:1_000.0 ~until_us:5_000.0 ]

(* Gray failure: the 0 -> 1 link delivers, 2 ms late — beyond the
   suspect timeout, so node 1 suspects node 0 intermittently, yet the
   quorum never corroborates and no declaration happens. *)
let slow_link =
  schedule "slow-link"
    [
      lw
        (Sim.Fault.Slow { slow_src = 0; slow_dst = 1; extra_us = 2_000.0 })
        ~from_us:1_000.0 ~until_us:7_000.0;
    ]

(* The false-suspicion scenario, window sized so the declaration strictly
   precedes the heal: isolation ends at 4.5 ms, ~2 ms after the
   majority's detectors fire. *)
let false_suspicion =
  schedule ~expect_false:true "false-suspicion"
    [ lw (Sim.Fault.Partition [ 2 ]) ~from_us:1_000.0 ~until_us:4_500.0 ]

(* The false-suspicion scenario again, with read leases on: the isolated
   home has granted leases before the cut, so after its (false)
   declaration the successor must sit out the lease fence before serving
   — fence deferrals become visible in the metrics. The 10 ms leases are
   long enough to straddle the declaration. Replicated only: without a
   successor there is nobody to hold at the fence. *)
let false_suspicion_leased =
  {
    false_suspicion with
    sched_name = "false-susp-lease";
    (* Longer isolation than the plain scenario: the fence dissolves at
       the readmission, so the heal must come well after the successor
       has had acquires to hold at the fence. *)
    sched_link_windows = [ lw (Sim.Fault.Partition [ 2 ]) ~from_us:1_000.0 ~until_us:9_000.0 ];
    sched_config =
      (fun c -> { c with Core.Config.lease = Gdo.Lease.Fixed_ttl { ttl_us = 10_000.0 } });
    sched_replicas = [ 1 ];
  }

let default_schedules =
  [ minority_isolated; even_split; one_way_cut; slow_link; false_suspicion; false_suspicion_leased ]

(* ------------------------------------------------------------------ *)

let default_spec = Chaos.default_spec

let case s ~replicas =
  Suite.case
    [ ("schedule", s.sched_name); ("gdo_replicas", string_of_int replicas); ("fault_seed", "1") ]
    ~config:(fun c ->
      s.sched_config
        (Chaos.tight_timers
           {
             c with
             Core.Config.faults =
               Some { Sim.Fault.none with Sim.Fault.seed = 1; link_windows = s.sched_link_windows };
             gdo_replicas = replicas;
           }))

(* Roots submitted while some link window was open, and how many of those
   eventually committed: in-window availability. *)
let window_roots ~committed_only run =
  let rt = run.Runner.runtime in
  let windows =
    match (Core.Runtime.config rt).Core.Config.faults with
    | Some f -> f.Sim.Fault.link_windows
    | None -> []
  in
  let counted (r : Core.Runtime.root_result) =
    List.exists
      (fun (w : Sim.Fault.link_window) ->
        r.submitted_at >= w.Sim.Fault.lw_from_us && r.submitted_at < w.Sim.Fault.lw_until_us)
      windows
    && ((not committed_only) || r.outcome = Core.Runtime.Committed)
  in
  Suite.Int (List.length (List.filter counted (Core.Runtime.results rt)))

let forced_false row =
  List.exists
    (fun s -> s.sched_expect_false && s.sched_name = Suite.label row "schedule")
    default_schedules

let at_least_one claim column =
  Suite.gate claim ~select:forced_false
    ~metric:(fun ~peer:_ row -> Suite.get row column)
    (At_least 1.0)

let suite =
  {
    Suite.name = "partition";
    protocols = Dsm.Protocol.[ Cotec; Otec; Lotec ];
    spec = default_spec;
    cases =
      List.concat_map
        (fun s -> List.map (fun replicas -> case s ~replicas) s.sched_replicas)
        default_schedules;
    arms = Suite.default_arm;
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          counter "nodes_declared_dead" (fun t -> t.nodes_declared_dead);
          counter "false_suspicions" (fun t -> t.false_suspicions);
          counter "node_readmissions" (fun t -> t.node_readmissions);
          counter "quorum_votes" (fun t -> t.quorum_votes);
          counter "stale_epoch_rejects" (fun t -> t.stale_epoch_rejects);
          counter "fence_deferrals" (fun t -> t.fence_deferrals);
          counter "node_parks" (fun t -> t.node_parks);
          counter "failovers" (fun t -> t.failovers);
          percentile "declaration_p50_us" Dsm.Metrics.declaration_latency 50.0;
          percentile "declaration_p99_us" Dsm.Metrics.declaration_latency 99.0;
          ("window_submitted", window_roots ~committed_only:false);
          ("window_committed", window_roots ~committed_only:true);
          ( "membership_epoch",
            fun run -> Int (Core.Runtime.membership_epoch run.Runner.runtime) );
          total_messages;
          completion_time_us;
        ];
    gates =
      [
        at_least_one "every forced-false schedule declares a node dead" "nodes_declared_dead";
        at_least_one "every forced-false schedule counts the declaration false" "false_suspicions";
        at_least_one "every forced-false schedule readmits the node" "node_readmissions";
      ];
  }
