let software_costs_us = [ 100.0; 20.0; 5.0; 1.0; 0.5 ]
let paper_protocols = Dsm.Protocol.[ Cotec; Otec; Lotec ]

(* Relative change of [a] against [b], in percent: negative = [a] smaller. *)
let pct a b = 100.0 *. (a -. b) /. b

(* The selected row's [column] against its peer's under another protocol or
   arm, in percent. *)
let vs ~(peer : Suite.peer) ?protocol ?arm column row =
  pct (Suite.get row column) (Suite.get (peer ?protocol ?arm ()) column)

let lotec = Suite.matches ~protocol:Dsm.Protocol.Lotec
let otec = Suite.matches ~protocol:Dsm.Protocol.Otec

(* ---------- Figures 2-8: the paper's four scenarios ---------- *)

let scenarios =
  Workload.Scenarios.
    [
      ("fig2", "medium-high", medium_high);
      ("fig3", "large-high", large_high);
      ("fig4", "medium-moderate", medium_moderate);
      ("fig5", "large-moderate", large_moderate);
    ]

let bandwidths_bps = [ 1e7; 1e8; 1e9 ]

(* Active messages (§6) cut the software cost of the small handler-dispatched
   control messages — lock requests and grants, page requests — that LOTEC
   sends more of than OTEC. The replay holds data messages at a conventional
   20 us on a 1 Gbps link and sweeps the control cost downward. *)
let control_costs_us = [ 20.0; 5.0; 1.0; 0.5 ]

let active_messages control_software_cost_us =
  ( Printf.sprintf "total_time_us_am_ctrl%g" control_software_cost_us,
    fun run ->
      Suite.Float
        (Dsm.Metrics.total_time_us_am (Runner.metrics run)
           ~link:{ Sim.Network.bandwidth_bps = 1e9; software_cost_us = 20.0 }
           ~control_software_cost_us) )

let lotec_fig2 = Suite.matches ~protocol:Dsm.Protocol.Lotec ~case:[ ("scenario", "fig2") ]

(* LOTEC's replayed time against the faster of OTEC and COTEC, at the
   software cost least favourable to LOTEC. *)
let worst_time_margin bandwidth_bps ~(peer : Suite.peer) row =
  List.fold_left
    (fun worst sw ->
      let column = fst (Suite.time_replay ~bandwidth_bps sw) in
      let time protocol = Suite.get (peer ~protocol ()) column in
      Float.max worst
        (pct (Suite.get row column) (Float.min (time Dsm.Protocol.Otec) (time Dsm.Protocol.Cotec))))
    Float.neg_infinity software_costs_us

(* The largest step by which LOTEC's margin over OTEC grows as the control
   cost drops; at most 0 means the margin never gets worse. *)
let worst_margin_step ~(peer : Suite.peer) row =
  let margins =
    List.map
      (fun c ->
        let column = fst (active_messages c) in
        vs ~peer ~protocol:Dsm.Protocol.Otec column row)
      control_costs_us
  in
  snd
    (List.fold_left
       (fun (prev, worst) m -> (m, Float.max worst (m -. prev)))
       (List.hd margins, Float.neg_infinity)
       (List.tl margins))

(* Report-only: the §5 headline band for one protocol pair on one scenario. *)
let band protocol ~against (lo, hi) (fig, _, _) =
  let name p = Format.asprintf "%a" Dsm.Protocol.pp p in
  Suite.gate ~report_only:true
    (Printf.sprintf "%s bytes: %s vs %s (%%), paper band" fig (name protocol) (name against))
    ~select:(Suite.matches ~protocol ~case:[ ("scenario", fig) ])
    ~metric:(fun ~peer -> vs ~peer ~protocol:against "total_bytes")
    (Between (lo, hi))

let paper =
  {
    Suite.name = "paper";
    protocols = paper_protocols;
    spec = Workload.Scenarios.medium_high;
    cases =
      List.map
        (fun (fig, scenario, spec) ->
          Suite.case [ ("scenario", fig); ("workload", scenario) ] ~workload:(fun _ -> spec))
        scenarios;
    arms = Suite.default_arm;
    (* Figures 2-5 are the per-object columns. Figures 6-8 replay each
       protocol's recorded ledger through the paper's (bandwidth x
       per-message software cost) grid, as the authors recomputed their
       instrumented traffic; an object's panel is the same formula over its
       two per-object columns. *)
    columns =
      Suite.[ total_bytes; total_messages; bytes_per_object; messages_per_object ]
      @ List.concat_map
          (fun bandwidth_bps -> List.map (Suite.time_replay ~bandwidth_bps) software_costs_us)
          bandwidths_bps
      @ List.map active_messages control_costs_us;
    gates =
      Suite.
        [
          gate "bytes: LOTEC vs OTEC (%), every scenario" ~select:lotec
            ~metric:(fun ~peer -> vs ~peer ~protocol:Dsm.Protocol.Otec "total_bytes")
            (At_most 0.0);
          gate "bytes: OTEC vs COTEC (%), every scenario" ~select:otec
            ~metric:(fun ~peer -> vs ~peer ~protocol:Dsm.Protocol.Cotec "total_bytes")
            (At_most 0.0);
          gate "fig2 at 10 Mbps: LOTEC time vs faster of OTEC and COTEC, worst sw cost (%)"
            ~select:lotec_fig2 ~metric:(worst_time_margin 1e7) (At_most 0.0);
          gate "fig2 at 100 Mbps: LOTEC time vs faster of OTEC and COTEC, worst sw cost (%)"
            ~select:lotec_fig2 ~metric:(worst_time_margin 1e8) (At_most 0.0);
          (* The crossover: a heavyweight stack on a fast link makes LOTEC's
             extra small messages cost more than its byte savings buy. *)
          gate "fig2 at 1 Gbps, 100 us stack: LOTEC time vs OTEC (%)" ~select:lotec_fig2
            ~metric:(fun ~peer ->
              vs ~peer ~protocol:Dsm.Protocol.Otec (fst (time_replay ~bandwidth_bps:1e9 100.0)))
            (At_least 0.0);
          gate "fig2 active messages: worst step of LOTEC's margin over OTEC as control cost drops"
            ~select:lotec_fig2 ~metric:worst_margin_step (At_most 0.0);
        ]
      @ List.concat_map
          (fun s ->
            [
              band Dsm.Protocol.Otec ~against:Dsm.Protocol.Cotec (-25.0, -20.0) s;
              band Dsm.Protocol.Lotec ~against:Dsm.Protocol.Otec (-10.0, -5.0) s;
            ])
          scenarios;
  }

(* ---------- Protocols: RC-nested and throughput on Figure 2 ---------- *)

(* RC-nested is the Release-Consistency comparison the authors describe as
   "now underway": eager pushing trades bytes for acquisition latency.
   Multicast push collapses its per-destination software cost to one
   message per push. Throughput is committed roots over the makespan. *)
let protocols =
  let rc = Suite.matches ~protocol:Dsm.Protocol.Rc_nested in
  {
    Suite.name = "protocols";
    protocols = Dsm.Protocol.all;
    spec = Workload.Scenarios.medium_high;
    cases = [ Suite.case [] ];
    arms =
      [
        ("plain", Fun.id);
        ("multicast_push", fun c -> { c with Core.Config.multicast_push = true });
      ];
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          total_bytes;
          total_messages;
          completion_time_us;
          mean_root_latency_us;
          root_latency "p50_root_latency_us" Stats.median;
          root_latency "p95_root_latency_us" (Stats.percentile 95.0);
        ];
    gates =
      Suite.
        [
          gate "RC-nested vs LOTEC bytes (%)" ~select:(rc ~arm:"plain")
            ~metric:(fun ~peer -> vs ~peer ~protocol:Dsm.Protocol.Lotec "total_bytes")
            (At_least 0.0);
          gate "RC-nested multicast push vs plain bytes (%)" ~select:(rc ~arm:"multicast_push")
            ~metric:(fun ~peer -> vs ~peer ~arm:"plain" "total_bytes")
            (At_most 0.0);
          gate "RC-nested vs LOTEC completion time (%)" ~select:(rc ~arm:"plain")
            ~metric:(fun ~peer -> vs ~peer ~protocol:Dsm.Protocol.Lotec "completion_time_us")
            (At_most 0.0);
        ];
  }

(* ---------- Ablation: prefetch and GDO replication under LOTEC ---------- *)

(* Optimistic pre-acquisition hides remote lock latency when locks are
   likely free; under heavy conflict the extra optimistic W locks backfire.
   Both regimes are cases. GDO replication (§4.1: the directory is
   "partitioned and replicated") is measured on Figure 2's workload: what
   reliability's standing traffic costs under LOTEC. *)
let prefetch_low_contention_spec =
  { Workload.Scenarios.large_moderate with Workload.Spec.root_count = 60; arrival_mean_us = 500.0 }

let replica_arm n = Printf.sprintf "gdo_replicas=%d" n

let ablation =
  let added_replica = [ (replica_arm 1, "baseline"); (replica_arm 2, replica_arm 1) ] in
  let on_fig2 r =
    Suite.matches ~case:[ ("workload", "fig2") ] r && List.mem_assoc r.Suite.arm added_replica
  in
  {
    Suite.name = "ablation";
    protocols = [ Dsm.Protocol.Lotec ];
    spec = Workload.Scenarios.medium_high;
    cases =
      List.map
        (fun (name, spec) -> Suite.case [ ("workload", name) ] ~workload:(fun _ -> spec))
        [
          ("low-contention", prefetch_low_contention_spec);
          ("high-contention", Workload.Scenarios.large_high);
          ("fig2", Workload.Scenarios.medium_high);
        ];
    arms =
      ("baseline", Fun.id)
      :: ("prefetch", fun c -> { c with Core.Config.prefetch = true })
      :: List.map
           (fun n -> (replica_arm n, fun c -> { c with Core.Config.gdo_replicas = n }))
           [ 1; 2 ];
    columns = Suite.[ total_bytes; total_messages; completion_time_us; mean_root_latency_us ];
    gates =
      Suite.
        [
          gate "low contention: prefetch vs baseline completion time (%)"
            ~select:(matches ~arm:"prefetch" ~case:[ ("workload", "low-contention") ])
            ~metric:(fun ~peer -> vs ~peer ~arm:"baseline" "completion_time_us")
            (At_most 0.0);
          gate "fig2: fewest messages added by one more GDO replica" ~select:on_fig2
            ~metric:(fun ~peer row ->
              get row "total_messages"
              -. get (peer ~arm:(List.assoc row.arm added_replica) ()) "total_messages")
            (At_least 1.0);
          gate "fig2: GDO replicas vs baseline mean root latency, largest change (%)"
            ~select:on_fig2
            ~metric:(fun ~peer row ->
              Float.abs (vs ~peer ~arm:"baseline" "mean_root_latency_us" row))
            (At_most 0.0);
        ];
  }

(* ---------- Per-class protocols (§6) ---------- *)

(* A heterogeneous workload (object sizes 1-20 pages), run uniformly and
   under a hybrid that keeps LOTEC's lazy prediction only for classes of at
   least 6 pages (where partial transfer pays) while small classes use plain
   OTEC (avoiding LOTEC's extra demand-fetch messages on objects that fit in
   a couple of pages anyway). *)
let per_class_spec =
  {
    Workload.Spec.default with
    Workload.Spec.seed = 23;
    object_count = 30;
    min_pages = 1;
    max_pages = 20;
    root_count = 120;
  }

(* The hybrid arm is tied to [per_class_spec]: its classes are read once from
   that spec's catalog at the default page size, which the suite's single
   case keeps. *)
let small_classes_on_otec =
  lazy
    (let catalog =
       (Workload.Generator.generate per_class_spec ~page_size:Core.Config.default.page_size)
         .Workload.Generator.catalog
     in
     List.filter_map
       (fun oid ->
         let cls = (Objmodel.Catalog.find catalog oid).Objmodel.Catalog.cls in
         if Objmodel.Obj_class.page_count cls < 6 then
           Some (Objmodel.Obj_class.name cls, Dsm.Protocol.Otec)
         else None)
       (Objmodel.Catalog.oids catalog))

let per_class =
  {
    Suite.name = "per-class";
    protocols = paper_protocols;
    spec = per_class_spec;
    cases = [ Suite.case [] ];
    arms =
      [
        ("uniform", Fun.id);
        ( "hybrid",
          fun c -> { c with Core.Config.class_protocols = Lazy.force small_classes_on_otec } );
      ];
    columns =
      Suite.
        [
          total_bytes;
          total_messages;
          completion_time_us;
          mean_root_latency_us;
          ( "class_protocols",
            fun run ->
              Int
                (List.length (Core.Runtime.config run.Runner.runtime).Core.Config.class_protocols)
          );
        ];
    gates = [];
  }

(* ---------- §5.1: locking overhead vs object granularity ---------- *)

(* "The LOTEC protocol, as described, has a natural preference for
   coarse-grained concurrency since the larger objects are, the fewer lock
   operations are necessary. ... Heavily object-based environments can
   sometimes aggregate related small objects into larger objects ... While
   this is not optimal for all applications..." The total shared state (96
   pages) and the transaction load are held fixed while the state is
   partitioned into ever fewer, larger lockable objects: global lock
   operations and their control traffic drop with aggregation, and root
   latency eventually rises from the false contention of locking unrelated
   data together. *)
let total_pages = 96

let control_total name read =
  ( name,
    fun run ->
      let m = Runner.metrics run in
      Suite.Int
        (List.fold_left
           (fun acc oid -> acc + read (Dsm.Metrics.per_object m oid))
           0 (Dsm.Metrics.objects m)) )

let granularity =
  {
    Suite.name = "granularity";
    protocols = [ Dsm.Protocol.Lotec ];
    spec = { Workload.Spec.default with Workload.Spec.seed = 31; root_count = 120 };
    cases =
      List.map
        (fun pages ->
          let objects = total_pages / pages in
          let cut s =
            { s with Workload.Spec.object_count = objects; min_pages = pages; max_pages = pages }
          in
          Suite.case
            [ ("objects", string_of_int objects); ("pages_per_object", string_of_int pages) ]
            ~workload:cut)
        [ 2; 4; 8; 16 ];
    arms = Suite.default_arm;
    columns =
      Suite.
        [
          counter "global_acquisitions" (fun t -> t.global_acquisitions);
          control_total "control_messages" (fun e -> e.Dsm.Metrics.control_messages);
          control_total "control_bytes" (fun e -> e.Dsm.Metrics.control_bytes);
          ("total_data_bytes", fun run -> Int (Dsm.Metrics.total_data_bytes (Runner.metrics run)));
          completion_time_us;
          mean_root_latency_us;
          root_latency "p95_root_latency_us" (Stats.percentile 95.0);
        ];
    gates =
      [
        Suite.gate "8 vs 2 pages per object: global lock acquisitions (%)"
          ~select:(Suite.matches ~case:[ ("pages_per_object", "8") ])
          ~metric:(fun ~peer row ->
            pct
              (Suite.get row "global_acquisitions")
              (Suite.get
                 (peer ~case:[ ("objects", "48"); ("pages_per_object", "2") ] ())
                 "global_acquisitions"))
          (At_most 0.0);
      ];
  }

(* ---------- §5: "We varied the number of objects, the size of the objects
   and the number of transactions" ---------- *)

(* Each axis holds the other dimensions at the Figure 2 setting, showing how
   the protocol gaps respond to contention, object size and load. *)
let sweep =
  let axis name settings delta =
    List.map
      (fun (setting, v) ->
        Suite.case [ ("axis", name); ("setting", setting) ] ~workload:(fun s -> delta s v))
      settings
  in
  let ints = List.map (fun n -> (string_of_int n, n)) in
  let ordered r = List.mem (Suite.label r "axis") [ "objects"; "roots" ] in
  {
    Suite.name = "sweep";
    protocols = paper_protocols;
    spec = Workload.Scenarios.medium_high;
    cases =
      axis "objects" (ints [ 10; 20; 50; 100; 200 ]) (fun s n ->
          { s with Workload.Spec.object_count = n })
      @ axis "pages"
          (List.map
             (fun (lo, hi) -> (Printf.sprintf "%d-%d" lo hi, (lo, hi)))
             [ (1, 2); (1, 5); (5, 10); (10, 20) ])
          (fun s (lo, hi) -> { s with Workload.Spec.min_pages = lo; max_pages = hi })
      @ axis "roots" (ints [ 50; 100; 200; 400 ]) (fun s n ->
            { s with Workload.Spec.root_count = n });
    arms = Suite.default_arm;
    columns = Suite.[ total_bytes; total_messages ];
    gates =
      Suite.
        [
          gate "bytes: LOTEC vs OTEC (%), every object count and roots setting"
            ~select:(fun r -> lotec r && ordered r)
            ~metric:(fun ~peer -> vs ~peer ~protocol:Dsm.Protocol.Otec "total_bytes")
            (At_most 0.0);
          gate "bytes: OTEC vs COTEC (%), every object count and roots setting"
            ~select:(fun r -> otec r && ordered r)
            ~metric:(fun ~peer -> vs ~peer ~protocol:Dsm.Protocol.Cotec "total_bytes")
            (At_most 0.0);
          (* A conservative prediction cannot exclude any page of a tiny
             object, so LOTEC's edge must come from the large ones. *)
          gate "10-20 pages: LOTEC's bytes gap to OTEC minus its gap at 1-2 pages (points)"
            ~select:(matches ~protocol:Dsm.Protocol.Lotec ~case:[ ("setting", "10-20") ])
            ~metric:(fun ~peer _ ->
              let gap case =
                pct
                  (get (peer ~case ()) "total_bytes")
                  (get (peer ~protocol:Dsm.Protocol.Otec ~case ()) "total_bytes")
              in
              gap [] -. gap [ ("setting", "1-2") ])
            (At_most 0.0);
        ];
  }

(* ---------- §2: throughput vs cluster size ---------- *)

(* Two regimes. The paper's premise (§2) is that transaction processing is
   bound by the *volume* of computation, so spreading families over more
   processors raises throughput — that only shows when CPUs are a modelled,
   contended resource and method execution is non-trivial (the cpu-bound
   arm). The communication-bound arm (default cost model: ~0.2 us per
   statement, free CPUs) shows the opposite force: more nodes means less
   locality and more consistency traffic. The workload (arrivals, objects,
   methods) is held fixed; only the cluster grows, with roots rebalanced
   round-robin over the available nodes. *)
let throughput_tps r = Suite.get r "roots_committed" /. Suite.get r "completion_time_us" *. 1e6

let scaling =
  let nodes = [ 2; 4; 8; 16 ] in
  let at_16 arm = Suite.matches ~arm ~case:[ ("nodes", "16") ] in
  let growth ~(peer : Suite.peer) row =
    pct (throughput_tps row) (throughput_tps (peer ~case:[ ("nodes", "2") ] ()))
  in
  {
    Suite.name = "scaling";
    protocols = [ Dsm.Protocol.Lotec ];
    (* Dense arrivals: the offered load must exceed what a couple of CPUs
       can absorb, or there is nothing for extra processors to pick up. *)
    spec = { Workload.Scenarios.medium_moderate with Workload.Spec.arrival_mean_us = 15.0 };
    cases =
      List.map
        (fun n ->
          Suite.case [ ("nodes", string_of_int n) ] ~workload:(fun s ->
              { s with Workload.Spec.node_count = n }))
        nodes;
    arms =
      [
        ("comm-bound", Fun.id);
        ("cpu-bound", fun c -> { c with Core.Config.cpu_limited = true; statement_us = 50.0 });
      ];
    columns =
      Suite.
        [
          roots_committed;
          roots_aborted;
          completion_time_us;
          mean_root_latency_us;
          root_latency "p50_root_latency_us" Stats.median;
          root_latency "p95_root_latency_us" (Stats.percentile 95.0);
        ];
    gates =
      Suite.
        [
          gate "cpu-bound: throughput at 16 vs 2 nodes (%)" ~select:(at_16 "cpu-bound")
            ~metric:growth (At_least 0.0);
          gate "comm-bound: throughput at 16 vs 2 nodes (%)" ~select:(at_16 "comm-bound")
            ~metric:growth (At_most 0.0);
        ];
  }

let all = [ paper; protocols; ablation; per_class; granularity; sweep; scaling ]
