type run = {
  protocol : Dsm.Protocol.t;
  workload : Workload.Generator.t;
  runtime : Core.Runtime.t;
}

let ledger_balanced m =
  List.for_all
    (fun oid ->
      let o = Dsm.Metrics.per_object m oid in
      o.Dsm.Metrics.messages = o.Dsm.Metrics.control_messages + o.Dsm.Metrics.data_messages
      && (o.Dsm.Metrics.messages = 0 || o.Dsm.Metrics.control_bytes + o.Dsm.Metrics.data_bytes > 0))
    (Dsm.Metrics.objects m)

let oracle run =
  let rt = run.runtime in
  let config = Core.Runtime.config rt in
  let m = Core.Runtime.metrics rt in
  let t = Dsm.Metrics.totals m in
  let violations = ref [] in
  let fail clause fmt =
    Format.kasprintf (fun s -> violations := (clause ^ ": " ^ s) :: !violations) fmt
  in
  (match Core.Runtime.check_serializable rt with
  | Core.Serializability.Serializable _ -> ()
  | Core.Serializability.Cyclic cycle ->
      fail "serializability" "cycle %a"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " -> ") Txn.Txn_id.pp)
        cycle);
  (* Escrow runs trade page-level serializability on the escrowed objects
     for the replayed ledger invariants; trivially Ok with the policy off. *)
  (match Core.Runtime.check_escrow rt with
  | Ok _ -> ()
  | Error errs ->
      fail "escrow replay" "%s" (String.concat "; " (List.filteri (fun i _ -> i < 5) errs)));
  let submitted = List.length run.workload.Workload.Generator.roots in
  if t.roots_committed + t.roots_aborted <> submitted then
    fail "root accounting" "%d committed + %d aborted <> %d submitted" t.roots_committed
      t.roots_aborted submitted;
  if not (ledger_balanced m) then fail "ledger balance" "per-object ledger out of balance";
  (* The wire ledger is recorded at send time (riders, crashed senders and
     every lever's message types included); the network hook feeds the
     per-object ledger. They must agree exactly. *)
  let wire_msgs = Dsm.Metrics.wire_messages_total m in
  let wire_bytes = Dsm.Metrics.wire_bytes_total m in
  if wire_msgs <> Dsm.Metrics.total_messages m || wire_bytes <> Dsm.Metrics.total_bytes m then
    fail "wire reconciliation" "%d wire messages / %d bytes <> %d network messages / %d bytes"
      wire_msgs wire_bytes (Dsm.Metrics.total_messages m) (Dsm.Metrics.total_bytes m);
  (match Core.Runtime.audit rt with
  | [] -> ()
  | vs -> fail "split-brain audit" "%s" (String.concat "; " vs));
  (* Every page's holder in the GDO page map holds the version the map
     records: a committed version was not lost on its way to the map. *)
  let dir = Core.Runtime.directory rt in
  List.iter
    (fun oid ->
      let nodes, versions = Gdo.Directory.page_map dir oid in
      Array.iteri
        (fun page node ->
          let held = Dsm.Page_store.version (Core.Runtime.store rt ~node) oid ~page in
          if held <> versions.(page) then
            fail "map holder" "%a page %d: map says node %d at v%d, node holds v%d"
              Objmodel.Oid.pp oid page node versions.(page) held)
        nodes)
    (Objmodel.Catalog.oids (Core.Runtime.catalog rt));
  (* A lever that is off must leave no trace in its counters. *)
  let hygiene clause ~on counters =
    if (not on) && List.exists (fun c -> c <> 0) counters then
      fail clause "counters nonzero with the lever off"
  in
  hygiene "lease hygiene"
    ~on:(Gdo.Lease.policy_enabled config.lease)
    [
      t.lease_grants; t.lease_hits; t.lease_recalls; t.lease_yields; t.lease_expiries;
      t.lease_aborts;
    ];
  hygiene "cache hygiene"
    ~on:(Dsm.Method_cache.policy_enabled config.method_cache)
    [ t.cache_hits; t.cache_misses; t.cache_fills; t.cache_invalidations ];
  hygiene "batching hygiene"
    ~on:(Dsm.Batching.enabled config.batching)
    [
      t.acks_piggybacked; t.acks_flushed; t.fetches_aggregated; t.releases_coalesced;
      t.heartbeats_suppressed; Dsm.Metrics.wire_riders_total m;
    ];
  hygiene "shipping hygiene"
    ~on:(Dsm.Shipping.policy_enabled config.shipping)
    [ t.ships; t.ship_declines; t.ships_forced; t.ship_bytes_saved ];
  hygiene "escrow hygiene"
    ~on:(Dsm.Escrow.policy_enabled config.escrow)
    [
      t.escrow_reserves; t.escrow_local_commits; t.escrow_reconciles; t.escrow_recalls;
      t.escrow_yields; t.escrow_refusals; t.escrow_quota_units;
    ];
  let faults = Option.value config.faults ~default:Sim.Fault.none in
  hygiene "fault hygiene" ~on:(Sim.Fault.is_active faults)
    [ t.drops; t.duplicates; t.retransmits; t.timeouts; t.give_ups ];
  (* Without a crash window nobody really died: no crash aborts, and every
     death declaration was a false suspicion. *)
  if not (List.exists (fun w -> w.Sim.Fault.w_kind = Sim.Fault.Crash) faults.windows) then
    if t.crash_aborts <> 0 || t.nodes_declared_dead <> t.false_suspicions then
      fail "crash accounting" "%d crash aborts, %d declared dead, %d false suspicions"
        t.crash_aborts t.nodes_declared_dead t.false_suspicions;
  List.rev !violations

let execute ?(config = Core.Config.default) ?on_stall ~protocol
    (workload : Workload.Generator.t) =
  let cfg =
    {
      config with
      Core.Config.protocol;
      node_count = workload.Workload.Generator.spec.Workload.Spec.node_count;
    }
  in
  let runtime = Core.Runtime.create ~config:cfg ~catalog:workload.Workload.Generator.catalog in
  List.iter
    (fun (r : Workload.Generator.root_spec) ->
      Core.Runtime.submit runtime ~at:r.at ~node:r.node ~oid:r.oid ~meth:r.meth ~seed:r.seed)
    workload.Workload.Generator.roots;
  (try Core.Runtime.run runtime
   with Sim.Engine.Stalled _ as e ->
     Option.iter (fun hook -> hook runtime) on_stall;
     raise e);
  let run = { protocol; workload; runtime } in
  (match oracle run with
  | [] -> ()
  | violations ->
      failwith
        (Format.asprintf "oracle violated under %a: %s" Dsm.Protocol.pp protocol
           (String.concat "; " violations)));
  run

let execute_all ?config ~protocols workload =
  List.map (fun protocol -> execute ?config ~protocol workload) protocols

let metrics run = Core.Runtime.metrics run.runtime
