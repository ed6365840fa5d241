(* Soak test: one large adversarial configuration exercising every feature
   at once — paper-scale contention, failure injection, optimistic
   pre-acquisition, per-class protocol overrides, access skew, CPU-limited
   nodes and tracing — and checking the global invariants at the end. A
   regression anywhere in the stack tends to surface here first. *)

open Objmodel

let test_everything_at_once () =
  let spec =
    {
      Workload.Scenarios.large_high with
      Workload.Spec.root_count = 150;
      access_skew = 0.8;
      seed = 271828;
    }
  in
  let config =
    {
      Core.Config.default with
      Core.Config.abort_probability = 0.05;
      prefetch = true;
      cpu_limited = true;
      trace_capacity = 50_000;
      class_protocols = [ ("C0", Dsm.Protocol.Otec); ("C1", Dsm.Protocol.Rc_nested) ];
      node_count = spec.Workload.Spec.node_count;
    }
  in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let rt = Core.Runtime.create ~config ~catalog:wl.Workload.Generator.catalog in
  List.iter
    (fun (r : Workload.Generator.root_spec) ->
      Core.Runtime.submit rt ~at:r.at ~node:r.node ~oid:r.oid ~meth:r.meth ~seed:r.seed)
    wl.Workload.Generator.roots;
  Core.Runtime.run rt;
  let t = Dsm.Metrics.totals (Core.Runtime.metrics rt) in
  (* Every root resolved, one way or another. *)
  Alcotest.(check int) "all roots resolved" 150
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  Alcotest.(check bool) "most committed" true (t.Dsm.Metrics.roots_committed >= 140);
  (* The adversarial knobs actually fired. *)
  Alcotest.(check bool) "failure injection fired" true (t.Dsm.Metrics.sub_aborts > 0);
  Alcotest.(check bool) "demand fetches fired" true (t.Dsm.Metrics.demand_fetches > 0);
  Alcotest.(check bool) "eager pushes fired (per-class RC)" true
    (t.Dsm.Metrics.eager_pushes > 0);
  (* Serializability and state hygiene. *)
  (match Core.Runtime.check_serializable rt with
  | Core.Serializability.Serializable _ -> ()
  | Core.Serializability.Cyclic _ -> Alcotest.fail "not serializable");
  let dir = Core.Runtime.directory rt in
  List.iter
    (fun o ->
      Alcotest.(check bool) "lock free" true
        (Gdo.Directory.lock_state dir o = Gdo.Directory.Free);
      Alcotest.(check int) "no waiters" 0 (Gdo.Directory.waiting_count dir o);
      let nodes, versions = Gdo.Directory.page_map dir o in
      Array.iteri
        (fun p node ->
          Alcotest.(check bool) "map consistent" true
            (Dsm.Page_store.version (Core.Runtime.store rt ~node) o ~page:p >= versions.(p)))
        nodes)
    (Catalog.oids wl.Workload.Generator.catalog);
  (* Trace captured the action. *)
  match Core.Runtime.trace rt with
  | None -> Alcotest.fail "trace expected"
  | Some tr ->
      Alcotest.(check bool) "rich trace" true (Sim.Trace.total tr > 1000)

let tests = [ ("soak", [ Alcotest.test_case "everything at once" `Slow test_everything_at_once ]) ]
