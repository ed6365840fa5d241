(* Determinism gate, meant to run under OCAMLRUNPARAM=R (make determinism).

   Randomized hashing gives every process a different Hashtbl seed, so any
   place where hash-table iteration order leaks into simulator output —
   metrics, page-store dumps, trace exports — shows up here as a drift from
   the pinned goldens or as two in-process runs disagreeing. The pinned
   numbers below are the same pre-subsystem goldens the test suite uses
   (test_function_shipping.ml, test_escrow.ml), captured under the default
   hash seed: a pass under a random seed means no order leak on the whole
   hot path. Exits nonzero on the first mismatch. *)

let failures = ref 0

let check name ok =
  if ok then Format.printf "  ok   %s@." name
  else begin
    incr failures;
    Format.printf "  FAIL %s@." name
  end

let golden_spec =
  {
    (Workload.Scenarios.spec Workload.Scenarios.High Workload.Scenarios.Medium) with
    Workload.Spec.root_count = 40;
    seed = 42;
  }

let goldens =
  [
    (Dsm.Protocol.Cotec, (484, 1_169_012, 25968.873648));
    (Dsm.Protocol.Otec, (419, 956_560, 20047.449955));
    (Dsm.Protocol.Lotec, (370, 731_252, 19580.172744));
    (Dsm.Protocol.Rc_nested, (425, 1_606_888, 20610.322997));
  ]

let golden_metrics () =
  Format.printf "golden metrics, all four protocols:@.";
  let wl = Workload.Generator.generate golden_spec ~page_size:4096 in
  List.iter
    (fun (protocol, (messages, bytes, completion)) ->
      let name = Format.asprintf "%a" Dsm.Protocol.pp protocol in
      let m = Experiments.Runner.metrics (Experiments.Runner.execute ~protocol wl) in
      check (name ^ " messages")
        (Dsm.Metrics.total_messages m = messages);
      check (name ^ " bytes") (Dsm.Metrics.total_bytes m = bytes);
      check (name ^ " completion")
        (Float.abs (Dsm.Metrics.completion_time_us m -. completion) < 1e-6))
    goldens

let page_store_dump () =
  Format.printf "page-store dump order:@.";
  let fill order =
    let s = Dsm.Page_store.create ~node:0 in
    List.iter
      (fun (o, p, v) ->
        Dsm.Page_store.receive s (Objmodel.Oid.of_int o) ~page:p ~version:v)
      order;
    s
  in
  let contents = [ (7, 1, 3); (2, 0, 1); (7, 0, 2); (2, 2, 5); (11, 4, 1) ] in
  check "dump ignores insertion order"
    (Dsm.Page_store.dump (fill contents) = Dsm.Page_store.dump (fill (List.rev contents)))

let chrome_export () =
  Format.printf "chrome trace export:@.";
  let export () =
    let spec = { golden_spec with Workload.Spec.root_count = 12 } in
    let config = { Core.Config.default with Core.Config.trace_capacity = 100_000 } in
    let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
    let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
    match Core.Runtime.trace run.Experiments.Runner.runtime with
    | Some tr ->
        Dsm.Trace_export.to_chrome
          ~node_count:(Core.Runtime.config run.Experiments.Runner.runtime).Core.Config.node_count
          (Sim.Trace.events tr)
    | None -> ""
  in
  let a = export () in
  check "export is non-trivial" (String.length a > 2);
  check "byte-identical across runs" (a = export ())

let escrow_sweep () =
  (* The escrow path adds its own hash tables (ledgers, quota rows,
     recall bookkeeping); one LOTEC hot-skew case must replay to the same
     escrowed finals twice. *)
  Format.printf "escrow finals:@.";
  let run () =
    let config =
      {
        Core.Config.default with
        Core.Config.escrow = Dsm.Escrow.On Experiments.Escrow.default_params;
      }
    in
    let wl =
      Workload.Generator.generate
        (Experiments.Escrow.default_spec ~skew:1.2)
        ~page_size:config.Core.Config.page_size
    in
    let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
    Core.Runtime.check_escrow run.Experiments.Runner.runtime
  in
  let a = run () in
  check "escrow replay non-trivial" (a <> Ok []);
  check "escrow finals identical across runs" (a = run ())

let history_digest () =
  (* The serializability oracle's input and output: committed histories,
     witness orders and conflict edges over the History_golden run grid. *)
  Format.printf "committed histories:@.";
  check "history digest matches golden" (History_golden.digest () = History_golden.expected)

let catalog_digest () =
  (* The generator's output: every catalog and root stream of the
     Catalog_golden grid. *)
  Format.printf "generated catalogs:@.";
  check "catalog digest matches golden" (Catalog_golden.digest () = Catalog_golden.expected)

let () =
  Format.printf "determinism gate (hash seed randomized: set OCAMLRUNPARAM=R)@.";
  catalog_digest ();
  golden_metrics ();
  page_store_dump ();
  chrome_export ();
  escrow_sweep ();
  history_digest ();
  if !failures > 0 then begin
    Format.printf "%d determinism check(s) FAILED@." !failures;
    exit 1
  end;
  Format.printf "all determinism checks passed@."
