(* Tests for the experiment harness: runner, the paper suites' Figure 2-8
   columns and headline ratios, the ablations, report rendering. Each runs
   a paper suite over a shrunk scenario to stay fast; the full-scale
   claims are the suites' blocking gates. *)

open Experiments

let small name contention size =
  (name, Workload.Scenarios.spec ~seed:11 ~root_count:30 contention size)

let small_spec = snd (small "fig" Workload.Scenarios.High Workload.Scenarios.Medium)

(* [suite] with its cases replaced by one case over [spec]. The case keeps
   the labels of the suite's first case, so gates that select on a label
   (the paper suite's fig2 gates) still see its rows. *)
let on_spec (suite : Suite.t) spec =
  let labels = match suite.Suite.cases with c :: _ -> c.Suite.labels | [] -> [] in
  { suite with Suite.cases = [ Suite.case labels ~workload:(fun _ -> spec) ] }

let values (row : Suite.row) =
  match row.Suite.values with Ok v -> v | Error msg -> Alcotest.fail msg

let per_object row column =
  match List.assoc column (values row) with
  | Suite.Per_object counts -> counts
  | _ -> Alcotest.fail (column ^ " is not per-object")

let find rows protocol = List.find (fun (r : Suite.row) -> r.Suite.protocol = protocol) rows
let bytes r = Suite.get r "total_bytes"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_report_render () =
  let s = Report.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  Alcotest.(check bool) "right aligned" true (List.nth lines 2 = "  1   2")

let test_runner_executes () =
  let wl = Workload.Generator.generate small_spec ~page_size:4096 in
  let run = Runner.execute ~protocol:Dsm.Protocol.Lotec wl in
  let m = Runner.metrics run in
  Alcotest.(check int) "all roots committed" 30
    (Dsm.Metrics.totals m).Dsm.Metrics.roots_committed;
  Alcotest.(check bool) "traffic recorded" true (Dsm.Metrics.total_bytes m > 0)

(* The paper suite over the small high-contention scenario, run once. *)
let fig_rows = lazy (Suite.run (on_spec Paper.paper small_spec))

let test_fig_bytes_structure () =
  let rows = Lazy.force fig_rows in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  List.iter
    (fun r ->
      let objects = per_object r "bytes_per_object" in
      Alcotest.(check int) "per-object entries" 20 (List.length objects);
      let sum = List.fold_left (fun acc (_, b) -> acc + b) 0 objects in
      Alcotest.(check bool) "object bytes bounded by total" true (float_of_int sum <= bytes r))
    rows;
  (* The headline ordering. *)
  let c = find rows Dsm.Protocol.Cotec
  and o = find rows Dsm.Protocol.Otec
  and l = find rows Dsm.Protocol.Lotec in
  Alcotest.(check bool) "otec <= cotec" true (bytes o <= bytes c);
  Alcotest.(check bool) "lotec <= otec" true (bytes l <= bytes o)

let test_fig_bytes_top_objects () =
  (* Every catalog object once, ascending by oid, in both per-object
     columns. *)
  List.iter
    (fun r ->
      List.iter
        (fun column ->
          let oids = List.map fst (per_object r column) in
          Alcotest.(check int) "every object" 20 (List.length oids);
          Alcotest.(check bool) "ascending" true (oids = List.sort_uniq Objmodel.Oid.compare oids))
        [ "bytes_per_object"; "messages_per_object" ])
    (Lazy.force fig_rows)

let test_fig_bytes_pp () =
  let suite = on_spec Paper.paper small_spec in
  let s = Format.asprintf "%a" Suite.pp_report (suite, Lazy.force fig_rows) in
  Alcotest.(check bool) "per-object tables" true
    (contains s "bytes_per_object" && contains s "messages_per_object");
  Alcotest.(check bool) "one column per protocol" true
    (contains s "COTEC" && contains s "OTEC" && contains s "LOTEC")

let test_fig_time_grid () =
  List.iter
    (fun r ->
      List.iter
        (fun bandwidth_bps ->
          let times =
            List.map
              (fun sw -> Suite.get r (fst (Suite.time_replay ~bandwidth_bps sw)))
              Paper.software_costs_us
          in
          Alcotest.(check int) "five software costs" 5 (List.length times);
          List.iter (fun t -> Alcotest.(check bool) "positive time" true (t > 0.0)) times;
          (* Times decrease as software cost drops (same bytes, fewer
             overheads). *)
          let rec decreasing = function
            | a :: b :: rest -> a >= b && decreasing (b :: rest)
            | _ -> true
          in
          Alcotest.(check bool) "monotone in software cost" true (decreasing times))
        [ 1e7; 1e8; 1e9 ])
    (Lazy.force fig_rows)

let test_fig_time_bandwidth_effect () =
  (* At slow links LOTEC (fewest bytes) must beat COTEC on total time. *)
  let rows = Lazy.force fig_rows in
  let time p = Suite.get (find rows p) "total_time_us_10Mbps_sw100" in
  Alcotest.(check bool) "lotec wins at 10 Mbps" true
    (time Dsm.Protocol.Lotec < time Dsm.Protocol.Cotec)

let pct a b = 100.0 *. (a -. b) /. b

let test_summary_ratios () =
  let rows = Lazy.force fig_rows in
  let c = bytes (find rows Dsm.Protocol.Cotec)
  and o = bytes (find rows Dsm.Protocol.Otec)
  and l = bytes (find rows Dsm.Protocol.Lotec) in
  Alcotest.(check bool) "otec reduction negative" true (pct o c <= 0.0);
  Alcotest.(check bool) "lotec reduction negative" true (pct l o <= 0.0);
  Alcotest.(check bool) "bytes ordered" true (l <= o && o <= c)

let test_summary_skips_incomplete () =
  (* Without the OTEC and COTEC rows a protocol-comparing gate cannot be
     measured: it is written as "measured": null and fails the suite. With
     every protocol present the same gates are measured. *)
  let measured json claim =
    let gate = "\"gate\": \"" ^ claim ^ "\", \"measured\": " in
    Alcotest.(check bool) ("gate written: " ^ claim) true (contains json gate);
    not (contains json (gate ^ "null"))
  in
  let claims =
    [
      "bytes: LOTEC vs OTEC (%), every scenario";
      "fig2 at 1 Gbps, 100 us stack: LOTEC time vs OTEC (%)";
    ]
  in
  let full = on_spec Paper.paper small_spec in
  let lotec_only = { full with Suite.protocols = [ Dsm.Protocol.Lotec ] } in
  let rows = Suite.run lotec_only in
  Alcotest.(check bool) "not passed" false (Suite.passed lotec_only rows);
  let incomplete = Suite.to_json lotec_only rows in
  let complete = Suite.to_json full (Lazy.force fig_rows) in
  List.iter
    (fun claim ->
      Alcotest.(check bool) ("unmeasured without peers: " ^ claim) false
        (measured incomplete claim);
      Alcotest.(check bool) ("measured with peers: " ^ claim) true (measured complete claim))
    claims

let test_ablation_rc () =
  let _, spec = small "rc" Workload.Scenarios.High Workload.Scenarios.Medium in
  let rows = Suite.run (on_spec Paper.protocols spec) in
  Alcotest.(check int) "four protocols x two arms" 8 (List.length rows);
  let at protocol arm = List.find (Suite.matches ~protocol ~arm) rows in
  let rc = at Dsm.Protocol.Rc_nested "plain" in
  Alcotest.(check bool) "rc sends more bytes" true
    (bytes rc > bytes (at Dsm.Protocol.Lotec "plain"));
  Alcotest.(check bool) "multicast fewer bytes than rc" true
    (bytes (at Dsm.Protocol.Rc_nested "multicast_push") < bytes rc)

let test_ablation_replication () =
  let _, spec = small "rep" Workload.Scenarios.High Workload.Scenarios.Medium in
  let rows = Suite.run (on_spec Paper.ablation spec) in
  let at arm = List.find (Suite.matches ~arm) rows in
  let r0 = at "baseline" and r1 = at "gdo_replicas=1" and r2 = at "gdo_replicas=2" in
  let messages r = Suite.get r "total_messages" in
  (* Each replica adds control messages, asynchronously (latency flat). *)
  Alcotest.(check bool) "messages grow" true
    (messages r0 < messages r1 && messages r1 < messages r2);
  Alcotest.(check bool) "bytes grow" true (bytes r0 < bytes r1);
  let latency r = Suite.get r "mean_root_latency_us" in
  Alcotest.(check bool) "latency unaffected" true
    (Float.abs (latency r0 -. latency r2) /. Float.max (latency r0) 1.0 < 0.02)

let test_ablation_prefetch () =
  let _, spec = small "pf" Workload.Scenarios.Moderate Workload.Scenarios.Medium in
  let arms = List.filter (fun (arm, _) -> arm = "baseline" || arm = "prefetch") in
  let suite = { (on_spec Paper.ablation spec) with Suite.arms = arms Paper.ablation.Suite.arms } in
  let rows = Suite.run suite in
  Alcotest.(check (list string)) "baseline and prefetch" [ "baseline"; "prefetch" ]
    (List.map (fun (r : Suite.row) -> r.Suite.arm) rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "latency recorded" true (Suite.get r "mean_root_latency_us" > 0.0))
    rows

let tests =
  [
    ( "experiments",
      [
        Alcotest.test_case "report render" `Quick test_report_render;
        Alcotest.test_case "runner executes" `Quick test_runner_executes;
        Alcotest.test_case "fig bytes structure" `Quick test_fig_bytes_structure;
        Alcotest.test_case "fig bytes top objects" `Quick test_fig_bytes_top_objects;
        Alcotest.test_case "fig bytes pp" `Quick test_fig_bytes_pp;
        Alcotest.test_case "fig time grid" `Quick test_fig_time_grid;
        Alcotest.test_case "fig time bandwidth effect" `Quick test_fig_time_bandwidth_effect;
        Alcotest.test_case "summary ratios" `Quick test_summary_ratios;
        Alcotest.test_case "summary skips incomplete" `Quick test_summary_skips_incomplete;
        Alcotest.test_case "ablation rc" `Slow test_ablation_rc;
        Alcotest.test_case "ablation replication" `Slow test_ablation_replication;
        Alcotest.test_case "ablation prefetch" `Slow test_ablation_prefetch;
      ] );
  ]
