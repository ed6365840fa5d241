(* Tests for the active-messages replay, the parameter sweeps and the
   throughput suites, each run as suite rows over shrunk inputs. *)

open Experiments

let small_spec =
  { Workload.Scenarios.medium_high with Workload.Spec.root_count = 30; seed = 13 }

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let renders suite rows = Format.asprintf "%a" Suite.pp_report (suite, rows)
let find rows protocol = List.find (fun (r : Suite.row) -> r.Suite.protocol = protocol) rows

(* ---------- active messages: the paper suite's am columns ---------- *)

let am_suite = { Paper.paper with Suite.cases = [ Suite.case [] ~workload:(fun _ -> small_spec) ] }
let am_rows = lazy (Suite.run am_suite)
let control_costs = [ "20"; "5"; "1"; "0.5" ]
let am_time r c = Suite.get r ("total_time_us_am_ctrl" ^ c)

let test_am_margin_grows () =
  let rows = Lazy.force am_rows in
  let lotec = find rows Dsm.Protocol.Lotec and otec = find rows Dsm.Protocol.Otec in
  (* Cheaper control messages help LOTEC (more small messages): the margin
     over OTEC must improve (become more negative) monotonically. *)
  let margins =
    List.map (fun c -> 100.0 *. (am_time lotec c -. am_time otec c) /. am_time otec c) control_costs
  in
  Alcotest.(check int) "four cells" 4 (List.length margins);
  let rec non_increasing = function
    | a :: b :: rest -> a >= b && non_increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "margin improves with cheaper control" true (non_increasing margins)

let test_am_times_positive_and_ordered () =
  List.iter
    (fun r ->
      List.iter (fun c -> Alcotest.(check bool) "positive" true (am_time r c > 0.0)) control_costs;
      (* Dropping only the control cost can never slow anything down. *)
      Alcotest.(check bool) "cheaper control is faster" true (am_time r "0.5" <= am_time r "20"))
    (Lazy.force am_rows)

let test_am_pp () =
  let s = renders am_suite (Lazy.force am_rows) in
  Alcotest.(check bool) "renders" true (contains s "total_time_us_am_ctrl0.5")

(* ---------- sweeps: the sweep suite over chosen settings ---------- *)

let sweep cases = { Paper.sweep with Suite.cases }

let objects n =
  Suite.case
    [ ("axis", "objects"); ("setting", string_of_int n) ]
    ~workload:(fun s -> { s with Workload.Spec.object_count = n })

let pages lo hi =
  Suite.case
    [ ("axis", "pages"); ("setting", Printf.sprintf "%d-%d" lo hi) ]
    ~workload:(fun s -> { s with Workload.Spec.min_pages = lo; max_pages = hi })

let roots n =
  Suite.case
    [ ("axis", "roots"); ("setting", string_of_int n) ]
    ~workload:(fun s -> { s with Workload.Spec.root_count = n })

let bytes protocol setting rows =
  Suite.get
    (List.find (Suite.matches ~protocol ~case:[ ("setting", setting) ]) rows)
    "total_bytes"

let test_sweep_object_count () =
  let rows = Suite.run (sweep [ objects 10; objects 30 ]) in
  Alcotest.(check int) "two settings x three protocols" 6 (List.length rows);
  List.iter
    (fun setting ->
      let b p = bytes p setting rows in
      Alcotest.(check bool) "ordering holds" true
        Dsm.Protocol.(b Lotec <= b Otec && b Otec <= b Cotec))
    [ "10"; "30" ]

let test_sweep_size_gap_grows () =
  (* LOTEC's edge over OTEC must be larger on big objects than on tiny ones
     (tiny objects: the predicted set covers everything). *)
  let rows = Suite.run (sweep [ pages 1 2; pages 10 20 ]) in
  let gap setting =
    let l = bytes Dsm.Protocol.Lotec setting rows and o = bytes Dsm.Protocol.Otec setting rows in
    100.0 *. (l -. o) /. o
  in
  Alcotest.(check bool)
    (Printf.sprintf "large gap (%.1f%%) <= tiny gap (%.1f%%)" (gap "10-20") (gap "1-2"))
    true
    (gap "10-20" <= gap "1-2")

let test_sweep_txn_count_monotone_bytes () =
  let rows = Suite.run (sweep [ roots 20; roots 60 ]) in
  Alcotest.(check bool) "more txns, more traffic" true
    (bytes Dsm.Protocol.Cotec "60" rows > bytes Dsm.Protocol.Cotec "20" rows)

let test_sweep_pp () =
  let suite = sweep [ objects 10 ] in
  let s = renders suite (Suite.run suite) in
  Alcotest.(check bool) "renders" true (contains s "setting" && contains s "total_bytes")

(* ---------- throughput ---------- *)

let tps r = Suite.get r "roots_committed" /. Suite.get r "completion_time_us" *. 1e6

let test_throughput_protocols () =
  let suite =
    {
      Paper.protocols with
      Suite.cases = [ Suite.case [] ~workload:(fun _ -> small_spec) ];
      arms = [ List.hd Paper.protocols.Suite.arms ];
    }
  in
  let rows = Suite.run suite in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check (float 0.0)) "all committed" 30.0 (Suite.get r "roots_committed");
      Alcotest.(check bool) "throughput positive" true (tps r > 0.0);
      Alcotest.(check bool) "p95 >= p50" true
        (Suite.get r "p95_root_latency_us" >= Suite.get r "p50_root_latency_us"))
    rows

let test_throughput_scaling_regimes () =
  (* Dense arrivals so the CPUs are genuinely the bottleneck in the
     cpu-bound regime. *)
  let suite =
    {
      Paper.scaling with
      Suite.spec =
        {
          small_spec with
          Workload.Spec.object_count = 40;
          root_count = 60;
          arrival_mean_us = 10.0;
        };
      cases =
        List.filter
          (fun c -> List.mem c.Suite.labels [ [ ("nodes", "2") ]; [ ("nodes", "8") ] ])
          Paper.scaling.Suite.cases;
    }
  in
  let rows = Suite.run suite in
  Alcotest.(check int) "two regimes x two sizes" 4 (List.length rows);
  let at arm nodes = tps (List.find (Suite.matches ~arm ~case:[ ("nodes", nodes) ]) rows) in
  (* Compute-bound work gains from more processors; communication-bound work
     loses locality. *)
  Alcotest.(check bool)
    (Printf.sprintf "cpu-bound scales (%.0f -> %.0f txn/s)" (at "cpu-bound" "2")
       (at "cpu-bound" "8"))
    true
    (at "cpu-bound" "8" > at "cpu-bound" "2");
  Alcotest.(check bool) "comm-bound does not scale" true
    (at "comm-bound" "8" <= at "comm-bound" "2");
  Alcotest.(check bool) "renders" true (contains (renders suite rows) "cpu-bound")

let tests =
  [
    ( "sweeps",
      [
        Alcotest.test_case "am margin grows" `Slow test_am_margin_grows;
        Alcotest.test_case "am times ordered" `Slow test_am_times_positive_and_ordered;
        Alcotest.test_case "am pp" `Slow test_am_pp;
        Alcotest.test_case "object count sweep" `Slow test_sweep_object_count;
        Alcotest.test_case "size gap grows" `Slow test_sweep_size_gap_grows;
        Alcotest.test_case "txn count sweep" `Slow test_sweep_txn_count_monotone_bytes;
        Alcotest.test_case "throughput protocols" `Slow test_throughput_protocols;
        Alcotest.test_case "throughput scaling regimes" `Slow test_throughput_scaling_regimes;
        Alcotest.test_case "sweep pp" `Slow test_sweep_pp;
      ] );
  ]
