(* Function shipping: the per-call cost model ({!Dsm.Shipping}), the
   shipping-off byte-identity guarantee, the sweep's headline gate, and a
   crash landing on a node that is executing a shipped invocation. *)

let params = Dsm.Shipping.default_params
let link = Sim.Network.link_100mbps
let page_bytes = 4096

(* ---------- cost model: unit checks ---------- *)

let decision =
  Alcotest.testable
    (fun fmt -> function
      | Dsm.Shipping.Stay -> Format.pp_print_string fmt "Stay"
      | Dsm.Shipping.Ship { site; saved_bytes } ->
          Format.fprintf fmt "Ship{site=%d; saved=%d}" site saved_bytes)
    ( = )

let decide ?(link = link) ?(fresh = fun _ -> false) ?(page_bytes = page_bytes) ~invoker owners =
  Dsm.Shipping.decide params ~link ~invoker ~owners ~fresh ~page_bytes

let test_stay_when_local_or_fresh () =
  (* Everything already at the invoker: nothing to move either way. *)
  Alcotest.check decision "all local" Dsm.Shipping.Stay
    (decide ~invoker:0 [ (0, 0); (1, 0); (2, 0) ]);
  (* Remote but locally fresh pages cost nothing to "fetch" — a lease or a
     prior fetch already materialised them. *)
  Alcotest.check decision "all fresh" Dsm.Shipping.Stay
    (decide ~invoker:0 ~fresh:(fun _ -> true) [ (0, 3); (1, 3); (2, 3) ]);
  (* A method with no page prediction gives the model nothing to weigh. *)
  Alcotest.check decision "zero prediction" Dsm.Shipping.Stay (decide ~invoker:0 [])

let test_floor_blocks_single_stale_page () =
  (* One stale page is under the default min_remote_pages = 2 floor, no
     matter how expensive it is. *)
  Alcotest.check decision "below floor" Dsm.Shipping.Stay
    (decide ~invoker:0 ~page_bytes:1_000_000 [ (0, 5); (1, 0); (2, 0) ])

let test_ship_to_plurality_owner () =
  (* Three stale pages, two homed at node 2: the plurality home wins and
     only page 2 (at node 3) remains for it to pull.
       C_fetch = 2*20*2 + 0.08*3*4096           = 1063.04
       C_ship  = 20*(2+2*1) + 0.08*(256+64+4096) =  433.28  *)
  Alcotest.check decision "plurality"
    (Dsm.Shipping.Ship { site = 2; saved_bytes = (3 * page_bytes) - (256 + 64 + page_bytes) })
    (decide ~invoker:0 [ (0, 2); (1, 2); (2, 3) ])

let test_tie_breaks_to_lowest_node () =
  (* Nodes 1 and 3 each own one stale page: the tie must break to node 1
     so the verdict is deterministic across runs. *)
  Alcotest.check decision "tie -> lowest id"
    (Dsm.Shipping.Ship { site = 1; saved_bytes = (2 * page_bytes) - (256 + 64 + page_bytes) })
    (decide ~invoker:0 [ (0, 3); (1, 1) ])

let test_small_pages_stay () =
  (* With 64-byte pages the invocation envelope (256 + 64 bytes) outweighs
     the two stale pages: data shipping is the right call. *)
  Alcotest.check decision "tiny pages" Dsm.Shipping.Stay
    (decide ~invoker:0 ~page_bytes:64 [ (0, 2); (1, 2) ])

(* ---------- cost model: properties ---------- *)

(* Arbitrary predicted page map: pages 0..n-1 homed on nodes 0..7, with an
   arbitrary locally-fresh subset. *)
let owners_gen =
  QCheck2.Gen.(
    let* nodes = list_size (int_range 1 8) (int_range 0 7) in
    let* fresh = list_size (return (List.length nodes)) bool in
    let* invoker = int_range 0 7 in
    return (invoker, List.mapi (fun page node -> (page, node)) nodes, fresh))

let fresh_of flags page = List.nth flags page

let prop_single_page_never_ships =
  QCheck2.Test.make ~name:"a single-page method never ships" ~count:200
    QCheck2.Gen.(pair (int_range 0 7) (int_range 0 7))
    (fun (invoker, node) -> decide ~invoker [ (0, node) ] = Dsm.Shipping.Stay)

(* The ship region is downward-closed in the software cost: stale pages
   come from at least as many source nodes as the home's residual plus the
   home itself (residual nodes = stale nodes minus the home, plus any
   invoker-local or fresh homes), so raising sigma never flips Stay to
   Ship. *)
let prop_ship_region_downward_closed_in_sigma =
  QCheck2.Test.make ~name:"ship region downward-closed in software cost" ~count:300
    QCheck2.Gen.(triple owners_gen (float_range 0.0 100.0) (float_range 0.0 100.0))
    (fun ((invoker, owners, fresh), s1, s2) ->
      let lo, hi = (Float.min s1 s2, Float.max s1 s2) in
      let verdict sigma =
        decide
          ~link:{ link with Sim.Network.software_cost_us = sigma }
          ~invoker ~fresh:(fresh_of fresh) owners
      in
      match verdict hi with
      | Dsm.Shipping.Stay -> true
      | Dsm.Shipping.Ship _ -> (
          (* Ships under the expensive link => ships under the cheap one,
             to the same (sigma-independent) plurality site. *)
          match (verdict lo, verdict hi) with
          | Dsm.Shipping.Ship { site = a; _ }, Dsm.Shipping.Ship { site = b; _ } -> a = b
          | _ -> false))

let prop_ship_site_is_lowest_plurality_owner =
  QCheck2.Test.make ~name:"ship site is the lowest plurality owner of stale pages" ~count:300
    owners_gen
    (fun (invoker, owners, fresh) ->
      match decide ~invoker ~fresh:(fresh_of fresh) owners with
      | Dsm.Shipping.Stay -> true
      | Dsm.Shipping.Ship { site; _ } ->
          let stale =
            List.filter (fun (page, node) -> node <> invoker && not (fresh_of fresh page)) owners
          in
          let count n = List.length (List.filter (fun (_, node) -> node = n) stale) in
          count site > 0
          && List.for_all
               (fun (_, n) -> count n < count site || (count n = count site && n >= site))
               stale)

(* ---------- shipping off: byte-identity against the goldens ---------- *)

(* The same goldens test_method_cache.ml pins (captured before the cache
   subsystem existed): with shipping = Off the runtime must take the exact
   pre-shipping code path, byte for byte, on all four protocols. *)
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

let test_shipping_off_byte_identity () =
  let wl = Workload.Generator.generate golden_spec ~page_size:4096 in
  let config = { Core.Config.default with Core.Config.shipping = Dsm.Shipping.off } in
  List.iter
    (fun (protocol, (messages, bytes, completion)) ->
      let name = Format.asprintf "%a" Dsm.Protocol.pp protocol in
      let m = Experiments.Runner.metrics (Experiments.Runner.execute ~config ~protocol wl) in
      let t = Dsm.Metrics.totals m in
      Alcotest.(check int) (name ^ " messages") messages (Dsm.Metrics.total_messages m);
      Alcotest.(check int) (name ^ " bytes") bytes (Dsm.Metrics.total_bytes m);
      Alcotest.(check (float 1e-6)) (name ^ " completion") completion
        (Dsm.Metrics.completion_time_us m);
      Alcotest.(check int) (name ^ " no ships") 0 t.Dsm.Metrics.ships;
      Alcotest.(check int) (name ^ " no declines") 0 t.Dsm.Metrics.ship_declines;
      Alcotest.(check int) (name ^ " no forced dispatches") 0 t.Dsm.Metrics.ships_forced;
      Alcotest.(check int) (name ^ " no predicted savings") 0 t.Dsm.Metrics.ship_bytes_saved)
    goldens

(* ---------- the headline gate ---------- *)

(* The acceptance numbers: on the skewed workload at the cheapest
   messaging (the least favourable sigma), LOTEC with shipping moves at
   least 30% fewer bytes than its own data-ship baseline with completion
   no worse than +2%. The shared oracle asserts serializability, root
   accounting, zero-counter hygiene and exact wire-ledger reconciliation
   for both rows. *)
let test_lotec_headline_gate () =
  let rows =
    Experiments.Suite.run
      {
        Experiments.Function_shipping.suite with
        Experiments.Suite.protocols = [ Dsm.Protocol.Lotec ];
        cases = [ Experiments.Function_shipping.case ~skew:1.5 ~software_us:20.0 ];
      }
  in
  let row arm = List.find (fun (r : Experiments.Suite.row) -> r.Experiments.Suite.arm = arm) rows in
  let baseline = Experiments.Suite.get (row "data-ship") in
  let on = Experiments.Suite.get (row "shipping") in
  Alcotest.(check bool) "baseline never ships" true (baseline "ships" = 0.0);
  Alcotest.(check bool) "shipping run actually ships" true (on "ships" > 0.0);
  Alcotest.(check bool) "model predicts savings" true (on "ship_bytes_saved" > 0.0);
  let reduction = 100.0 *. (1.0 -. (on "total_bytes" /. baseline "total_bytes")) in
  if not (reduction >= 30.0) then
    Alcotest.failf "bytes reduction %.1f%% misses the 30%% floor (%.0f vs %.0f bytes)" reduction
      (on "total_bytes") (baseline "total_bytes");
  let ratio = on "completion_time_us" /. baseline "completion_time_us" in
  if not (ratio <= 1.02) then
    Alcotest.failf "completion ratio %.3f exceeds the 1.02 ceiling (%.0f vs %.0f us)" ratio
      (on "completion_time_us") (baseline "completion_time_us")

(* ---------- crash with a shipped invocation in flight ---------- *)

(* A fail-stop crash window on a hot home node while shipping is on: some
   invocations are executing at the crashed node as sub-fibers when it
   dies. The families they belong to must be doomed (not wedged), roots
   must stay fully accounted, and the wire ledger — Ship_invoke/Ship_reply
   rows included, crashed senders suppressed — must still reconcile
   exactly. Timers are the crash suite's, so detection and reclamation
   land inside the window. *)
let test_crash_with_shipped_invocations () =
  let spec =
    {
      (Experiments.Function_shipping.default_spec ~skew:1.5) with
      Workload.Spec.root_count = 60;
    }
  in
  let config =
    Experiments.Chaos.tight_timers
      {
        Core.Config.default with
        Core.Config.shipping = Dsm.Shipping.On Dsm.Shipping.default_params;
        faults =
          Some (Experiments.Chaos.crash_faults ~fault_seed:1 [ (2, 10_000.0, 30_000.0) ]);
        gdo_replicas = 1;
      }
  in
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let run = Experiments.Runner.execute ~config ~protocol:Dsm.Protocol.Lotec wl in
  let m = Experiments.Runner.metrics run in
  let t = Dsm.Metrics.totals m in
  Alcotest.(check int) "root accounting" spec.Workload.Spec.root_count
    (t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted);
  Alcotest.(check bool) "invocations were shipped" true (t.Dsm.Metrics.ships > 0);
  Alcotest.(check bool) "the crash doomed families" true (t.Dsm.Metrics.crash_aborts > 0);
  Alcotest.(check (list string)) "oracle clean (ledger balanced)" []
    (Experiments.Runner.oracle run);
  Alcotest.(check int) "wire ledger reconciles (messages)" (Dsm.Metrics.total_messages m)
    (Dsm.Metrics.wire_messages_total m);
  Alcotest.(check int) "wire ledger reconciles (bytes)" (Dsm.Metrics.total_bytes m)
    (Dsm.Metrics.wire_bytes_total m)

let tests =
  [
    ( "function-shipping",
      [
        Alcotest.test_case "stay when local or fresh" `Quick test_stay_when_local_or_fresh;
        Alcotest.test_case "floor blocks a single stale page" `Quick
          test_floor_blocks_single_stale_page;
        Alcotest.test_case "ship to the plurality owner" `Quick test_ship_to_plurality_owner;
        Alcotest.test_case "ties break to the lowest node" `Quick test_tie_breaks_to_lowest_node;
        Alcotest.test_case "small pages stay" `Quick test_small_pages_stay;
        QCheck_alcotest.to_alcotest prop_single_page_never_ships;
        QCheck_alcotest.to_alcotest prop_ship_region_downward_closed_in_sigma;
        QCheck_alcotest.to_alcotest prop_ship_site_is_lowest_plurality_owner;
        Alcotest.test_case "shipping off is byte-identical" `Quick
          test_shipping_off_byte_identity;
        Alcotest.test_case "lotec headline gate" `Quick test_lotec_headline_gate;
        Alcotest.test_case "crash with shipped invocations in flight" `Quick
          test_crash_with_shipped_invocations;
      ] );
  ]
