(* Tests for the DSM layer: protocols, page stores, metrics. *)

open Objmodel

let oid = Oid.of_int

(* ---------- Protocol ---------- *)

let test_protocol_strings () =
  List.iter
    (fun p ->
      match Dsm.Protocol.of_string (Dsm.Protocol.to_string p) with
      | Ok p' -> Alcotest.(check bool) "roundtrip" true (Dsm.Protocol.equal p p')
      | Error e -> Alcotest.fail e)
    Dsm.Protocol.all;
  Alcotest.(check bool) "rc alias" true
    (Dsm.Protocol.of_string "rc" = Ok Dsm.Protocol.Rc_nested);
  Alcotest.(check bool) "unknown" true (Result.is_error (Dsm.Protocol.of_string "zzz"))

let test_protocol_flags () =
  Alcotest.(check bool) "rc pushes" true (Dsm.Protocol.is_eager_push Dsm.Protocol.Rc_nested);
  Alcotest.(check bool) "lotec lazy" false (Dsm.Protocol.is_eager_push Dsm.Protocol.Lotec);
  Alcotest.(check bool) "lotec demand" true (Dsm.Protocol.demand_fetch_allowed Dsm.Protocol.Lotec);
  Alcotest.(check bool) "otec no demand" false (Dsm.Protocol.demand_fetch_allowed Dsm.Protocol.Otec)

(* Transfer-set scenario: object with 6 pages.
   page:         0    1    2    3    4    5
   map node:     1    1    2    0    1    2     (acquirer = node 0)
   map version:  4    4    7    2    0    3
   local:        4    3    0    2    -    3
   stale:        -    x    x    -    x?   -     (4: local absent=-1 < 0)
   predicted:    {1, 3, 4} *)
let scenario () =
  let page_nodes = [| 1; 1; 2; 0; 1; 2 |] in
  let page_versions = [| 4; 4; 7; 2; 0; 3 |] in
  let locals = [| 4; 3; 0; 2; -1; 3 |] in
  let local_version p = locals.(p) in
  fun proto predicted ->
    Dsm.Protocol.transfer_set proto ~page_count:6 ~page_nodes ~page_versions ~local_version
      ~node:0 ~predicted

let test_transfer_cotec () =
  let ts = scenario () in
  (* Everything remote, regardless of freshness: pages 0,1,2,4,5 (3 is local). *)
  Alcotest.(check (list int)) "whole object" [ 0; 1; 2; 4; 5 ] (ts Dsm.Protocol.Cotec [])

let test_transfer_otec () =
  let ts = scenario () in
  (* Only remote AND stale: 1 (3<4), 2 (0<7), 4 (absent<0). *)
  Alcotest.(check (list int)) "stale only" [ 1; 2; 4 ] (ts Dsm.Protocol.Otec []);
  (* RC-nested behaves like OTEC at acquisition (cold pages). *)
  Alcotest.(check (list int)) "rc same" [ 1; 2; 4 ] (ts Dsm.Protocol.Rc_nested [])

let test_transfer_lotec () =
  let ts = scenario () in
  (* Stale AND predicted: {1,2,4} inter {1,3,4} = {1,4}. *)
  Alcotest.(check (list int)) "predicted stale" [ 1; 4 ] (ts Dsm.Protocol.Lotec [ 1; 3; 4 ]);
  Alcotest.(check (list int)) "empty prediction" [] (ts Dsm.Protocol.Lotec []);
  Alcotest.(check (list int)) "duplicate prediction ok" [ 1; 4 ]
    (ts Dsm.Protocol.Lotec [ 4; 1; 1; 3 ])

let test_transfer_lotec_empty_prediction () =
  (* LOTEC with an empty prediction fetches nothing at acquisition even
     when every remote page is stale — everything is left to demand
     fetches. The prediction, not staleness, drives the eager set. *)
  let page_nodes = [| 1; 2; 3; 1 |] in
  let page_versions = [| 5; 5; 5; 5 |] in
  let local_version _ = -1 in
  Alcotest.(check (list int)) "all stale, none predicted" []
    (Dsm.Protocol.transfer_set Dsm.Protocol.Lotec ~page_count:4 ~page_nodes ~page_versions
       ~local_version ~node:0 ~predicted:[]);
  (* Out-of-range prediction entries select nothing. *)
  Alcotest.(check (list int)) "prediction beyond object" []
    (Dsm.Protocol.transfer_set Dsm.Protocol.Lotec ~page_count:4 ~page_nodes ~page_versions
       ~local_version ~node:0 ~predicted:[ 7; 9 ])

let test_transfer_all_local () =
  (* Every page's newest copy already resides at the acquiring node: no
     protocol has anything to fetch (there is nowhere to fetch from),
     predictions notwithstanding. *)
  let page_nodes = [| 0; 0; 0; 0 |] in
  let page_versions = [| 3; 1; 4; 2 |] in
  let locals = [| 3; 1; 4; 2 |] in
  let local_version p = locals.(p) in
  List.iter
    (fun proto ->
      Alcotest.(check (list int))
        (Dsm.Protocol.to_string proto ^ ": all pages local")
        []
        (Dsm.Protocol.transfer_set proto ~page_count:4 ~page_nodes ~page_versions
           ~local_version ~node:0 ~predicted:[ 0; 1; 2; 3 ]))
    Dsm.Protocol.all

let test_transfer_subset_chain () =
  (* Structural property on the scenario: LOTEC <= OTEC <= COTEC. *)
  let ts = scenario () in
  let cotec = ts Dsm.Protocol.Cotec [] in
  let otec = ts Dsm.Protocol.Otec [] in
  let lotec = ts Dsm.Protocol.Lotec [ 1; 3; 4 ] in
  Alcotest.(check bool) "lotec subset otec" true (List.for_all (fun p -> List.mem p otec) lotec);
  Alcotest.(check bool) "otec subset cotec" true (List.for_all (fun p -> List.mem p cotec) otec)

let qcheck_transfer_subsets =
  let gen =
    QCheck.Gen.(
      let* pages = int_range 1 12 in
      let* nodes = array_size (return pages) (int_range 0 3) in
      let* versions = array_size (return pages) (int_range 0 9) in
      let* locals = array_size (return pages) (int_range (-1) 9) in
      let* predicted = list_size (int_range 0 pages) (int_range 0 (pages - 1)) in
      return (pages, nodes, versions, locals, predicted))
  in
  QCheck.Test.make ~name:"transfer sets are nested" ~count:300
    (QCheck.make ~print:(fun _ -> "<scenario>") gen)
    (fun (pages, nodes, versions, locals, predicted) ->
      let local_version p = locals.(p) in
      let ts proto predicted =
        Dsm.Protocol.transfer_set proto ~page_count:pages ~page_nodes:nodes
          ~page_versions:versions ~local_version ~node:0 ~predicted
      in
      let cotec = ts Dsm.Protocol.Cotec [] in
      let otec = ts Dsm.Protocol.Otec [] in
      let lotec = ts Dsm.Protocol.Lotec predicted in
      List.for_all (fun p -> List.mem p otec) lotec
      && List.for_all (fun p -> List.mem p cotec) otec
      && List.for_all (fun p -> nodes.(p) <> 0) cotec)

(* ---------- Page_store ---------- *)

let test_store_basics () =
  let s = Dsm.Page_store.create ~node:2 in
  Alcotest.(check int) "node" 2 (Dsm.Page_store.node s);
  Alcotest.(check int) "absent" Dsm.Page_store.absent (Dsm.Page_store.version s (oid 1) ~page:0);
  Dsm.Page_store.receive s (oid 1) ~page:0 ~version:3;
  Alcotest.(check int) "received" 3 (Dsm.Page_store.version s (oid 1) ~page:0)

let test_store_receive_monotonic () =
  let s = Dsm.Page_store.create ~node:0 in
  Dsm.Page_store.receive s (oid 1) ~page:0 ~version:5;
  Dsm.Page_store.receive s (oid 1) ~page:0 ~version:3;
  Alcotest.(check int) "older copy ignored" 5 (Dsm.Page_store.version s (oid 1) ~page:0);
  Dsm.Page_store.receive s (oid 1) ~page:0 ~version:8;
  Alcotest.(check int) "newer accepted" 8 (Dsm.Page_store.version s (oid 1) ~page:0)

let test_store_write_returns_prev () =
  let s = Dsm.Page_store.create ~node:0 in
  Alcotest.(check int) "first write prev absent" Dsm.Page_store.absent
    (Dsm.Page_store.write s (oid 1) ~page:0 ~new_version:1);
  Alcotest.(check int) "second write prev" 1 (Dsm.Page_store.write s (oid 1) ~page:0 ~new_version:2)

let test_store_restore () =
  let s = Dsm.Page_store.create ~node:0 in
  ignore (Dsm.Page_store.write s (oid 1) ~page:0 ~new_version:4);
  Dsm.Page_store.restore s (oid 1) ~page:0 ~version:2;
  Alcotest.(check int) "restored down" 2 (Dsm.Page_store.version s (oid 1) ~page:0);
  Dsm.Page_store.restore s (oid 1) ~page:0 ~version:Dsm.Page_store.absent;
  Alcotest.(check int) "restored to absent" Dsm.Page_store.absent
    (Dsm.Page_store.version s (oid 1) ~page:0);
  (* Its only page gone, the object is no longer cached here. *)
  Alcotest.(check (list int)) "object left" []
    (List.map Oid.to_int (Dsm.Page_store.cached_objects s));
  Alcotest.(check string) "dump empty" "page store (node 0):\n" (Dsm.Page_store.dump s)

let test_store_is_current () =
  let s = Dsm.Page_store.create ~node:0 in
  Dsm.Page_store.receive s (oid 1) ~page:0 ~version:5;
  Alcotest.(check bool) "current" true (Dsm.Page_store.is_current s (oid 1) ~page:0 ~newest:5);
  Alcotest.(check bool) "stale" false (Dsm.Page_store.is_current s (oid 1) ~page:0 ~newest:6)

let test_store_enumeration () =
  let s = Dsm.Page_store.create ~node:0 in
  Dsm.Page_store.receive s (oid 2) ~page:1 ~version:1;
  Dsm.Page_store.receive s (oid 2) ~page:0 ~version:2;
  Dsm.Page_store.receive s (oid 5) ~page:3 ~version:1;
  Alcotest.(check (list (pair int int))) "pages sorted" [ (0, 2); (1, 1) ]
    (Dsm.Page_store.cached_pages s (oid 2));
  Alcotest.(check (list int)) "objects sorted" [ 2; 5 ]
    (List.map Oid.to_int (Dsm.Page_store.cached_objects s))

let test_store_dump_deterministic () =
  (* The dump must be a function of the cached contents alone — never of
     hash-table iteration order, so insertion order (and the process hash
     seed) cannot leak into golden comparisons. *)
  let fill order =
    let s = Dsm.Page_store.create ~node:0 in
    List.iter (fun (o, p, v) -> Dsm.Page_store.receive s (oid o) ~page:p ~version:v) order;
    s
  in
  let contents = [ (7, 1, 3); (2, 0, 1); (7, 0, 2); (2, 2, 5); (11, 4, 1) ] in
  let a = fill contents and b = fill (List.rev contents) in
  Alcotest.(check string) "insertion order invisible" (Dsm.Page_store.dump a)
    (Dsm.Page_store.dump b);
  (* Objects ascend, pages ascend within each line. *)
  let d = Dsm.Page_store.dump a in
  let idx needle =
    let nl = String.length needle and l = String.length d in
    let rec go i = if i + nl > l then -1 else if String.sub d i nl = needle then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "O2 before O7 before O11" true
    (idx "O2" >= 0 && idx "O7" > idx "O2" && idx "O11" > idx "O7")

(* The store against a hash-table model of (oid, page) -> version. Oids
   reach 5,000 and pages 40, so both levels of the store grow past their
   initial size; most calls hit a few small oids and pages so that calls
   meet on one page. [receive] and [restore] draw [absent] too; [write]
   draws only real versions, as the runtime's writes do. *)
type store_op = Receive of int * int * int | Write of int * int * int | Restore of int * int * int

let print_store_op = function
  | Receive (o, p, v) -> Printf.sprintf "receive O%d p%d v%d" o p v
  | Write (o, p, v) -> Printf.sprintf "write O%d p%d v%d" o p v
  | Restore (o, p, v) -> Printf.sprintf "restore O%d p%d v%d" o p v

let qcheck_store_matches_model =
  let gen =
    QCheck.Gen.(
      let* kind = int_bound 2 in
      let* o = oneof [ int_bound 3; int_bound 5_000 ] in
      let* p = oneof [ int_bound 2; int_bound 40 ] in
      let* v = int_range (-1) 9 in
      return
        (match kind with
        | 0 -> Receive (o, p, v)
        | 1 -> Write (o, p, max v 0)
        | _ -> Restore (o, p, v)))
  in
  QCheck.Test.make ~name:"page store agrees with a hash-table model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_store_op)
       QCheck.Gen.(list_size (int_range 1 60) gen))
    (fun ops ->
      let s = Dsm.Page_store.create ~node:1 in
      let absent = Dsm.Page_store.absent in
      let model = Hashtbl.create 16 in
      let find k = Option.value (Hashtbl.find_opt model k) ~default:absent in
      let ok = ref true in
      let check b = if not b then ok := false in
      let model_pages o =
        Hashtbl.fold (fun (o', p) v acc -> if o' = o then (p, v) :: acc else acc) model []
        |> List.sort compare
      in
      let model_objects () =
        List.sort_uniq compare (Hashtbl.fold (fun (o, _) _ acc -> o :: acc) model [])
      in
      List.iter
        (fun op ->
          let o, p =
            match op with
            | Receive (o, p, v) ->
                Dsm.Page_store.receive s (oid o) ~page:p ~version:v;
                if v > find (o, p) then Hashtbl.replace model (o, p) v;
                (o, p)
            | Write (o, p, v) ->
                check (Dsm.Page_store.write s (oid o) ~page:p ~new_version:v = find (o, p));
                Hashtbl.replace model (o, p) v;
                (o, p)
            | Restore (o, p, v) ->
                Dsm.Page_store.restore s (oid o) ~page:p ~version:v;
                if v = absent then Hashtbl.remove model (o, p) else Hashtbl.replace model (o, p) v;
                (o, p)
          in
          check (Dsm.Page_store.version s (oid o) ~page:p = find (o, p));
          check (Dsm.Page_store.cached_pages s (oid o) = model_pages o);
          check (List.map Oid.to_int (Dsm.Page_store.cached_objects s) = model_objects ()))
        ops;
      let objects = model_objects () in
      let dump = Buffer.create 64 in
      Buffer.add_string dump "page store (node 1):\n";
      List.iter
        (fun o ->
          Buffer.add_string dump (Printf.sprintf "  O%d:" o);
          List.iter
            (fun (p, v) -> Buffer.add_string dump (Printf.sprintf " %d@v%d" p v))
            (model_pages o);
          Buffer.add_char dump '\n')
        objects;
      check (Dsm.Page_store.dump s = Buffer.contents dump);
      !ok)

(* ---------- Metrics ---------- *)

let test_metrics_messages () =
  let m = Dsm.Metrics.create () in
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Control ~bytes:100;
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Data ~bytes:4000;
  Dsm.Metrics.record_message m ~oid:(oid 2) ~kind:Sim.Network.Data ~bytes:500;
  let e = Dsm.Metrics.per_object m (oid 1) in
  Alcotest.(check int) "messages" 2 e.Dsm.Metrics.messages;
  Alcotest.(check int) "control bytes" 100 e.Dsm.Metrics.control_bytes;
  Alcotest.(check int) "data bytes" 4000 e.Dsm.Metrics.data_bytes;
  Alcotest.(check int) "total bytes" 4600 (Dsm.Metrics.total_bytes m);
  Alcotest.(check int) "total data" 4500 (Dsm.Metrics.total_data_bytes m);
  Alcotest.(check int) "total messages" 3 (Dsm.Metrics.total_messages m);
  Alcotest.(check (list int)) "objects" [ 1; 2 ] (List.map Oid.to_int (Dsm.Metrics.objects m))

let test_metrics_time_model () =
  let m = Dsm.Metrics.create () in
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Data ~bytes:1250;
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Control ~bytes:1250;
  let link = { Sim.Network.bandwidth_bps = 1e8; software_cost_us = 20.0 } in
  (* 2 messages * 20us + 2500B * 8 / 1e8 = 40 + 200 = 240us. *)
  Alcotest.(check (float 0.001)) "object time" 240.0 (Dsm.Metrics.object_time_us m (oid 1) ~link);
  Alcotest.(check (float 0.001)) "total time" 240.0 (Dsm.Metrics.total_time_us m ~link);
  (* Faster link, higher software cost: counts dominate. *)
  let fast = { Sim.Network.bandwidth_bps = 1e9; software_cost_us = 100.0 } in
  Alcotest.(check (float 0.001)) "fast link" 220.0 (Dsm.Metrics.object_time_us m (oid 1) ~link:fast)

let test_metrics_counters () =
  let m = Dsm.Metrics.create () in
  Dsm.Metrics.incr_roots_committed m;
  Dsm.Metrics.incr_roots_committed m;
  Dsm.Metrics.incr_deadlock_aborts m;
  Dsm.Metrics.incr_sub_aborts m;
  Dsm.Metrics.incr_retries m;
  Dsm.Metrics.incr_upgrades m;
  Dsm.Metrics.record_demand_fetch m ~oid:(oid 3);
  let t = Dsm.Metrics.totals m in
  Alcotest.(check int) "committed" 2 t.Dsm.Metrics.roots_committed;
  Alcotest.(check int) "deadlocks" 1 t.Dsm.Metrics.deadlock_aborts;
  Alcotest.(check int) "sub aborts" 1 t.Dsm.Metrics.sub_aborts;
  Alcotest.(check int) "retries" 1 t.Dsm.Metrics.retries;
  Alcotest.(check int) "upgrades" 1 t.Dsm.Metrics.upgrades;
  Alcotest.(check int) "demand fetches" 1 t.Dsm.Metrics.demand_fetches

let test_metrics_size_histogram () =
  let m = Dsm.Metrics.create () in
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Control ~bytes:100;
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Control ~bytes:128;
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Data ~bytes:4100;
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Data ~bytes:50_000;
  let h = Dsm.Metrics.size_histogram m in
  Alcotest.(check int) "<=128" 2 (List.assoc 128 h);
  Alcotest.(check int) "<=8192" 1 (List.assoc 8192 h);
  Alcotest.(check int) "oversize" 1 (List.assoc max_int h);
  Alcotest.(check int) "total counted" 4 (List.fold_left (fun a (_, c) -> a + c) 0 h)

let test_metrics_am_time_model () =
  let m = Dsm.Metrics.create () in
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Control ~bytes:1250;
  Dsm.Metrics.record_message m ~oid:(oid 1) ~kind:Sim.Network.Data ~bytes:1250;
  let link = { Sim.Network.bandwidth_bps = 1e8; software_cost_us = 20.0 } in
  (* control at 1us + data at 20us + 2500B serialisation (200us) = 221. *)
  Alcotest.(check (float 0.001)) "split costs" 221.0
    (Dsm.Metrics.object_time_us_am m (oid 1) ~link ~control_software_cost_us:1.0);
  Alcotest.(check (float 0.001)) "total matches" 221.0
    (Dsm.Metrics.total_time_us_am m ~link ~control_software_cost_us:1.0);
  (* With equal costs the AM model degenerates to the plain one. *)
  Alcotest.(check (float 0.001)) "degenerates"
    (Dsm.Metrics.object_time_us m (oid 1) ~link)
    (Dsm.Metrics.object_time_us_am m (oid 1) ~link ~control_software_cost_us:20.0)

let test_metrics_zero_object () =
  let m = Dsm.Metrics.create () in
  let e = Dsm.Metrics.per_object m (oid 9) in
  Alcotest.(check int) "zeroed" 0 e.Dsm.Metrics.messages

let tests =
  [
    ( "dsm",
      [
        Alcotest.test_case "protocol strings" `Quick test_protocol_strings;
        Alcotest.test_case "protocol flags" `Quick test_protocol_flags;
        Alcotest.test_case "transfer cotec" `Quick test_transfer_cotec;
        Alcotest.test_case "transfer otec" `Quick test_transfer_otec;
        Alcotest.test_case "transfer lotec" `Quick test_transfer_lotec;
        Alcotest.test_case "transfer lotec empty prediction" `Quick
          test_transfer_lotec_empty_prediction;
        Alcotest.test_case "transfer all pages local" `Quick test_transfer_all_local;
        Alcotest.test_case "transfer subset chain" `Quick test_transfer_subset_chain;
        QCheck_alcotest.to_alcotest qcheck_transfer_subsets;
        Alcotest.test_case "store basics" `Quick test_store_basics;
        Alcotest.test_case "store receive monotonic" `Quick test_store_receive_monotonic;
        Alcotest.test_case "store write prev" `Quick test_store_write_returns_prev;
        Alcotest.test_case "store restore" `Quick test_store_restore;
        Alcotest.test_case "store is_current" `Quick test_store_is_current;
        Alcotest.test_case "store enumeration" `Quick test_store_enumeration;
        Alcotest.test_case "store dump deterministic" `Quick test_store_dump_deterministic;
        QCheck_alcotest.to_alcotest qcheck_store_matches_model;
        Alcotest.test_case "metrics messages" `Quick test_metrics_messages;
        Alcotest.test_case "metrics time model" `Quick test_metrics_time_model;
        Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
        Alcotest.test_case "metrics size histogram" `Quick test_metrics_size_histogram;
        Alcotest.test_case "metrics am time model" `Quick test_metrics_am_time_model;
        Alcotest.test_case "metrics zero object" `Quick test_metrics_zero_object;
      ] );
  ]
