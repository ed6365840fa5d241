(* Tests for the conflict-serializability checker. *)

open Objmodel
open Txn
open Core.Serializability

let oid = Oid.of_int
let tid = Txn_id.of_int
let acc o p v = { oid = oid o; page = p; version = v }

let is_serializable = function Serializable _ -> true | Cyclic _ -> false

let test_empty_history () =
  Alcotest.(check bool) "empty ok" true (is_serializable (check []))

let test_disjoint_roots () =
  let h =
    [
      { root = tid 1; reads = [ acc 1 0 0 ]; writes = [ acc 1 0 1 ] };
      { root = tid 2; reads = [ acc 2 0 0 ]; writes = [ acc 2 0 2 ] };
    ]
  in
  Alcotest.(check bool) "disjoint ok" true (is_serializable (check h));
  Alcotest.(check int) "no edges" 0 (List.length (edges h))

let test_ww_chain () =
  let h =
    [
      { root = tid 1; reads = []; writes = [ acc 1 0 1 ] };
      { root = tid 2; reads = []; writes = [ acc 1 0 2 ] };
      { root = tid 3; reads = []; writes = [ acc 1 0 3 ] };
    ]
  in
  Alcotest.(check (list (pair int int))) "chain edges" [ (1, 2); (2, 3) ]
    (List.map (fun (a, b) -> (Txn_id.to_int a, Txn_id.to_int b)) (edges h));
  match check h with
  | Serializable order ->
      Alcotest.(check (list int)) "topological order" [ 1; 2; 3 ]
        (List.map Txn_id.to_int order)
  | Cyclic _ -> Alcotest.fail "must be serializable"

let test_wr_edge () =
  let h =
    [
      { root = tid 1; reads = []; writes = [ acc 1 0 1 ] };
      { root = tid 2; reads = [ acc 1 0 1 ]; writes = [] };
    ]
  in
  Alcotest.(check (list (pair int int))) "wr edge" [ (1, 2) ]
    (List.map (fun (a, b) -> (Txn_id.to_int a, Txn_id.to_int b)) (edges h))

let test_rw_edge () =
  let h =
    [
      { root = tid 1; reads = [ acc 1 0 0 ]; writes = [] };
      { root = tid 2; reads = []; writes = [ acc 1 0 1 ] };
    ]
  in
  Alcotest.(check (list (pair int int))) "rw edge" [ (1, 2) ]
    (List.map (fun (a, b) -> (Txn_id.to_int a, Txn_id.to_int b)) (edges h))

let test_rw_skips_to_next_version_only () =
  (* Reader of v1 precedes the writer of v2 (the next version), and v2's
     writer precedes v3's; no direct edge reader -> v3 writer is required,
     but the transitive order must hold. *)
  let h =
    [
      { root = tid 1; reads = [ acc 1 0 1 ]; writes = [] };
      { root = tid 2; reads = []; writes = [ acc 1 0 2 ] };
      { root = tid 3; reads = []; writes = [ acc 1 0 3 ] };
      { root = tid 4; reads = []; writes = [ acc 1 0 1 ] };
    ]
  in
  match check h with
  | Serializable order ->
      let pos x = ref (-1) |> fun r ->
        List.iteri (fun i t -> if Txn_id.to_int t = x then r := i) order;
        !r
  in
      Alcotest.(check bool) "reader before next writer" true (pos 1 < pos 2);
      Alcotest.(check bool) "writer order" true (pos 2 < pos 3);
      Alcotest.(check bool) "v1 writer before reader" true (pos 4 < pos 1)
  | Cyclic _ -> Alcotest.fail "must be serializable"

let test_classic_cycle () =
  (* T1 reads x then writes y; T2 reads y(old) then writes x(next): the
     textbook non-serializable interleaving. *)
  let h =
    [
      { root = tid 1; reads = [ acc 1 0 0 ]; writes = [ acc 2 0 1 ] };
      { root = tid 2; reads = [ acc 2 0 0 ]; writes = [ acc 1 0 2 ] };
    ]
  in
  match check h with
  | Cyclic cycle -> Alcotest.(check bool) "cycle found" true (List.length cycle >= 2)
  | Serializable _ -> Alcotest.fail "expected cycle"

let test_self_access_no_edge () =
  let h = [ { root = tid 1; reads = [ acc 1 0 1 ]; writes = [ acc 1 0 1 ] } ] in
  Alcotest.(check int) "no self edges" 0 (List.length (edges h));
  Alcotest.(check bool) "ok" true (is_serializable (check h))

let test_witness_order_complete () =
  let h =
    [
      { root = tid 5; reads = []; writes = [ acc 1 0 1 ] };
      { root = tid 6; reads = []; writes = [] };
    ]
  in
  match check h with
  | Serializable order -> Alcotest.(check int) "all roots in order" 2 (List.length order)
  | Cyclic _ -> Alcotest.fail "serializable"

(* Cross-check the graph-based checker against brute force: a history is
   conflict-serializable iff some permutation of the roots respects every
   conflict edge. For <= 5 random roots the permutation space is tiny. *)
let qcheck_checker_matches_brute_force =
  let gen =
    QCheck.Gen.(
      let* n_roots = int_range 1 5 in
      let* accesses =
        list_size (int_range 0 12)
          (let* root = int_bound (n_roots - 1) in
           let* page = int_bound 2 in
           let* is_write = bool in
           let* observed = int_bound 12 in
           return (root, page, is_write, observed))
      in
      return (n_roots, accesses))
  in
  let build (n_roots, accesses) =
    (* Writes produce globally unique versions per page; reads observe an
       *arbitrary* one of that page's versions (or the initial 0), so both
       serializable and cyclic histories arise. *)
    let produced = Array.make 3 [ 0 ] in
    let next = ref 0 in
    let reads = Array.make n_roots [] and writes = Array.make n_roots [] in
    List.iter
      (fun (root, page, is_write, observed) ->
        if is_write then begin
          incr next;
          produced.(page) <- !next :: produced.(page);
          writes.(root) <- { oid = oid 0; page; version = !next } :: writes.(root)
        end
        else
          let versions = produced.(page) in
          let version = List.nth versions (observed mod List.length versions) in
          reads.(root) <- { oid = oid 0; page; version } :: reads.(root))
      accesses;
    List.init n_roots (fun i -> { root = tid i; reads = reads.(i); writes = writes.(i) })
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
          l
  in
  QCheck.Test.make ~name:"checker agrees with brute force" ~count:300
    (QCheck.make ~print:(fun _ -> "<history>") gen)
    (fun input ->
      let history = build input in
      let es = edges history in
      let roots = List.map (fun r -> r.root) history in
      let brute =
        List.exists
          (fun perm ->
            let pos x =
              let rec find i = function
                | [] -> -1
                | y :: rest -> if Txn_id.equal x y then i else find (i + 1) rest
              in
              find 0 perm
            in
            List.for_all (fun (a, b) -> pos a < pos b) es)
          (permutations roots)
      in
      let checker = match check history with Serializable _ -> true | Cyclic _ -> false in
      brute = checker)

(* Reference model: the plain O(readers x writers) checker, which scans
   every writer of a page once per reader. [edges] and [check] must agree
   with it exactly, witness order and cycle included. *)
module Model = struct
  module PageMap = Map.Make (struct
    type t = Oid.t * int

    let compare (o1, p1) (o2, p2) =
      let c = Oid.compare o1 o2 in
      if c <> 0 then c else Int.compare p1 p2
  end)

  module EdgeSet = Set.Make (struct
    type t = Txn_id.t * Txn_id.t

    let compare (a1, b1) (a2, b2) =
      let c = Txn_id.compare a1 a2 in
      if c <> 0 then c else Txn_id.compare b1 b2
  end)

  let index roots =
    let writers = ref PageMap.empty in
    let readers = ref PageMap.empty in
    let push m key v =
      let cur = Option.value ~default:[] (PageMap.find_opt key !m) in
      m := PageMap.add key (v :: cur) !m
    in
    List.iter
      (fun r ->
        List.iter (fun a -> push writers (a.oid, a.page) (a.version, r.root)) r.writes;
        List.iter (fun a -> push readers (a.oid, a.page) (a.version, r.root)) r.reads)
      roots;
    (!writers, !readers)

  let edges roots =
    let writers, readers = index roots in
    let acc = ref EdgeSet.empty in
    let add a b = if not (Txn_id.equal a b) then acc := EdgeSet.add (a, b) !acc in
    PageMap.iter
      (fun key ws ->
        let ws = List.sort (fun (v1, _) (v2, _) -> Int.compare v1 v2) ws in
        let rec ww = function
          | (_, w1) :: ((_, w2) :: _ as rest) ->
              add w1 w2;
              ww rest
          | _ -> ()
        in
        ww ws;
        let rs = Option.value ~default:[] (PageMap.find_opt key readers) in
        List.iter
          (fun (rv, reader) ->
            List.iter (fun (wv, writer) -> if wv = rv then add writer reader) ws;
            let next =
              List.fold_left
                (fun best (wv, writer) ->
                  if wv > rv then
                    match best with
                    | Some (bv, _) when bv <= wv -> best
                    | _ -> Some (wv, writer)
                  else best)
                None ws
            in
            match next with Some (_, writer) -> add reader writer | None -> ())
          rs)
      writers;
    EdgeSet.elements !acc

  let check roots =
    let succs = Txn_id.Table.create 64 in
    List.iter
      (fun (a, b) ->
        let cur = Option.value ~default:[] (Txn_id.Table.find_opt succs a) in
        Txn_id.Table.replace succs a (b :: cur))
      (edges roots);
    let colour = Txn_id.Table.create 64 in
    let order = ref [] in
    let cycle = ref None in
    let rec visit path n =
      if !cycle <> None then ()
      else
        match Txn_id.Table.find_opt colour n with
        | Some 2 -> ()
        | Some _ ->
            let rec take acc = function
              | [] -> acc
              | x :: rest -> if Txn_id.equal x n then x :: acc else take (x :: acc) rest
            in
            cycle := Some (take [] path)
        | None ->
            Txn_id.Table.replace colour n 1;
            List.iter (visit (n :: path))
              (Option.value ~default:[] (Txn_id.Table.find_opt succs n));
            Txn_id.Table.replace colour n 2;
            order := n :: !order
    in
    List.iter (fun r -> visit [] r.root) roots;
    match !cycle with Some c -> Cyclic c | None -> Serializable !order
end

(* Random histories for the model comparison: up to 40 roots over a few
   sparse oids (up to 5,000) with up to 40 pages, mostly on hot low pages.
   Writes take fresh even versions; reads observe a written version, the
   initial 0, an odd version nobody wrote, or the root's own last write of
   the page; a duplicate write claims a version another write already has,
   which pins the order of tied writers. *)
let gen_model_history =
  QCheck.Gen.(
    let* n_roots = int_range 1 40 in
    let* oids = list_size (int_range 1 4) (int_bound 5_000) in
    let* ops =
      list_size (int_range 0 150)
        (let* kind = int_bound 4 in
         let* root = int_bound (n_roots - 1) in
         let* o = oneofl oids in
         let* page = frequency [ (4, int_bound 2); (1, int_bound 39) ] in
         let* pick = int_bound 1_000 in
         return (kind, root, o, page, pick))
    in
    return (n_roots, ops))

let build_model_history (n_roots, ops) =
  let produced = Hashtbl.create 16 and own = Hashtbl.create 16 in
  let versions key = Option.value ~default:[ 0 ] (Hashtbl.find_opt produced key) in
  let next = ref 0 in
  let reads = Array.make n_roots [] and writes = Array.make n_roots [] in
  let write root key version =
    Hashtbl.replace produced key (version :: versions key);
    Hashtbl.replace own (root, key) version;
    writes.(root) <- acc (fst key) (snd key) version :: writes.(root)
  in
  let read root key version = reads.(root) <- acc (fst key) (snd key) version :: reads.(root) in
  List.iter
    (fun (kind, root, o, page, pick) ->
      let key = (o, page) in
      let vs = versions key in
      let existing = List.nth vs (pick mod List.length vs) in
      match kind with
      | 0 ->
          next := !next + 2;
          write root key !next
      | 1 -> read root key existing
      | 2 -> read root key ((2 * pick) + 1)
      | 3 -> (
          match Hashtbl.find_opt own (root, key) with
          | Some v -> read root key v
          | None -> read root key existing)
      | _ -> if existing > 0 then write root key existing)
    ops;
  List.init n_roots (fun i -> { root = tid (i * 17 mod 41); reads = reads.(i); writes = writes.(i) })

let qcheck_matches_model =
  QCheck.Test.make ~name:"edges, verdict and witness match the reference model" ~count:500
    (QCheck.make ~print:(fun _ -> "<history>") gen_model_history)
    (fun input ->
      let h = build_model_history input in
      edges h = Model.edges h && check h = Model.check h)

(* [check]'s DFS recurses once per node along a path, so a single-page ww
   chain makes it recurse once per root: 100,000 roots must check without
   overflowing the stack. *)
let test_deep_chain () =
  let n = 100_000 in
  let h = List.init n (fun i -> { root = tid i; reads = []; writes = [ acc 0 0 (i + 1) ] }) in
  Alcotest.(check int) "chain edges" (n - 1) (List.length (edges h));
  match check h with
  | Serializable order ->
      Alcotest.(check bool) "witness is the chain" true
        (List.equal Txn_id.equal order (List.map (fun r -> r.root) h))
  | Cyclic _ -> Alcotest.fail "a ww chain is serializable"

(* The committed histories, witnesses and edges of a fixed run grid, pinned
   by digest (see History_golden). *)
let test_history_golden () =
  Alcotest.(check string) "history digest" History_golden.expected (History_golden.digest ())

let tests =
  [
    ( "serializability",
      [
        Alcotest.test_case "empty" `Quick test_empty_history;
        Alcotest.test_case "disjoint" `Quick test_disjoint_roots;
        Alcotest.test_case "ww chain" `Quick test_ww_chain;
        Alcotest.test_case "wr edge" `Quick test_wr_edge;
        Alcotest.test_case "rw edge" `Quick test_rw_edge;
        Alcotest.test_case "rw next version" `Quick test_rw_skips_to_next_version_only;
        Alcotest.test_case "classic cycle" `Quick test_classic_cycle;
        Alcotest.test_case "self access" `Quick test_self_access_no_edge;
        Alcotest.test_case "witness complete" `Quick test_witness_order_complete;
        QCheck_alcotest.to_alcotest qcheck_checker_matches_brute_force;
        QCheck_alcotest.to_alcotest qcheck_matches_model;
        Alcotest.test_case "100k-root chain" `Quick test_deep_chain;
        Alcotest.test_case "history golden" `Quick test_history_golden;
      ] );
  ]
