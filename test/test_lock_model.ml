(* Model-based property tests for the concurrency-control core.

   Random operation sequences are applied simultaneously to the real
   implementations and to deliberately naive reference models; observable
   states must agree, and structural invariants must hold after every
   step. *)

open Objmodel
open Txn

let oid = Oid.of_int

(* ------------------------------------------------------------------ *)
(* GDO model: a trivially correct single-object lock with FIFO queue.  *)

module Gdo_model = struct
  type t = {
    mutable writer : int option;  (* family *)
    mutable readers : int list;
    mutable queue : (int * Lock.mode) list;  (* FIFO; upgrades at front *)
  }

  let create () = { writer = None; readers = []; queue = [] }

  let holds m f = m.writer = Some f || List.mem f m.readers

  (* Mirrors the directory's granting policy. Returns `Granted | `Queued. *)
  let acquire m ~family ~mode =
    match (m.writer, mode) with
    | None, _ when m.readers = [] && m.queue = [] ->
        (match mode with
        | Lock.Read -> m.readers <- [ family ]
        | Lock.Write -> m.writer <- Some family);
        `Granted
    | Some w, _ when w = family -> `Granted  (* re-entrant *)
    | None, Lock.Read when List.mem family m.readers -> `Granted
    | None, Lock.Write when m.readers = [ family ] ->
        m.readers <- [];
        m.writer <- Some family;
        `Granted  (* sole-reader upgrade *)
    | None, Lock.Read when m.queue = [] ->
        if not (List.mem family m.readers) then m.readers <- m.readers @ [ family ];
        `Granted
    | _ ->
        let upgrade = List.mem family m.readers && mode = Lock.Write in
        if upgrade then m.queue <- (family, mode) :: m.queue
        else m.queue <- m.queue @ [ (family, mode) ];
        `Queued

  let rec promote m =
    match m.queue with
    | [] -> ()
    | (f, Lock.Write) :: rest when m.writer = None && m.readers = [ f ] ->
        (* upgrade completes *)
        m.readers <- [];
        m.writer <- Some f;
        m.queue <- rest
    | (f, Lock.Write) :: rest when m.writer = None && m.readers = [] ->
        m.writer <- Some f;
        m.queue <- rest
    | (f, Lock.Read) :: rest when m.writer = None ->
        if not (List.mem f m.readers) then m.readers <- m.readers @ [ f ];
        m.queue <- rest;
        promote m
    | _ -> ()

  let release m ~family =
    if holds m family then begin
      if m.writer = Some family then m.writer <- None;
      m.readers <- List.filter (( <> ) family) m.readers;
      promote m
    end
end

let families = [ 1; 2; 3; 4 ]

type op = Acquire of int * Lock.mode | Release of int

let op_gen =
  QCheck.Gen.(
    let* f = oneofl families in
    let* kind = int_bound 2 in
    return (if kind = 0 then Release f else Acquire (f, if kind = 1 then Lock.Read else Lock.Write)))

let ops_gen = QCheck.Gen.(list_size (int_range 1 60) op_gen)

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Acquire (f, m) -> Printf.sprintf "A%d%s" f (Format.asprintf "%a" Lock.pp m)
         | Release f -> Printf.sprintf "R%d" f)
       ops)

(* The real directory signals queue entry via Queued + deferred delivery;
   the model grants synchronously in promote. We track, per family, whether
   it currently holds according to each side, and compare after every op. *)
let run_scenario ops =
  let dir = Gdo.Directory.create () in
  Gdo.Directory.register_object dir (oid 0) ~pages:1 ~initial_node:0;
  let model = Gdo_model.create () in
  (* Families that deadlocked in the real directory get force-released in
     the model too (the runtime would abort them). *)
  let ok = ref true in
  let model_holds f = Gdo_model.holds model f in
  let real_holds f =
    List.exists
      (fun (h : Gdo.Directory.holder) -> Txn_id.to_int h.Gdo.Directory.family = f)
      (Gdo.Directory.holders dir (oid 0))
  in
  (* The runtime contract: a family blocked in the GDO queue issues no
     further operations until its deferred grant arrives. Model that by
     skipping ops of blocked families; deliveries unblock. *)
  let blocked = Hashtbl.create 8 in
  let apply_deliveries ds =
    List.iter
      (fun (d : Gdo.Directory.delivery) ->
        Hashtbl.remove blocked (Txn_id.to_int d.Gdo.Directory.d_family))
      ds
  in
  List.iter
    (fun op ->
      (match op with
      | Acquire (f, _) when Hashtbl.mem blocked f -> ()
      | Release f when Hashtbl.mem blocked f -> ()
      | Acquire (f, mode) -> (
          let family = Txn_id.of_int f in
          match Gdo.Directory.acquire dir (oid 0) ~family ~node:f ~mode () with
          | Gdo.Directory.Granted _ ->
              (match Gdo_model.acquire model ~family:f ~mode with
              | `Granted -> ()
              | `Queued -> ok := false)
          | Gdo.Directory.Queued -> (
              Hashtbl.replace blocked f ();
              match Gdo_model.acquire model ~family:f ~mode with
              | `Queued -> ()
              | `Granted -> ok := false)
          | Gdo.Directory.Busy -> ok := false
          | Gdo.Directory.Deadlock _ ->
              (* single object: only the upgrade-upgrade cycle; the victim
                 would abort, releasing its read lock on both sides. *)
              Gdo_model.release model ~family:f;
              apply_deliveries (Gdo.Directory.release dir (oid 0) ~family ~dirty:[]))
      | Release f ->
          Gdo_model.release model ~family:f;
          apply_deliveries (Gdo.Directory.release dir (oid 0) ~family:(Txn_id.of_int f) ~dirty:[]));
      (* Deferred grants in the real directory have been applied by release;
         compare holder sets. *)
      List.iter
        (fun f -> if model_holds f <> real_holds f then ok := false)
        families;
      (* Structural invariants. *)
      let holders = Gdo.Directory.holders dir (oid 0) in
      (match Gdo.Directory.lock_state dir (oid 0) with
      | Gdo.Directory.Free -> if holders <> [] then ok := false
      | Gdo.Directory.Held_write -> if List.length holders <> 1 then ok := false
      | Gdo.Directory.Held_read -> if holders = [] then ok := false);
      (* No family both holds and waits on the same object. *)
      List.iter
        (fun (w, h) -> if Txn_id.equal w h then ok := false)
        (Gdo.Directory.waits_for_edges dir))
    ops;
  !ok

let prop_gdo_matches_model =
  QCheck.Test.make ~name:"gdo agrees with reference lock model" ~count:500
    (QCheck.make ~print:print_ops ops_gen)
    run_scenario

(* ------------------------------------------------------------------ *)
(* Local_locks invariants under random intra-family sequences.          *)

(* A random family tree of depth <= 3 with <= 6 transactions; operations
   install/acquire/precommit/abort in random order, with legality enforced
   at application time (illegal ops are skipped). Invariants:
   - a transaction never both holds and retains without having had a child;
   - retainers are always family members;
   - after the root releases, the table is empty for that family. *)
let prop_local_locks_invariants =
  let gen = QCheck.Gen.(pair int (list_size (int_range 1 40) (int_bound 99))) in
  QCheck.Test.make ~name:"local lock table invariants under random ops" ~count:300
    (QCheck.make
       ~print:(fun (seed, ops) -> Printf.sprintf "seed=%d ops=%d" seed (List.length ops))
       gen)
    (fun (seed, ops) ->
      let rng = Sim.Prng.create ~seed in
      let tree = Txn_tree.create () in
      let table = Local_locks.create tree in
      let root = Txn_tree.create_root tree ~node:0 in
      let live = ref [ root ] in
      let installed = ref false in
      let ok = ref true in
      let object_ = oid 7 in
      List.iter
        (fun op_code ->
          match op_code mod 5 with
          | 0 ->
              (* spawn a child of a random live txn *)
              if List.length !live < 6 then begin
                let parent = Sim.Prng.pick_list rng !live in
                if Txn_tree.status tree parent = Txn_tree.Active then
                  live := Txn_tree.create_child tree ~parent :: !live
              end
          | 1 ->
              (* acquire (installing the family grant first if needed) *)
              let txn = Sim.Prng.pick_list rng !live in
              if Txn_tree.status tree txn = Txn_tree.Active then begin
                if not !installed then begin
                  Local_locks.install_grant table object_ ~txn ~mode:Lock.Write;
                  installed := true
                end
                else
                  ignore
                    (Local_locks.acquire table object_ ~txn ~mode:Lock.Write ~wake:(fun () -> ()))
              end
          | 2 ->
              (* precommit a random live non-root leaf *)
              let candidates =
                List.filter
                  (fun t ->
                    (not (Txn_tree.is_root tree t))
                    && Txn_tree.status tree t = Txn_tree.Active
                    && List.for_all
                         (fun c -> Txn_tree.status tree c <> Txn_tree.Active)
                         (Txn_tree.children tree t))
                  !live
              in
              if candidates <> [] then begin
                let t = Sim.Prng.pick_list rng candidates in
                Local_locks.precommit table t;
                Txn_tree.set_status tree t Txn_tree.Precommitted;
                live := List.filter (fun x -> not (Txn_id.equal x t)) !live
              end
          | 3 ->
              (* abort a random live non-root txn *)
              let candidates =
                List.filter
                  (fun t ->
                    (not (Txn_tree.is_root tree t)) && Txn_tree.status tree t = Txn_tree.Active)
                  !live
              in
              if candidates <> [] then begin
                let t = Sim.Prng.pick_list rng candidates in
                Local_locks.abort table t ~to_release:(fun _ -> installed := false);
                Txn_tree.set_status tree t Txn_tree.Aborted;
                live := List.filter (fun x -> not (Txn_id.equal x t)) !live
              end
          | _ ->
              (* invariant check: retainers are strict ancestors of nobody
                 outside the family and belong to the tree *)
              List.iter
                (fun (r, _) ->
                  if not (Txn_id.equal (Txn_tree.root_of tree r) root) then ok := false)
                (Local_locks.retainers table object_ ~family:root))
        ops;
      (* Root release always empties the family's entries. *)
      ignore (Local_locks.root_release table ~root);
      if Local_locks.objects_of_family table ~family:root <> [] then ok := false;
      !ok)

(* ------------------------------------------------------------------ *)
(* Local_locks with several families at one site: the per-family index  *)
(* (precommit, root_release, objects_of_family) against the site table  *)
(* (abort, family_mode).                                                 *)

(* The model keeps, per family and cached object, the transactions with an
   interest in the cached lock: holders, retainers and waiters. The entry
   exists while that set is non-empty; an abort empties it exactly when the
   aborting transaction was the last one. As in the runtime, a queued
   transaction issues nothing until woken, only leaves finish, and a root
   releases once its children are done. *)
type model_family = {
  mutable root : Txn_id.t;
  mutable live : Txn_id.t list;  (* active transactions, root included *)
  interest : (int, Txn_id.t list) Hashtbl.t;  (* oid -> interested txns *)
}

let n_families = 3
let n_objects = 6

(* (kind, family, object, (pick, write)) *)
let family_op_gen =
  QCheck.Gen.(
    tup4 (int_bound 4) (int_bound (n_families - 1)) (int_bound (n_objects - 1))
      (pair (int_bound 99) bool))

let prop_family_index_agrees =
  QCheck.Test.make ~name:"local lock family index agrees with the site table" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (tup4 int int int (pair int bool)))
       QCheck.Gen.(list_size (int_range 1 80) family_op_gen))
    (fun ops ->
      let tree = Txn_tree.create () in
      let table = Local_locks.create tree in
      let fresh () =
        let r = Txn_tree.create_root tree ~node:0 in
        { root = r; live = [ r ]; interest = Hashtbl.create 8 }
      in
      let fams = Array.init n_families (fun _ -> fresh ()) in
      let blocked = Txn_id.Table.create 8 in
      let free t = not (Txn_id.Table.mem blocked t) in
      let without t = List.filter (fun x -> not (Txn_id.equal x t)) in
      let with_ t ts = t :: without t ts in
      let cached fam = List.sort compare (Hashtbl.fold (fun o _ acc -> o :: acc) fam.interest []) in
      let ok = ref true in
      let check b = if not b then ok := false in
      let leaves fam =
        List.filter
          (fun t ->
            (not (Txn_tree.is_root tree t))
            && free t
            && List.for_all
                 (fun c -> Txn_tree.status tree c <> Txn_tree.Active)
                 (Txn_tree.children tree t))
          fam.live
      in
      let finish fam t status =
        Txn_tree.set_status tree t status;
        fam.live <- without t fam.live
      in
      List.iter
        (fun (kind, f, o, (pick, write)) ->
          let fam = fams.(f) in
          let choose l = List.nth l (pick mod List.length l) in
          (match kind with
          | 0 ->
              let parents = List.filter free fam.live in
              if parents <> [] && List.length fam.live < 6 then
                fam.live <- Txn_tree.create_child tree ~parent:(choose parents) :: fam.live
          | 1 -> (
              match List.filter free fam.live with
              | [] -> ()
              | candidates -> (
                  let txn = choose candidates in
                  let mode = if write then Lock.Write else Lock.Read in
                  let known = Hashtbl.mem fam.interest o in
                  let join () =
                    check known;
                    if known then
                      Hashtbl.replace fam.interest o (with_ txn (Hashtbl.find fam.interest o))
                  in
                  match
                    Local_locks.acquire table (oid o) ~txn ~mode ~wake:(fun () ->
                        Txn_id.Table.remove blocked txn)
                  with
                  | Local_locks.Not_cached ->
                      check (not known);
                      Local_locks.install_grant table (oid o) ~txn ~mode;
                      Hashtbl.replace fam.interest o [ txn ]
                  | Local_locks.Granted -> join ()
                  | Local_locks.Queued ->
                      join ();
                      Txn_id.Table.replace blocked txn ()
                  | Local_locks.Needs_upgrade ->
                      join ();
                      Local_locks.upgrade_granted table (oid o) ~txn))
          | 2 -> (
              match leaves fam with
              | [] -> ()
              | candidates ->
                  let t = choose candidates in
                  let parent = Option.get (Txn_tree.parent tree t) in
                  Local_locks.precommit table t;
                  finish fam t Txn_tree.Precommitted;
                  Hashtbl.filter_map_inplace
                    (fun _ ts -> Some (if List.mem t ts then with_ parent (without t ts) else ts))
                    fam.interest)
          | 3 -> (
              match leaves fam with
              | [] -> ()
              | candidates ->
                  let t = choose candidates in
                  let released = ref [] in
                  Local_locks.abort table t ~to_release:(fun o ->
                      released := Oid.to_int o :: !released);
                  finish fam t Txn_tree.Aborted;
                  let emptied = ref [] in
                  Hashtbl.filter_map_inplace
                    (fun o ts ->
                      match without t ts with
                      | [] ->
                          emptied := o :: !emptied;
                          None
                      | rest -> Some rest)
                    fam.interest;
                  check (List.sort compare !released = List.sort compare !emptied))
          | _ ->
              if free fam.root && fam.live = [ fam.root ] then begin
                let expected = cached fam in
                let released = Local_locks.root_release table ~root:fam.root in
                check (List.map Oid.to_int released = expected);
                List.iter
                  (fun o -> check (Local_locks.family_mode table (oid o) ~family:fam.root = None))
                  expected;
                finish fam fam.root Txn_tree.Committed;
                fams.(f) <- fresh ()
              end);
          (* After every operation, each family's index and the site table
             both agree with the model. *)
          Array.iter
            (fun fam ->
              let expected = cached fam in
              check
                (List.map Oid.to_int (Local_locks.objects_of_family table ~family:fam.root)
                = expected);
              for o = 0 to n_objects - 1 do
                check
                  (Local_locks.family_mode table (oid o) ~family:fam.root <> None
                  = List.mem o expected)
              done)
            fams)
        ops;
      !ok)

let tests =
  [
    ( "lock-model",
      [
        QCheck_alcotest.to_alcotest prop_gdo_matches_model;
        QCheck_alcotest.to_alcotest prop_local_locks_invariants;
        QCheck_alcotest.to_alcotest prop_family_index_agrees;
      ] );
  ]
