(* Layer replays: the call sequence a traced run made into three layers,
   recovered from its typed event trace as far as the trace records it,
   re-issued against fresh instances of the layers' public APIs.

   Building an op array (recovering families, resolving ids, choosing which
   call an event stands for) happens before the clock starts; the timed
   loop does nothing but the layer calls and the bookkeeping needed to keep
   the replayed state consistent. *)

open Objmodel
open Txn

type entry = Dsm.Event.t Sim.Trace.entry

type result = {
  ops : int;  (** layer calls per replay *)
  seconds : float;  (** median time of one replay over [passes] fresh instances *)
  skipped : int;  (** events whose transaction could not be placed in a family *)
}

let passes = 3

let time_passes run =
  let times =
    List.init passes (fun _ ->
        let go = run () in
        Gc.minor ();
        let t0 = Stats.now () in
        go ();
        Stats.now () -. t0)
  in
  Stats.median times

(* Family structure from the trace: roots from [Root_begin], parent links
   from [Precommit]. A sub-transaction that never pre-committed (its family
   aborted first) has no recorded parent and cannot be placed. *)
type ancestry = { parent : (int, int) Hashtbl.t; root_node : (int, int) Hashtbl.t }

let ancestry (events : entry array) =
  let parent = Hashtbl.create 4096 and root_node = Hashtbl.create 4096 in
  Array.iter
    (fun (e : entry) ->
      match e.Sim.Trace.data with
      | Dsm.Event.Precommit { txn; parent = p; _ } ->
          Hashtbl.replace parent (Txn_id.to_int txn) (Txn_id.to_int p)
      | Dsm.Event.Root_begin { family; node; _ } ->
          Hashtbl.replace root_node (Txn_id.to_int family) node
      | _ -> ())
    events;
  { parent; root_node }

let rec root_of anc txn =
  if Hashtbl.mem anc.root_node txn then Some txn
  else Option.bind (Hashtbl.find_opt anc.parent txn) (root_of anc)

let register_objects dir catalog ~node_count =
  List.iter
    (fun oid ->
      Gdo.Directory.register_object dir oid ~pages:(Catalog.page_count catalog oid)
        ~initial_node:(Oid.to_int oid mod node_count))
    (Catalog.oids catalog)

(* ---- Gdo.Directory: acquires (requests and upgrades) and family releases *)

type gdo_op =
  | Acquire of { oid : Oid.t; family : Txn_id.t; node : int; mode : Lock.mode }
  | Finish of { family : Txn_id.t; oids : Oid.t list; at : int }
      (** root commit or abort: release every object the family requested *)

(* Run one replay. A grant deferred to a family that already finished in
   the trace (it waited in the replay but not in the run) is released on
   delivery, so every replayed lock is eventually released. [on_queue]
   sees each queued request; the timed passes give a no-op. *)
let gdo_pass dir ops ~finished_at ~on_queue =
  let ops_done = ref 0 in
  let rec deliver i ds =
    List.iter
      (fun (d : Gdo.Directory.delivery) ->
        match Hashtbl.find_opt finished_at (Txn_id.to_int d.Gdo.Directory.d_family) with
        | Some j when j > i -> ()
        | _ ->
            incr ops_done;
            deliver i
              (Gdo.Directory.release dir d.Gdo.Directory.d_grant.Gdo.Directory.g_oid
                 ~family:d.Gdo.Directory.d_family ~dirty:[]))
      ds
  in
  Array.iter
    (function
      | Acquire { oid; family; node; mode } -> (
          incr ops_done;
          match Gdo.Directory.acquire dir oid ~family ~node ~mode () with
          | Gdo.Directory.Queued -> on_queue oid
          | Gdo.Directory.Granted _ | Gdo.Directory.Busy | Gdo.Directory.Deadlock _ -> ())
      | Finish { family; oids; at } ->
          List.iter
            (fun oid ->
              incr ops_done;
              deliver at (Gdo.Directory.release dir oid ~family ~dirty:[]))
            oids)
    ops;
  !ops_done

type gdo_result = { gdo : result; max_wait_depth : int }

let gdo ~catalog ~node_count (events : entry array) =
  let anc = ancestry events in
  let requested = Hashtbl.create 4096 in
  let finished_at = Hashtbl.create 4096 in
  let ops = ref [] and n = ref 0 and skipped = ref 0 in
  let push op =
    ops := op :: !ops;
    incr n
  in
  let acquire txn oid node mode =
    match root_of anc (Txn_id.to_int txn) with
    | None -> incr skipped
    | Some root ->
        let l = Option.value (Hashtbl.find_opt requested root) ~default:[] in
        if not (List.exists (Oid.equal oid) l) then Hashtbl.replace requested root (oid :: l);
        push (Acquire { oid; family = Txn_id.of_int root; node; mode })
  in
  let finish family =
    let root = Txn_id.to_int family in
    let oids = Option.value (Hashtbl.find_opt requested root) ~default:[] in
    Hashtbl.remove requested root;
    Hashtbl.replace finished_at root !n;
    push (Finish { family; oids = List.rev oids; at = !n })
  in
  Array.iter
    (fun (e : entry) ->
      match e.Sim.Trace.data with
      | Dsm.Event.Lock_request { oid; family; node; mode } -> acquire family oid node mode
      | Dsm.Event.Upgrade { oid; family; node } -> acquire family oid node Lock.Write
      | Dsm.Event.Root_commit { family; _ } | Dsm.Event.Root_abort { family; _ } -> finish family
      | _ -> ())
    events;
  let ops = Array.of_list (List.rev !ops) in
  let fresh () =
    let dir = Gdo.Directory.create () in
    register_objects dir catalog ~node_count;
    dir
  in
  (* One untimed pass measures the deepest wait queue and counts calls. *)
  let depth = ref 0 in
  let dir = fresh () in
  let calls =
    gdo_pass dir ops ~finished_at ~on_queue:(fun oid ->
        depth := max !depth (Gdo.Directory.waiting_count dir oid))
  in
  let seconds =
    time_passes (fun () ->
        let dir = fresh () in
        fun () -> ignore (gdo_pass dir ops ~finished_at ~on_queue:ignore))
  in
  { gdo = { ops = calls; seconds; skipped = !skipped }; max_wait_depth = !depth }

(* ---- Txn.Local_locks: local acquire, install_grant, upgrade, precommit,
   root_release — one table per node over a transaction tree rebuilt from
   the trace before timing. *)

type lock_op =
  | L_acquire of { node : int; oid : Oid.t; txn : Txn_id.t; mode : Lock.mode }
  | L_install of { node : int; oid : Oid.t; txn : Txn_id.t; mode : Lock.mode }
  | L_upgrade of { node : int; oid : Oid.t; txn : Txn_id.t }
  | L_precommit of { node : int; txn : Txn_id.t }
  | L_root_release of { node : int; root : Txn_id.t }

let local_locks ~node_count (events : entry array) =
  let anc = ancestry events in
  let tree = Txn_tree.create () in
  let ids = Hashtbl.create 4096 in
  (* Trace id -> id in the rebuilt tree, creating ancestors first. *)
  let rec tree_id txn =
    match Hashtbl.find_opt ids txn with
    | Some id -> Some id
    | None -> (
        let created =
          match Hashtbl.find_opt anc.root_node txn with
          | Some node -> Some (Txn_tree.create_root tree ~node)
          | None ->
              Option.map
                (fun parent -> Txn_tree.create_child tree ~parent)
                (Option.bind (Hashtbl.find_opt anc.parent txn) tree_id)
        in
        match created with
        | Some id ->
            Hashtbl.replace ids txn id;
            Some id
        | None -> None)
  in
  (* Which (node, family, object) entries are cached, so an install never
     hits an entry that already exists. *)
  let cached = Hashtbl.create 4096 and family_objects = Hashtbl.create 4096 in
  let ops = ref [] and skipped = ref 0 in
  let push op = ops := op :: !ops in
  let with_txn txn f =
    match tree_id (Txn_id.to_int txn) with
    | None -> incr skipped
    | Some id -> (
        match root_of anc (Txn_id.to_int txn) with
        | None -> incr skipped
        | Some root -> f id root)
  in
  let install ~node ~oid ~txn ~mode =
    with_txn txn (fun id root ->
        let key = (node, root, Oid.to_int oid) in
        if Hashtbl.mem cached key then begin
          if Lock.equal mode Lock.Write then push (L_upgrade { node; oid; txn = id })
        end
        else begin
          Hashtbl.replace cached key ();
          let l = Option.value (Hashtbl.find_opt family_objects (node, root)) ~default:[] in
          Hashtbl.replace family_objects (node, root) (Oid.to_int oid :: l);
          push (L_install { node; oid; txn = id; mode })
        end)
  in
  Array.iter
    (fun (e : entry) ->
      match e.Sim.Trace.data with
      | Dsm.Event.Lock_request { oid; family = txn; node; mode } ->
          with_txn txn (fun id _ -> push (L_acquire { node; oid; txn = id; mode }))
      | Dsm.Event.Lock_grant { oid; family = txn; node; mode } -> install ~node ~oid ~txn ~mode
      | Dsm.Event.Lease_hit { oid; family = txn; node } ->
          with_txn txn (fun id _ -> push (L_acquire { node; oid; txn = id; mode = Lock.Read }));
          install ~node ~oid ~txn ~mode:Lock.Read
      | Dsm.Event.Upgrade { oid; family = txn; node } ->
          with_txn txn (fun id root ->
              push (L_acquire { node; oid; txn = id; mode = Lock.Write });
              if Hashtbl.mem cached (node, root, Oid.to_int oid) then
                push (L_upgrade { node; oid; txn = id }))
      | Dsm.Event.Precommit { txn; node; _ } ->
          with_txn txn (fun id _ ->
              if not (Txn_tree.is_root tree id) then push (L_precommit { node; txn = id }))
      | Dsm.Event.Root_commit { family; node; _ } | Dsm.Event.Root_abort { family; node } ->
          with_txn family (fun id root ->
              List.iter
                (fun o -> Hashtbl.remove cached (node, root, o))
                (Option.value (Hashtbl.find_opt family_objects (node, root)) ~default:[]);
              Hashtbl.remove family_objects (node, root);
              push (L_root_release { node; root = id }))
      | _ -> ())
    events;
  let ops = Array.of_list (List.rev !ops) in
  let pass locks =
    Array.iter
      (function
        | L_acquire { node; oid; txn; mode } ->
            ignore (Local_locks.acquire locks.(node) oid ~txn ~mode ~wake:ignore)
        | L_install { node; oid; txn; mode } ->
            Local_locks.install_grant locks.(node) oid ~txn ~mode
        | L_upgrade { node; oid; txn } -> Local_locks.upgrade_granted locks.(node) oid ~txn
        | L_precommit { node; txn } -> Local_locks.precommit locks.(node) txn
        | L_root_release { node; root } -> ignore (Local_locks.root_release locks.(node) ~root))
      ops
  in
  let seconds =
    time_passes (fun () ->
        let locks = Array.init node_count (fun _ -> Local_locks.create tree) in
        fun () -> pass locks)
  in
  { ops = Array.length ops; seconds; skipped = !skipped }

(* ---- Dsm.Metrics record_* (and through them Dsm.Histogram.record): the
   ledger calls the traced events stand for. *)

type metrics_op =
  | M_message of { oid : Oid.t; kind : Sim.Network.kind; bytes : int }
  | M_wire of { mtype : Dsm.Wire.t; bytes : int }
  | M_acquisition of Oid.t
  | M_demand_fetch of Oid.t
  | M_acquire_latency of float
  | M_commit_latency of float
  | M_global
  | M_upgrade
  | M_commit
  | M_retry

let metrics ~control_msg_bytes (events : entry array) =
  let requested_at = Hashtbl.create 4096 and begun_at = Hashtbl.create 4096 in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  let control oid mtype =
    push (M_message { oid; kind = Sim.Network.Control; bytes = control_msg_bytes });
    push (M_wire { mtype; bytes = control_msg_bytes })
  in
  let data oid bytes =
    push (M_message { oid; kind = Sim.Network.Data; bytes });
    push (M_wire { mtype = Dsm.Wire.Page_reply; bytes })
  in
  Array.iter
    (fun (e : entry) ->
      let time = e.Sim.Trace.time in
      match e.Sim.Trace.data with
      | Dsm.Event.Lock_request { oid; family; _ } ->
          Hashtbl.replace requested_at (Txn_id.to_int family, Oid.to_int oid) time;
          push M_global;
          control oid Dsm.Wire.Acquire_request
      | Dsm.Event.Lock_grant { oid; family; _ } ->
          push (M_acquisition oid);
          (match Hashtbl.find_opt requested_at (Txn_id.to_int family, Oid.to_int oid) with
          | Some t0 -> push (M_acquire_latency (time -. t0))
          | None -> ());
          control oid Dsm.Wire.Grant
      | Dsm.Event.Transfer { oid; bytes; _ } -> data oid bytes
      | Dsm.Event.Demand_fetch { oid; bytes; _ } ->
          push (M_demand_fetch oid);
          data oid bytes
      | Dsm.Event.Upgrade _ -> push M_upgrade
      | Dsm.Event.Root_begin { family; _ } ->
          Hashtbl.replace begun_at (Txn_id.to_int family) time
      | Dsm.Event.Root_commit { family; _ } ->
          push M_commit;
          Option.iter
            (fun t0 -> push (M_commit_latency (time -. t0)))
            (Hashtbl.find_opt begun_at (Txn_id.to_int family))
      | Dsm.Event.Root_abort _ -> push M_retry
      | _ -> ())
    events;
  let ops = Array.of_list (List.rev !ops) in
  let pass m =
    Array.iter
      (function
        | M_message { oid; kind; bytes } -> Dsm.Metrics.record_message m ~oid ~kind ~bytes
        | M_wire { mtype; bytes } -> Dsm.Metrics.record_wire m ~mtype ~bytes
        | M_acquisition oid -> Dsm.Metrics.record_acquisition m ~oid
        | M_demand_fetch oid -> Dsm.Metrics.record_demand_fetch m ~oid
        | M_acquire_latency us -> Dsm.Metrics.record_acquire_latency_us m us
        | M_commit_latency us -> Dsm.Metrics.record_commit_latency_us m us
        | M_global -> Dsm.Metrics.incr_global_acquisitions m
        | M_upgrade -> Dsm.Metrics.incr_upgrades m
        | M_commit -> Dsm.Metrics.incr_roots_committed m
        | M_retry -> Dsm.Metrics.incr_retries m)
      ops
  in
  let seconds =
    time_passes (fun () ->
        let m = Dsm.Metrics.create () in
        fun () -> pass m)
  in
  { ops = Array.length ops; seconds; skipped = 0 }
