open Objmodel
open Txn

type env = {
  engine : Sim.Engine.t;
  gdo : Gdo.Directory.t;
  tree : Txn_tree.t;
  counters : Dsm.Metrics.totals;
  record_event : (unit -> Dsm.Event.t) -> unit;
  home_of : Oid.t -> int;
  send : mtype:Dsm.Wire.t -> src:int -> dst:int -> oid:Oid.t -> (unit -> unit) -> unit;
  exec_statement : node:int -> unit;
  deliver_grant : home:int -> Gdo.Directory.delivery -> unit;
  refuse_waiter : home:int -> oid:Oid.t -> family:Txn_id.t -> node:int -> unit;
}

(* Node-side escrow ledger for one (node, object): the delegated quota
   still undrawn ([el_q_*]; family holds are subtracted at draw time), the
   net locally-committed delta not yet reconciled home ([el_pending]), the
   quota units those commits spent ([el_spent_*]), and the commit count
   driving the lazy-reconcile cadence. [el_epoch] is the highest recall
   epoch the node has already yielded to — the fence against duplicate or
   reordered recalls. *)
type ledger = {
  mutable el_q_up : int;
  mutable el_q_down : int;
  mutable el_pending : int;
  mutable el_spent_up : int;
  mutable el_spent_down : int;
  mutable el_commits : int;
  mutable el_epoch : int;
}

(* Per-family escrow bookkeeping, resolved at root end. [fe_home] lists
   objects with a home reservation (one Escrow_commit resolution message
   each); [fe_local] the units drawn from the root node's delegated quota
   as [(oid, up units, down units, net delta)] rows — folded into the
   ledger at commit, returned to it at abort. A quota recall moves a
   row from [fe_local] to [fe_home] (the carried re-book). *)
type fam = {
  mutable fe_home : Oid.t list;
  mutable fe_local : (Oid.t * int * int * int) list;
}

type t = {
  env : env;
  params : Dsm.Escrow.params;
  ledgers : ledger Oid.Table.t array;  (* per node: object -> ledger *)
  fams : fam Txn_id.Table.t;
  (* home-side: objects with a quota recall in flight, mapped to the number
     of yields still outstanding — guards against re-bumping the epoch
     under an open recall (which would strand the stale yields' quota) and
     clears exactly when the recalled epoch's last yield lands. *)
  recalling : int Oid.Table.t;
  (* typed op log for [Serializability.check_escrow], newest first. *)
  mutable ops : Serializability.escrow_op list;
}

(* Escrow registration: an object whose class declares any commuting
   method carries an escrowed quantity at its home, seeded from the
   policy's bounds. *)
let create env (p : Dsm.Escrow.params) ~node_count catalog =
  List.iter
    (fun oid ->
      if
        List.exists
          (fun (m : Obj_class.compiled_method) -> Method_ir.commutes m.Obj_class.ir)
          (Obj_class.methods (Catalog.find catalog oid).Catalog.cls)
      then
        Gdo.Directory.register_escrow env.gdo oid ~lower:p.Dsm.Escrow.lower_bound
          ~upper:p.Dsm.Escrow.upper_bound ~initial:p.Dsm.Escrow.initial)
    (Catalog.oids catalog);
  {
    env;
    params = p;
    ledgers = Array.init node_count (fun _ -> Oid.Table.create 8);
    fams = Txn_id.Table.create 16;
    recalling = Oid.Table.create 8;
    ops = [];
  }

(* The ledgers and family records are created on demand. *)
let ledger t ~node oid =
  match Oid.Table.find_opt t.ledgers.(node) oid with
  | Some l -> l
  | None ->
      let l =
        {
          el_q_up = 0;
          el_q_down = 0;
          el_pending = 0;
          el_spent_up = 0;
          el_spent_down = 0;
          el_commits = 0;
          el_epoch = 0;
        }
      in
      Oid.Table.replace t.ledgers.(node) oid l;
      l

let fam_of t family =
  match Txn_id.Table.find_opt t.fams family with
  | Some fe -> fe
  | None ->
      let fe = { fe_home = []; fe_local = [] } in
      Txn_id.Table.replace t.fams family fe;
      fe

(* The op log replayed by [Serializability.check_escrow]. Node-side
   effects (local commits, reconcile sends, recall surrenders) are logged
   when the node's ledger changes; home-side effects (reservations,
   delegations, resolutions) when the home applies them. Until an
   in-flight reconcile or yield lands, the home's view is strictly more
   conservative than the log's, so every home admission is log-admissible. *)
let record_op t op = t.ops <- op :: t.ops

(* A control message to another node; at the same node, a direct call. *)
let send_or_call t ~mtype ~src ~dst ~oid f =
  if src = dst then f () else t.env.send ~mtype ~src ~dst ~oid f

(* Home receipt of a yield: reconcile, zero the node's quota, re-book the
   carried family units as home reservations, evict waiters whose wait now
   closes a cycle through a carried family (they get the usual deadlock
   refusal), and deliver any promoted grants. *)
let home_yield t ~home ~oid ~node ~epoch ~delta ~used_up ~used_down ~carried =
  let env = t.env in
  Sim.Engine.schedule env.engine ~delay:Config.gdo_op_us (fun () ->
      let deliveries, victims =
        Gdo.Directory.escrow_yield env.gdo oid ~node ~epoch ~delta ~used_up ~used_down ~carried
      in
      (match Oid.Table.find_opt t.recalling oid with
      | Some n when n <= 1 -> Oid.Table.remove t.recalling oid
      | Some n -> Oid.Table.replace t.recalling oid (n - 1)
      | None -> ());
      List.iter (fun (family, node) -> env.refuse_waiter ~home ~oid ~family ~node) victims;
      List.iter (env.deliver_grant ~home) deliveries)

(* Node side of a quota recall: surrender everything. The unreconciled
   delta goes home as a final reconcile, the units still held by
   uncommitted families are carried over to become home reservations
   (their rows move from [fe_local] to [fe_home], so their resolutions
   travel to the home), and the ledger zeroes — the fast path misses until
   a later request re-delegates. *)
let node_yield t ~node ~home ~oid ~epoch =
  let env = t.env in
  let l = ledger t ~node oid in
  if epoch > l.el_epoch then begin
    l.el_epoch <- epoch;
    let carried = ref [] in
    Txn_id.Table.iter
      (fun f fe ->
        if Txn_tree.node_of env.tree f = node then
          match List.find_opt (fun (o, _, _, _) -> Oid.equal o oid) fe.fe_local with
          | Some (_, up, down, d) ->
              fe.fe_local <- List.filter (fun (o, _, _, _) -> not (Oid.equal o oid)) fe.fe_local;
              if not (List.exists (Oid.equal oid) fe.fe_home) then
                fe.fe_home <- oid :: fe.fe_home;
              carried := (f, up, down, d) :: !carried
          | None -> ())
      t.fams;
    let carried =
      List.sort (fun (a, _, _, _) (b, _, _, _) -> Txn_id.compare a b) !carried
    in
    let delta = l.el_pending and used_up = l.el_spent_up and used_down = l.el_spent_down in
    if delta <> 0 || used_up > 0 || used_down > 0 then
      record_op t (Serializability.E_reconcile { oid; node; delta; used_up; used_down });
    record_op t (Serializability.E_revoke { oid; node });
    List.iter
      (fun (f, up, down, _) ->
        if up > 0 then record_op t (Serializability.E_reserve { oid; family = f; delta = up });
        if down > 0 then
          record_op t (Serializability.E_reserve { oid; family = f; delta = -down }))
      carried;
    l.el_q_up <- 0;
    l.el_q_down <- 0;
    l.el_pending <- 0;
    l.el_spent_up <- 0;
    l.el_spent_down <- 0;
    l.el_commits <- 0;
    env.counters.escrow_yields <- env.counters.escrow_yields + 1;
    env.record_event (fun () -> Dsm.Event.Escrow_yield { oid; node; delta });
    let carried = List.map (fun (f, up, down, _) -> (f, up - down)) carried in
    send_or_call t ~mtype:Dsm.Wire.Escrow_yield ~src:node ~dst:home ~oid (fun () ->
        home_yield t ~home ~oid ~node ~epoch ~delta ~used_up ~used_down ~carried)
  end

(* Home side of a quota recall: bump the escrow epoch and ask every node
   holding delegated quota to surrender it. One recall runs at a time per
   object ([recalling] holds the outstanding yield count); nodes always
   answer a fresh-epoch recall, so the count reliably drains. A recall to
   the home itself is sent too, not called: it pays the local delivery
   delay. *)
let waiter_queued t ~home ~oid =
  let env = t.env in
  if Gdo.Directory.has_escrow env.gdo oid then begin
    let quotas = Gdo.Directory.escrow_quotas env.gdo oid in
    if quotas <> [] && not (Oid.Table.mem t.recalling oid) then begin
      Oid.Table.replace t.recalling oid (List.length quotas);
      let epoch = Gdo.Directory.escrow_begin_recall env.gdo oid in
      env.counters.escrow_recalls <- env.counters.escrow_recalls + 1;
      env.record_event (fun () ->
          Dsm.Event.Escrow_recall { oid; node = home; nodes = List.length quotas; epoch });
      List.iter
        (fun (n, _, _) ->
          env.send ~mtype:Dsm.Wire.Escrow_recall ~src:home ~dst:n ~oid (fun () ->
              node_yield t ~node:n ~home ~oid ~epoch))
        quotas
    end
  end

(* Home side of a slow-path escrow reservation: run the admission test,
   and on admission ride the reply with a quota top-up toward the policy's
   [local_quota] on the requested side — the delegation that makes later
   calls at that node commit with zero messages. *)
let home_reserve t ~home ~requester ~family ~oid ~delta ~want_up ~want_down
    (iv : (bool * int * int) Sim.Engine.Ivar.t) =
  let env = t.env in
  Sim.Engine.schedule env.engine ~delay:Config.gdo_op_us (fun () ->
      let result = Gdo.Directory.escrow_reserve env.gdo oid ~family ~node:requester ~delta in
      let admitted = result = Gdo.Directory.Escrow_admitted in
      env.record_event (fun () ->
          Dsm.Event.Escrow_reserve { oid; family; node = requester; delta; admitted });
      let gu, gd =
        if admitted then begin
          env.counters.escrow_reserves <- env.counters.escrow_reserves + 1;
          record_op t (Serializability.E_reserve { oid; family; delta });
          let gu, gd =
            (* No delegation while a recall is draining: an in-flight yield
               zeroes the node's directory rows wholesale, so units granted
               now would be silently dropped when it lands — and the node's
               later reconcile of them would underflow the quota ledger. *)
            if (want_up > 0 || want_down > 0) && not (Oid.Table.mem t.recalling oid) then
              Gdo.Directory.escrow_delegate env.gdo oid ~node:requester ~up:want_up
                ~down:want_down
            else (0, 0)
          in
          if gu > 0 || gd > 0 then begin
            env.counters.escrow_quota_units <- env.counters.escrow_quota_units + (gu + gd);
            record_op t (Serializability.E_delegate { oid; node = requester; up = gu; down = gd });
            env.record_event (fun () ->
                Dsm.Event.Escrow_delegate { oid; node = requester; up = gu; down = gd })
          end;
          (gu, gd)
        end
        else begin
          env.counters.escrow_refusals <- env.counters.escrow_refusals + 1;
          (0, 0)
        end
      in
      send_or_call t ~mtype:Dsm.Wire.Escrow_reply ~src:home ~dst:requester ~oid (fun () ->
          Sim.Engine.Ivar.fill iv (admitted, gu, gd)))

(* Fiber side of a slow-path reservation: one round trip to the home.
   Returns true when admitted; any delegated quota is installed into the
   node's ledger either way so a refused call still leaves the fast path
   armed for the next one. *)
let request t ~node ~family ~oid ~delta =
  let p = t.params in
  let l = ledger t ~node oid in
  let want_up = if delta > 0 then max 0 (p.Dsm.Escrow.local_quota - l.el_q_up) else 0 in
  let want_down = if delta < 0 then max 0 (p.Dsm.Escrow.local_quota - l.el_q_down) else 0 in
  let home = t.env.home_of oid in
  let iv = Sim.Engine.Ivar.create () in
  let epoch0 = l.el_epoch in
  send_or_call t ~mtype:Dsm.Wire.Escrow_request ~src:node ~dst:home ~oid (fun () ->
      home_reserve t ~home ~requester:node ~family ~oid ~delta ~want_up ~want_down iv);
  let admitted, gu, gd = Sim.Engine.Ivar.read iv in
  (* Epoch fence on the install: if a recall was processed while this fiber
     was blocked, the node has already yielded — its directory quota rows
     are wiped when that yield lands at the home, so installing the
     delegated units now would let the node spend quota the home no longer
     records (the next reconcile would underflow the quota ledger). Drop
     them; the admission itself is a home-side reservation and stays
     valid. *)
  if l.el_epoch = epoch0 then begin
    if gu > 0 then l.el_q_up <- l.el_q_up + gu;
    if gd > 0 then l.el_q_down <- l.el_q_down + gd
  end;
  if admitted then begin
    let fe = fam_of t family in
    if not (List.exists (Oid.equal oid) fe.fe_home) then fe.fe_home <- oid :: fe.fe_home
  end;
  admitted

(* The escrow commit path for a declared-commutative invocation: no lock,
   no page I/O — the method's effect is its unit delta, booked either
   against the node's delegated quota (fast path, zero messages) or as a
   home reservation (slow path, one round trip). The object is escrowed:
   its class declares this commuting method. The units are held by the
   family until the root resolves; aborts are family-level only
   (Config.validate excludes injected sub-retries with escrow on), so
   per-family tracking is exact. *)
let try_invoke t ~oid ~(cm : Obj_class.compiled_method) ~node ~family =
  Method_ir.commutes cm.Obj_class.ir
  && begin
       let delta = Method_ir.escrow_delta cm.Obj_class.ir in
       (* The body's statements still cost CPU; they just run against the
          escrowed quantity instead of pages. *)
       for _ = 1 to Method_ir.statement_count cm.Obj_class.ir do
         t.env.exec_statement ~node
       done;
       (* Ride out lock bursts instead of folding at the first refusal: a
          refused call that falls back grabs the write lock, which refuses
          the next reservation in turn — one statement-batch writer would
          cascade into escrow disabling itself on the hot account exactly
          when it matters. Bounded, so a real conflict still reaches the
          lock path (and its deadlock detection) quickly; each attempt
          re-checks the fast path first, since quota may have landed while
          we slept. *)
       let backoff_us = [ 100.0; 200.0; 400.0; 800.0; 1600.0 ] in
       let rec attempt backoffs =
         let l = ledger t ~node oid in
         let can_local = if delta > 0 then l.el_q_up >= delta else l.el_q_down >= -delta in
         if can_local then begin
           if delta > 0 then l.el_q_up <- l.el_q_up - delta
           else l.el_q_down <- l.el_q_down + delta;
           t.env.counters.escrow_local_commits <- t.env.counters.escrow_local_commits + 1;
           t.env.record_event (fun () ->
               Dsm.Event.Escrow_local_commit { oid; family; node; delta });
           let fe = fam_of t family in
           let up = max delta 0 and down = max (-delta) 0 in
           (match List.find_opt (fun (o, _, _, _) -> Oid.equal o oid) fe.fe_local with
           | Some (_, u, d, nd) ->
               fe.fe_local <-
                 (oid, u + up, d + down, nd + delta)
                 :: List.filter (fun (o, _, _, _) -> not (Oid.equal o oid)) fe.fe_local
           | None -> fe.fe_local <- (oid, up, down, delta) :: fe.fe_local);
           true
         end
         else if request t ~node ~family ~oid ~delta then true
         else
           match backoffs with
           | [] -> false
           | wait :: rest ->
               Sim.Engine.wait wait;
               attempt rest
       in
       attempt backoff_us
     end

(* Push a node ledger's unreconciled local commits home: one message, the
   home folds the net delta in and retires the spent quota units. Called
   when the batch threshold is reached and at end of run. *)
let send_reconcile t ~node oid l =
  let env = t.env in
  let delta = l.el_pending and used_up = l.el_spent_up and used_down = l.el_spent_down in
  if delta <> 0 || used_up > 0 || used_down > 0 then begin
    let commits = l.el_commits in
    record_op t (Serializability.E_reconcile { oid; node; delta; used_up; used_down });
    l.el_pending <- 0;
    l.el_spent_up <- 0;
    l.el_spent_down <- 0;
    l.el_commits <- 0;
    env.counters.escrow_reconciles <- env.counters.escrow_reconciles + 1;
    env.record_event (fun () -> Dsm.Event.Escrow_reconcile { oid; node; delta; commits });
    let home = env.home_of oid in
    let apply () =
      Sim.Engine.schedule env.engine ~delay:Config.gdo_op_us (fun () ->
          Gdo.Directory.escrow_reconcile env.gdo oid ~node ~delta ~used_up ~used_down)
    in
    send_or_call t ~mtype:Dsm.Wire.Escrow_reconcile ~src:node ~dst:home ~oid apply
  end

(* Root-resolution half of escrow. On commit the family's fast-path holds
   become the node's zero-message local commits (folded into the ledger,
   reconciled home lazily in batches); on abort the drawn units simply
   return to the delegated quota. Home-side reservations get one
   resolution message per object either way, so the home folds (or drops)
   the family's row and promotes any queued waiters. *)
let resolve_family t root ~node ~commit =
  let env = t.env in
  match Txn_id.Table.find_opt t.fams root with
  | None -> ()
  | Some fe ->
      Txn_id.Table.remove t.fams root;
      let local = List.sort (fun (a, _, _, _) (b, _, _, _) -> Oid.compare a b) fe.fe_local in
      List.iter
        (fun (oid, up, down, nd) ->
          let l = ledger t ~node oid in
          if commit then begin
            (* Two checker ops when the family held units on both sides, so
               the replayed quota spend matches the reconcile report. *)
            if up > 0 then begin
              l.el_spent_up <- l.el_spent_up + up;
              record_op t (Serializability.E_local_commit { oid; node; delta = up })
            end;
            if down > 0 then begin
              l.el_spent_down <- l.el_spent_down + down;
              record_op t (Serializability.E_local_commit { oid; node; delta = -down })
            end;
            l.el_pending <- l.el_pending + nd;
            l.el_commits <- l.el_commits + 1;
            if l.el_commits >= t.params.Dsm.Escrow.reconcile_every then
              send_reconcile t ~node oid l
          end
          else begin
            l.el_q_up <- l.el_q_up + up;
            l.el_q_down <- l.el_q_down + down
          end)
        local;
      List.iter
        (fun oid ->
          let home = env.home_of oid in
          let resolve () =
            Sim.Engine.schedule env.engine ~delay:Config.gdo_op_us (fun () ->
                let deliveries =
                  if commit then Gdo.Directory.escrow_commit env.gdo oid ~family:root
                  else Gdo.Directory.escrow_abort env.gdo oid ~family:root
                in
                record_op t
                  (if commit then Serializability.E_commit { oid; family = root }
                   else Serializability.E_abort { oid; family = root });
                List.iter (env.deliver_grant ~home) deliveries)
          in
          send_or_call t ~mtype:Dsm.Wire.Escrow_commit ~src:node ~dst:home ~oid resolve)
        (List.sort Oid.compare fe.fe_home)

(* End-of-run flush: every node ledger pushes its last partial batch home,
   so the run ends with no unreconciled deltas (the checker's end
   condition) and the homes report true final quantities. *)
let flush t =
  Array.iteri
    (fun node ledgers ->
      Oid.Table.fold (fun oid l acc -> (oid, l) :: acc) ledgers []
      |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
      |> List.iter (fun (oid, l) -> send_reconcile t ~node oid l))
    t.ledgers

let check t =
  let p = t.params in
  Serializability.check_escrow ~lower:p.Dsm.Escrow.lower_bound ~upper:p.Dsm.Escrow.upper_bound
    ~initial:p.Dsm.Escrow.initial ~ops:(List.rev t.ops)
