open Objmodel
open Txn

exception Family_abort
(* Raised inside a family's fiber to unwind the invocation stack when the
   family must abort (deadlock victim, or a sub-transaction out of retries).
   Every enclosing invocation aborts its own transaction and re-raises; the
   root driver catches it and retries the whole family with backoff. *)

exception Recursion_rejected of Oid.t
(* Raised (when recursive catalogs are admitted) by the run-time recursion
   check: the invocation chain revisited the object. Deterministic, so the
   root driver gives up immediately instead of retrying. *)

exception Crashed_abort
(* Raised inside a family's fiber when its executing node crashed under it.
   Unlike Family_abort, the unwinding performs no undo (the crash wipe
   already restored the node's pages to their durable versions; undoing
   would resurrect uncommitted data) and sends no global releases (the
   node cannot send; the family's directory residue is reclaimed when the
   node is declared dead). The root driver waits for the node to rejoin,
   then retries the family under a fresh identity. *)

type root_outcome = Committed | Gave_up

type root_result = {
  oid : Oid.t;
  meth : string;
  node : int;
  submitted_at : float;
  completed_at : float;
  attempts : int;
  outcome : root_outcome;
}

(* Network payloads are thunks executed at the destination when the message
   is delivered; all byte/kind/tag accounting happens at send time. *)
type msg = Exec of (unit -> unit)

(* Int-keyed tables for the per-message path: monomorphic hashing and no
   tuple allocation per lookup (the polymorphic Hashtbl versions built a
   fresh (int, Txn_id.t) pair for every find/replace/remove). *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x
end)

(* (object, family) packed into one int: object id in the high bits,
   family id — dense, monotonically assigned — in the low bits, so the
   identity hash above spreads buckets well. Object ids are bounded at
   [okey]'s first use per call; family ids cannot reach 2^42 in any
   feasible run. *)
let okey oid family =
  let o = Oid.to_int oid in
  if o >= 1 lsl 20 then invalid_arg "Runtime: object id exceeds the 2^20 key space";
  (o lsl 42) lor Txn_id.to_int family

type refusal =
  | Busy
  | Deadlock of Txn_id.t list
  | Crashed
      (* The operation was disrupted by a crash: the home (or requester)
         crashed under it, or the reliable transport exhausted its
         retransmit budget. The requester aborts the family and retries;
         a doomed requester unwinds with Crashed_abort instead. *)

(* A grant reply, with the lease the home attached to it when the lease
   policy admits one: (expires, epoch). The lease rides inside the grant's
   control message at no extra byte cost (two scalar fields in an
   already-sized message). *)
type reply = (Gdo.Directory.grant * (float * int) option, refusal) result

(* One outstanding page fetch (one source-node group of a fetch_groups
   call), registered so crash handling can fail it instead of letting the
   fetching fiber block forever: a crash of the source node, of the
   fetching node, or a transport give-up on either leg fills [fw_iv]. *)
type fetch_wait = {
  fw_iv : unit Sim.Engine.Ivar.t;
  fw_family : Txn_id.t;
  fw_src : int;
  mutable fw_failed : bool;
}

(* Outcome of a function-shipped invocation, carried home by Ship_reply (or
   synthesised by crash handling when the reply cannot arrive). *)
type ship_outcome =
  | Ship_ok  (* the child precommitted into the family *)
  | Ship_aborted  (* the child aborted out of retries: Family_abort *)
  | Ship_recursion of Oid.t  (* run-time recursion check fired at the site *)
  | Ship_crashed  (* a crash (or transport give-up) broke the round trip *)

(* One invoker fiber blocked on a Ship_reply, registered so crash handling
   can fail it instead of letting it block forever. *)
type ship_wait = {
  sw_iv : ship_outcome Sim.Engine.Ivar.t;
  sw_family : Txn_id.t;
  sw_site : int;
}

(* Per-family function-shipping state. [pins] fixes each invoked object's
   execution site at the family's first dispatch on it, so every later
   invocation in the family runs at the same site (one site per (family,
   object) keeps the local lock inheritance chain well-formed).
   [exec_sites] lists every node the family has executed at — the root's
   node plus each site a Ship_invoke was delivered to — with the node's
   incarnation at registration: commit/abort/purge iterate it for lock
   release, crash entry dooms the family when a member crashes, and the
   purge paths restore parked undo state only at sites whose incarnation
   is unchanged (a crashed site's wipe already discarded the writes). *)
type ship_state = {
  pins : int Oid.Table.t;
  mutable exec_sites : (int * int) list;
}

(* A transaction's access log: the page versions it read and wrote itself,
   newest first, and the whole logs of its precommitted children, spliced
   in at precommit without copying an entry. *)
type access_log = {
  mutable al_reads : Serializability.access list;
  mutable al_writes : Serializability.access list;
  mutable al_spliced : access_log list;
}

type t = {
  cfg : Config.t;
  catalog : Catalog.t;
  engine : Sim.Engine.t;
  net : msg Sim.Network.t;
  tree : Txn_tree.t;
  gdo : Gdo.Directory.t;
  stores : Dsm.Page_store.t array;
  locks : Local_locks.t array;
  metrics : Dsm.Metrics.t;
  counters : Dsm.Metrics.totals;  (* the live record inside [metrics] *)
  mutable next_version : int;
  (* Deferred GDO grants: (object, family) -> ivar of the blocked acquire. *)
  pending : reply Sim.Engine.Ivar.t Itbl.t;
  (* Global acquires in flight, to serialise racing acquires (main fiber vs
     prefetch fibers) by the same family on the same object. *)
  inflight : reply Sim.Engine.Ivar.t Itbl.t;
  (* Acquisition-time page transfers in flight: with optimistic
     pre-acquisition, a child can be granted the lock locally while the
     prefetch fiber's pages are still on the wire; every grant path awaits
     this before the method body may touch the object. *)
  transfers : unit Sim.Engine.Ivar.t Itbl.t;
  (* Family grant snapshots: the page map each family received for each
     object it holds; consulted for staleness checks and demand fetches. *)
  snapshots : Gdo.Directory.grant Oid.Table.t Txn_id.Table.t;
  undo_logs : Undo_log.t Txn_id.Table.t;
  (* object each transaction's method executes on; used by the run-time
     recursion check. *)
  txn_objects : Oid.t Txn_id.Table.t;
  access_logs : access_log Txn_id.Table.t;
  mutable history : Serializability.committed_root list;
  mutable results : root_result list;
  mutable outstanding : int;
  mutable ran : bool;
  trace : Dsm.Event.t Sim.Trace.t option;
  cpus : Sim.Engine.Semaphore.t array option;  (* one CPU per node when cpu_limited *)
  (* Reliable transport over the faulty interconnect (active only when the
     config carries an active fault model): every remote protocol message is
     sequence-numbered, acknowledged by the receiver's transport, deduplicated
     at the receiver, and retransmitted by the sender with exponential backoff
     while unacknowledged. *)
  reliable : bool;
  mutable next_mid : int;
  acked : unit Itbl.t;  (* at the sender: mids known delivered *)
  seen : unit Itbl.t;  (* at receivers: mids whose effect already ran *)
  (* Message-combining layer (see Dsm.Batching). [batch_acks] arms ack
     piggybacking (batching on AND reliable transport active — without
     faults there are no transport acks to combine). Everything here is
     inert when batching is off, keeping batching-off runs byte-identical
     to the pre-batching runtime. *)
  batching : bool;
  batch_acks : bool;
  (* (acking node, original sender) channel -> mids whose transport ack is
     deferred to ride the channel's next payload (or its flush timer). *)
  pending_acks : (int * int, int list ref) Hashtbl.t;
  ack_flush_armed : (int * int, unit) Hashtbl.t;
  (* (releasing node, home) -> per-family release batches parked for the
     coalescing flush, combined into a single Release message. *)
  pending_releases :
    (int * int, (Txn_id.t * (Oid.t * (int * int * int) list) list) list ref) Hashtbl.t;
  release_flush_armed : (int * int, unit) Hashtbl.t;
  (* Read-lease subsystem (see Gdo.Lease). All four fields are inert when
     [lease_enabled] is false — the default — keeping fault-free runs
     byte-identical to the pre-lease runtime. *)
  lease_enabled : bool;
  lease_mgr : Gdo.Lease.t;  (* home-side manager (homes share the process) *)
  lease_caches : Gdo.Lease.Cache.cache array;  (* node-side, one per node *)
  (* family -> objects whose read lock is lease-backed (invisible to the
     directory), each mapped to the nodes whose lease caches back it (the
     family's node; with function shipping, possibly several execution
     sites): released locally at those nodes, validated at commit and at
     upgrade. *)
  lease_reads : int list Oid.Table.t Txn_id.Table.t;
  (* home-side: write acquisitions parked behind an in-progress lease
     recall, keyed by object; drained FIFO when the recall clears. *)
  lease_blocked : (unit -> unit) Queue.t Itbl.t;
  (* object -> simulated time its in-progress recall was issued; feeds the
     recall-to-clear latency histogram. *)
  recall_started : float Itbl.t;
  (* Method-result cache (see Dsm.Method_cache): per-node caches of
     read-only invocation read logs, consulted at invocation entry when the
     node's lease on the object is valid, invalidated through the lease
     caches' on_invalidate hooks. Inert when [cache_enabled] is false —
     the default — keeping cache-off runs byte-identical. *)
  cache_enabled : bool;
  method_caches : Dsm.Method_cache.t array;
  (* Crash-recovery subsystem. Everything below is inert when
     [crash_enabled] is false — no crash windows configured — keeping
     crash-free runs byte-identical to the pre-recovery runtime. *)
  crash_enabled : bool;
  crashed : bool array;  (* node -> currently inside a crash window *)
  (* node -> the durable commit record: each page's newest version a
     family committed there, which a crash of the node keeps (its release
     may not have reached the page map yet). *)
  committed : Dsm.Page_store.t array;
  (* node -> releases that could not leave while the node was down,
     newest first; sent again at its rejoin. *)
  parked_releases : (Txn_id.t * (Oid.t * (int * int * int) list) list) list array;
  (* Root families whose executing node crashed under them: their fibers
     unwind with Crashed_abort at the next choke point and their directory
     residue is reclaimed at dead declaration. Never cleared — family ids
     are never reused, so doom is a permanent fence against stragglers. *)
  doomed : unit Txn_id.Table.t;
  (* Root families currently executing an attempt (registered at attempt
     start, dropped at attempt end): the set a crash entry dooms. *)
  live_roots : unit Txn_id.Table.t;
  rejoin : unit Sim.Engine.Ivar.t option array;  (* filled at window end *)
  (* Quorum membership (see Membership): installed exactly when
     [crash_enabled], once [create] has built the runtime. *)
  mutable membership : Membership.t option;
  (* Per-node decorrelated-jitter retransmit streams (see Sim.Backoff);
     draw nothing unless a retransmit timer actually fires. *)
  backoffs : Sim.Backoff.t array;
  mutable fetch_waits : fetch_wait list;
  (* Function-shipping subsystem (see Dsm.Shipping). Everything below is
     inert when [ship_enabled] is false — the default — keeping
     shipping-off runs byte-identical to the data-shipping runtime. *)
  ship_enabled : bool;
  ship_params : Dsm.Shipping.params option;  (* Some iff [ship_enabled] *)
  ship_states : ship_state Txn_id.Table.t;  (* family -> pins + exec sites *)
  (* owner transaction -> undo state parked by its function-shipped
     descendants, one undo log per remote execution site. A shipped
     child cannot merge its log into a parent executing elsewhere — the
     pre-images belong to the site's store — so precommit parks it here
     (and promotes parked entries up the chain), until root commit drops
     them or an abort replays them site by site. *)
  parked_logs : (int * Undo_log.t) list ref Txn_id.Table.t;
  mutable ship_waits : ship_wait list;
  (* The escrow layer (see Escrow_layer): installed only when the escrow
     policy is on, once [create] has registered every object. *)
  mutable escrow : Escrow_layer.t option;
}

let config t = t.cfg
let catalog t = t.catalog
let engine t = t.engine
let metrics t = t.metrics
let directory t = t.gdo
let store t ~node = t.stores.(node)
let trace t = t.trace

(* The thunk keeps event construction off the tracing-off path entirely:
   with no ring configured, no allocation or formatting happens at all. *)
let record_event t ev =
  match t.trace with
  | None -> ()
  | Some tr -> Sim.Trace.record tr ~time:(Sim.Engine.now t.engine) (ev ())

(* Wire a node's method cache to its lease cache's invalidation hook: a
   lease recall, expiry or epoch-superseding re-grant wipes the object's
   cached method results. Only drops are counted — retransmitted recalls
   find nothing and stay invisible. Must be re-called whenever the node's
   lease cache is replaced (crash wipe), since the subscription lives in
   the lease cache. *)
let register_cache_invalidation t ~node =
  Gdo.Lease.Cache.set_on_invalidate t.lease_caches.(node) (fun oid ->
      let dropped = Dsm.Method_cache.invalidate_object t.method_caches.(node) oid in
      if dropped > 0 then begin
        t.counters.cache_invalidations <- t.counters.cache_invalidations + dropped;
        record_event t (fun () ->
            Dsm.Event.Cache_invalidate { oid = Some oid; node; entries = dropped })
      end)

(* Statement execution holds the node's CPU when the CPU-limited model is
   on; waits for locks, pages and messages never do. *)
let exec_statement t ~node =
  match t.cpus with
  | None -> Sim.Engine.wait t.cfg.Config.statement_us
  | Some cpus ->
      Sim.Engine.Semaphore.with_permit cpus.(node) (fun () ->
          Sim.Engine.wait t.cfg.Config.statement_us)

(* An object's partition is fixed (oid mod node_count); the node serving
   it is the partition's acting home — the home itself except while a
   quorum holds it dead and a replica has taken over (see Membership). *)
let home_of t oid =
  let p = Oid.to_int oid mod t.cfg.Config.node_count in
  match t.membership with None -> p | Some m -> Membership.home_of m p

let incarnation t node =
  match t.membership with None -> 0 | Some m -> Membership.incarnation m node

let is_doomed t family = t.crash_enabled && Txn_id.Table.mem t.doomed family

(* Choke-point check: a fiber of a doomed family must stop mutating state
   (its node's stores and caches were wiped from under it) and must not
   start new blocking operations (its sends are suppressed). Called at
   method-statement boundaries and before page fetches. *)
let check_crashed t ~txn_root =
  if is_doomed t txn_root then raise Crashed_abort

(* Per-class protocol override (paper section 6 future work), looked up
   on every access; with no overrides configured it is the global
   protocol. *)
let protocol_for t oid =
  match t.cfg.Config.class_protocols with
  | [] -> t.cfg.Config.protocol
  | overrides -> (
      let cls_name = Obj_class.name (Catalog.find t.catalog oid).Catalog.cls in
      match List.assoc_opt cls_name overrides with
      | Some p -> p
      | None -> t.cfg.Config.protocol)

(* ------------------------------------------------------------------ *)
(* Message combining (see [Dsm.Batching]): deferred transport acks ride
   the channel's next payload and releases coalesce per home. All of it
   is inert when the policy is off.                                    *)

let take_pending_acks t ~src ~dst =
  match Hashtbl.find_opt t.pending_acks (src, dst) with
  | None -> []
  | Some q ->
      let mids = List.rev !q in
      q := [];
      mids

(* Attach the channel's pending transport acks to an outgoing payload: the
   carrier grows by the riders' bytes and its delivery additionally marks
   the ridden mids acknowledged at the original sender. Riders are
   accounted as 0-message/+bytes ledger entries (see
   [Metrics.record_rider]) so both reconciliation invariants keep holding
   exactly. *)
let attach_ack_riders t ~src ~dst f =
  if not t.batch_acks then (0, f)
  else
    match take_pending_acks t ~src ~dst with
    | [] -> (0, f)
    | mids ->
        let k = List.length mids in
        let bytes = k * Dsm.Batching.ack_rider_bytes in
        t.counters.acks_piggybacked <- t.counters.acks_piggybacked + k;
        Dsm.Metrics.record_rider t.metrics ~mtype:Dsm.Wire.Ack ~count:k ~bytes;
        record_event t (fun () -> Dsm.Event.Ack_piggyback { src; dst; acks = k });
        ( bytes,
          fun () ->
            List.iter (fun mid -> Itbl.replace t.acked mid ()) mids;
            f () )

(* Remote-send bookkeeping shared by [send_exec] and the reliable
   transport's (re)transmit path: the per-type ledger entry records the
   carrier's own bytes, pending acks ride along as accounted riders, and
   membership notes the traffic for heartbeat suppression. *)
let wire_send t ~mtype ~src ~dst ~bytes ~tag f =
  Dsm.Metrics.record_wire t.metrics ~mtype ~bytes;
  let rider_bytes, f = attach_ack_riders t ~src ~dst f in
  (match t.membership with Some m -> Membership.note_traffic m ~src ~dst | None -> ());
  Sim.Network.send t.net ~src ~dst ~kind:(Dsm.Wire.kind mtype) ~bytes:(bytes + rider_bytes) ~tag
    (Exec f)

(* Same-node sends bypass the network's [on_message] hook, so they are
   excluded here too — the wire ledger must reconcile exactly with the
   per-object ledger that hook feeds. A crashed node sends nothing: the
   suppression sits before both accounting hooks, so the two ledgers stay
   reconciled. *)
let send_exec t ~mtype ~src ~dst ~bytes ~tag f =
  if not (t.crash_enabled && t.crashed.(src)) then begin
    if src = dst then
      Sim.Network.send t.net ~src ~dst ~kind:(Dsm.Wire.kind mtype) ~bytes ~tag (Exec f)
    else wire_send t ~mtype ~src ~dst ~bytes ~tag f
  end

(* Flush timer: the channel saw no payload within [ack_flush_us] of its
   first deferred ack, so one standalone Ack carries the whole backlog.
   [ack_flush_us] sits well below the retransmit timeout (validated in
   [Config]), so the original senders never time out waiting for a
   deferred ack. The extra acks beyond the first are accounted as riders
   on the flush message. *)
let flush_acks t ~src ~dst =
  Hashtbl.remove t.ack_flush_armed (src, dst);
  match take_pending_acks t ~src ~dst with
  | [] -> ()
  | mids ->
      let k = List.length mids in
      t.counters.acks_flushed <- t.counters.acks_flushed + k;
      if k > 1 then
        Dsm.Metrics.record_rider t.metrics ~mtype:Dsm.Wire.Ack ~count:(k - 1) ~bytes:0;
      record_event t (fun () -> Dsm.Event.Ack_flush { src; dst; acks = k });
      let bytes =
        t.cfg.Config.control_msg_bytes
        + ((k - 1) * Dsm.Batching.ack_rider_bytes)
      in
      send_exec t ~mtype:Dsm.Wire.Ack ~src ~dst ~bytes ~tag:(-1)
        (fun () -> List.iter (fun mid -> Itbl.replace t.acked mid ()) mids)

(* Receiver side of ack piggybacking: park the ack of [mid] on the reverse
   channel, arming its flush timer on first use. *)
let queue_ack t ~src ~dst mid =
  if not (t.crash_enabled && t.crashed.(src)) then begin
    let key = (src, dst) in
    let q =
      match Hashtbl.find_opt t.pending_acks key with
      | Some q -> q
      | None ->
          let q = ref [] in
          Hashtbl.add t.pending_acks key q;
          q
    in
    q := mid :: !q;
    if not (Hashtbl.mem t.ack_flush_armed key) then begin
      Hashtbl.replace t.ack_flush_armed key ();
      Sim.Engine.schedule t.engine ~delay:Dsm.Batching.ack_flush_us (fun () ->
          flush_acks t ~src ~dst)
    end
  end

let tag_of oid = Oid.to_int oid

(* Reliable delivery of one protocol message over the faulty interconnect.
   The message gets a fresh sequence number; its delivery thunk first sends a
   transport-level ack back (re-acking on every delivery, since a previous
   ack may itself have been lost), then runs the effect at most once — the
   receiver's [seen] table absorbs injected duplicates and retransmissions.
   The sender retransmits until acked or out of attempts, on a capped
   decorrelated-jitter backoff timer ({!Sim.Backoff}): roughly exponential
   growth, clamped so a long partition cannot push the retry far past its
   heal, and drawn from a per-node stream so synchronized losers do not
   retry in lockstep. Without an active fault model this is exactly [send_exec]:
   no acks, no timers, no accounting difference.

   [on_abandon] runs when the transport stops trying before the message
   was acknowledged: the retransmit budget ran out (a counted give-up,
   reported to the sender's failure detector as a suspect hint), or the
   sender crashed and its unacked transport state was discarded. Callers
   use it to fail the blocked operation instead of stalling the engine. *)
let send_reliable ?(on_abandon = fun () -> ()) t ~mtype ~src ~dst ~bytes ~tag f =
  if (not t.reliable) || src = dst then send_exec t ~mtype ~src ~dst ~bytes ~tag f
  else begin
    t.next_mid <- t.next_mid + 1;
    let mid = t.next_mid in
    let inc0 = incarnation t src in
    let deliver () =
      (if t.batch_acks then queue_ack t ~src:dst ~dst:src mid
       else
         send_exec t ~mtype:Dsm.Wire.Ack ~src:dst ~dst:src
           ~bytes:t.cfg.Config.control_msg_bytes ~tag:(-1)
           (fun () -> Itbl.replace t.acked mid ()));
      if not (Itbl.mem t.seen mid) then begin
        Itbl.add t.seen mid ();
        f ()
      end
    in
    (* Retransmitted copies are charged under the original message type, one
       ledger entry per transmission — matching [on_message], which fires on
       every copy put on the wire. *)
    let transmit () = wire_send t ~mtype ~src ~dst ~bytes ~tag deliver in
    let rec arm attempt timeout =
      let sent = Sim.Engine.now t.engine in
      Sim.Engine.schedule t.engine ~delay:timeout (fun () ->
          if not (Itbl.mem t.acked mid) then begin
            if t.crash_enabled && (t.crashed.(src) || incarnation t src <> inc0) then
              (* The sender crashed since this message was sent: its unacked
                 transport state is gone. Fail the blocked operation quietly
                 (its family is doomed anyway) — no timeout accounting for a
                 timer that no longer exists. *)
              on_abandon ()
            else begin
              t.counters.timeouts <- t.counters.timeouts + 1;
              if attempt < t.cfg.Config.max_retransmits then begin
                t.counters.retransmits <- t.counters.retransmits + 1;
                record_event t (fun () ->
                    Dsm.Event.Retransmit
                      { mid; src; dst; attempt = attempt + 1; abandoned = false });
                transmit ();
                arm (attempt + 1) (Sim.Backoff.next t.backoffs.(src) ~prev_us:timeout)
              end
              else begin
                (* Give up: count it, hint the sender's failure detector
                   (exhausting the budget is strong evidence the peer is
                   unreachable, unless it was heard from after the last
                   copy left), and fail the blocked operation — the engine
                   never hangs on an abandoned message. *)
                t.counters.give_ups <- t.counters.give_ups + 1;
                (match t.membership with
                | Some m -> Membership.hint m ~observer:src ~node:dst ~sent
                | None -> ());
                record_event t (fun () ->
                    Dsm.Event.Retransmit { mid; src; dst; attempt; abandoned = true });
                on_abandon ()
              end
            end
          end)
    in
    transmit ();
    arm 0 t.cfg.Config.request_timeout_us
  end

(* ------------------------------------------------------------------ *)
(* Per-transaction bookkeeping.                                        *)

let init_txn_state t txn =
  Txn_id.Table.replace t.undo_logs txn (Undo_log.create ());
  Txn_id.Table.replace t.access_logs txn { al_reads = []; al_writes = []; al_spliced = [] }

let undo_log_of t txn = Txn_id.Table.find t.undo_logs txn
let access_log t txn = Txn_id.Table.find t.access_logs txn

(* Every entry of [log] and of the logs spliced into it, in no particular
   order; [pick] chooses the reads or the writes. *)
let rec log_entries pick log acc =
  List.fold_left
    (fun acc kid -> log_entries pick kid acc)
    (List.rev_append (pick log) acc)
    log.al_spliced

let drop_txn_state t txn =
  Txn_id.Table.remove t.undo_logs txn;
  Txn_id.Table.remove t.txn_objects txn;
  Txn_id.Table.remove t.access_logs txn

let family_snapshots t family =
  match Txn_id.Table.find_opt t.snapshots family with
  | Some tbl -> tbl
  | None ->
      let tbl = Oid.Table.create 8 in
      Txn_id.Table.add t.snapshots family tbl;
      tbl

let snapshot t ~family ~oid =
  match Oid.Table.find_opt (family_snapshots t family) oid with
  | Some g -> g
  | None ->
      invalid_arg
        (Format.asprintf "Runtime: family %a has no grant snapshot for %a" Txn_id.pp family
           Oid.pp oid)

let set_snapshot t ~family ~oid grant = Oid.Table.replace (family_snapshots t family) oid grant

(* ------------------------------------------------------------------ *)
(* GDO interaction (Algorithms 4.2 and 4.4, message side).             *)

let grant_bytes t pages = t.cfg.Config.control_msg_bytes + (pages * Config.page_map_entry_bytes)

(* Deliver a reply from the GDO home to the acquiring site. *)
let reply_from_home t ~home ~dst ~oid (iv : reply Sim.Engine.Ivar.t) (r : reply) =
  let deliver () =
    (* Under the faulty network a grant can legitimately be re-delivered
       (retransmitted reply racing its original); drop the re-delivery. On
       the reliable network a double fill is a protocol bug and still
       raises. *)
    if t.reliable && Sim.Engine.Ivar.is_filled iv then ()
    else Sim.Engine.Ivar.fill iv r
  in
  if home = dst then Sim.Engine.schedule t.engine ~delay:Sim.Network.local_delivery_cost_us deliver
  else
    let mtype, bytes =
      match r with
      | Ok (g, _) ->
          (Dsm.Wire.Grant, grant_bytes t (Array.length g.Gdo.Directory.g_page_nodes))
      | Error _ -> (Dsm.Wire.Refusal, t.cfg.Config.control_msg_bytes)
    in
    (* An abandoned reply unblocks the requester with a Crashed refusal:
       the family aborts, defensively releases the (possibly granted) lock
       and retries — rather than waiting forever on a reply that will
       never land. *)
    let on_abandon () =
      if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv (Error Crashed)
    in
    send_reliable ~on_abandon t ~mtype ~src:home ~dst ~bytes ~tag:(tag_of oid) deliver

(* Ship a directory mutation to the partition's replicas (paper §4.1: the
   GDO is "partitioned and replicated"). Asynchronous and fire-and-forget:
   only the traffic cost is modelled, so these stay best-effort even under
   fault injection — a lost replica update loses nothing the simulation
   tracks: the directory is shared in-process, and on failover the
   successor re-confirms the partition's holders
   ([send_failover_confirms]). *)
let replicate_gdo_update t ~home ~oid =
  let n = t.cfg.Config.node_count in
  for i = 1 to t.cfg.Config.gdo_replicas do
    let replica = (home + i) mod n in
    if replica <> home then
      send_exec t ~mtype:Dsm.Wire.Gdo_replica ~src:home ~dst:replica
        ~bytes:t.cfg.Config.control_msg_bytes ~tag:(tag_of oid)
        (fun () -> ())
  done

(* ------------------------------------------------------------------ *)
(* Read leases (Gdo.Lease): home-side recall machinery and node-side
   cache handlers. Everything here is dead code when the lease policy is
   Off.                                                                 *)

(* Run the write acquisitions parked behind an object's recall, in arrival
   order — the first (the excluded writer) reaches the directory first and
   is therefore the first granted. *)
let drain_lease_blocked t ~oid =
  match Itbl.find_opt t.lease_blocked (Oid.to_int oid) with
  | None -> ()
  | Some q ->
      Itbl.remove t.lease_blocked (Oid.to_int oid);
      Queue.iter (fun k -> k ()) q

(* Executed at the GDO home when a Lease_yield arrives. *)
(* The recall latency span closes here (last yield) or at the TTL
   force-clear — whichever resolves the recall. *)
let note_recall_resolved t ~oid =
  match Itbl.find_opt t.recall_started (Oid.to_int oid) with
  | None -> ()
  | Some t0 ->
      Itbl.remove t.recall_started (Oid.to_int oid);
      Dsm.Metrics.record_recall_latency_us t.metrics (Sim.Engine.now t.engine -. t0)

let process_lease_yield t ~oid ~node =
  Sim.Engine.schedule t.engine ~delay:Config.gdo_op_us (fun () ->
      t.counters.lease_yields <- t.counters.lease_yields + 1;
      match Gdo.Lease.note_yield t.lease_mgr oid ~node with
      | `Cleared ->
          record_event t (fun () ->
              Dsm.Event.Lease_recall_cleared { oid; node = home_of t oid });
          note_recall_resolved t ~oid;
          drain_lease_blocked t ~oid
      | `Waiting | `Stale -> ())

(* Node-side: surrender a recalled lease. Rides the reliable transport so a
   yield survives fault injection (a lost yield is backstopped by the home's
   TTL force-clear timer either way). *)
let send_lease_yield t ~node ~oid =
  let home = home_of t oid in
  record_event t (fun () -> Dsm.Event.Lease_yield { oid; node });
  let run () = process_lease_yield t ~oid ~node in
  if home = node then
    Sim.Engine.schedule t.engine ~delay:Sim.Network.local_delivery_cost_us run
  else
    send_reliable t ~mtype:Dsm.Wire.Lease_yield ~src:node ~dst:home
      ~bytes:t.cfg.Config.control_msg_bytes ~tag:(tag_of oid) run

(* Executed at a leased node when a Lease_recall arrives. *)
let handle_lease_recall t ~node ~oid ~epoch ~excluded =
  match Gdo.Lease.Cache.recall t.lease_caches.(node) oid ~epoch ~excluded with
  | `Yield -> send_lease_yield t ~node ~oid
  | `Deferred ->
      record_event t (fun () ->
          Dsm.Event.Lease_deferred
            { oid; node; readers = Gdo.Lease.Cache.reader_count t.lease_caches.(node) oid })

(* Start recalling an object's outstanding leases on behalf of a blocked
   write by [excluded]. Arms the TTL force-clear timer that guarantees the
   write is eventually admitted even if yields are lost or a lease-backed
   reader is entangled in a cross-object deadlock the home cannot see. *)
let start_lease_recall t ~home ~oid ~excluded =
  let now = Sim.Engine.now t.engine in
  match Gdo.Lease.begin_recall t.lease_mgr oid ~now ~excluded with
  | `Clear -> `Clear
  | `In_progress -> `Parked
  | `Recall { Gdo.Lease.ro_nodes; ro_epoch; ro_deadline; ro_token } ->
      t.counters.lease_recalls <- t.counters.lease_recalls + List.length ro_nodes;
      record_event t (fun () ->
          Dsm.Event.Lease_recall
            { oid; node = home; nodes = List.length ro_nodes; epoch = ro_epoch });
      Itbl.replace t.recall_started (Oid.to_int oid) now;
      List.iter
        (fun node ->
          let deliver () = handle_lease_recall t ~node ~oid ~epoch:ro_epoch ~excluded in
          if node = home then
            Sim.Engine.schedule t.engine ~delay:Sim.Network.local_delivery_cost_us deliver
          else
            send_reliable t ~mtype:Dsm.Wire.Lease_recall ~src:home ~dst:node
              ~bytes:t.cfg.Config.control_msg_bytes
              ~tag:(tag_of oid) deliver)
        ro_nodes;
      (* The force-clear backstop. A single timer at ro_deadline would keep
         the engine alive for a whole TTL after the last root finishes (the
         engine runs until its event queue drains and there is no
         cancellation), so instead poll with exponential backoff: each poll
         stands down as soon as the recall token no longer matches — the
         normal case, yields clear a recall in a couple of RTTs — and only
         a recall still pending at ro_deadline is force-cleared. *)
      let rec arm_force_clear ~delay =
        Sim.Engine.schedule t.engine ~delay (fun () ->
            if Gdo.Lease.recall_token t.lease_mgr oid = Some ro_token then begin
              if Sim.Engine.now t.engine >= ro_deadline then begin
                if Gdo.Lease.force_clear t.lease_mgr oid ~token:ro_token then begin
                  t.counters.lease_expiries <- t.counters.lease_expiries + 1;
                  record_event t (fun () -> Dsm.Event.Lease_expired { oid; node = home });
                  note_recall_resolved t ~oid;
                  drain_lease_blocked t ~oid
                end
              end
              else
                let remaining = ro_deadline -. Sim.Engine.now t.engine in
                arm_force_clear ~delay:(Float.min (2.0 *. delay) (remaining +. 1.0))
            end)
      in
      arm_force_clear ~delay:(Float.min 500.0 (Float.max (ro_deadline -. now) 0.0 +. 1.0));
      `Parked

(* Home-side, on every grant leaving the directory: attach a lease to read
   grants the policy admits; bump the object's write epoch on write grants
   (fencing every earlier lease and the readers admitted under them). *)
let attach_lease t ~oid ~node (g : Gdo.Directory.grant) =
  if not t.lease_enabled then None
  else if Lock.equal g.Gdo.Directory.g_mode Lock.Write then begin
    Gdo.Lease.note_write_granted t.lease_mgr oid;
    None
  end
  else begin
    let lease =
      Gdo.Lease.lease_for_grant t.lease_mgr oid ~node ~now:(Sim.Engine.now t.engine)
        ~writer_queued:(Gdo.Directory.has_queued_writer t.gdo oid)
    in
    (match lease with
    | Some (_, epoch) ->
        t.counters.lease_grants <- t.counters.lease_grants + 1;
        record_event t (fun () -> Dsm.Event.Lease_granted { oid; node; epoch })
    | None -> ());
    lease
  end

(* A family id whose attempt already ended: a request carrying it is a
   pre-crash (or pre-give-up) straggler — family ids are never reused, so
   Aborted is a permanent fence. Only reachable under the reliable
   transport; on the perfect network no message outlives its family. *)
let family_defunct t family =
  t.reliable && Txn_tree.status t.tree family = Txn_tree.Aborted

(* Directory half of an acquire, shared by the direct path and the
   continuations parked behind a lease recall. *)
let process_acquire_core t ~home ~requester ~family ~oid ~mode ~block
    (iv : reply Sim.Engine.Ivar.t) =
  match Gdo.Directory.acquire t.gdo oid ~family ~node:requester ~mode ~block () with
  | Gdo.Directory.Granted g ->
      let lease = attach_lease t ~oid ~node:requester g in
      replicate_gdo_update t ~home ~oid;
      reply_from_home t ~home ~dst:requester ~oid iv (Ok (g, lease))
  | Gdo.Directory.Queued ->
      replicate_gdo_update t ~home ~oid;
      Itbl.replace t.pending (okey oid family) iv;
      (match t.escrow with Some e -> Escrow_layer.waiter_queued e ~home ~oid | None -> ())
  | Gdo.Directory.Busy -> reply_from_home t ~home ~dst:requester ~oid iv (Error Busy)
  | Gdo.Directory.Deadlock cycle ->
      reply_from_home t ~home ~dst:requester ~oid iv (Error (Deadlock cycle))

let rec deliver_deferred_grant t ~home (d : Gdo.Directory.delivery) =
  let oid = d.d_grant.Gdo.Directory.g_oid in
  match Itbl.find_opt t.pending (okey oid d.d_family) with
  | None -> ()  (* e.g. a test driving the directory directly *)
  | Some iv ->
      Itbl.remove t.pending (okey oid d.d_family);
      if family_defunct t d.d_family || Sim.Engine.Ivar.is_filled iv then begin
        (* The requester stopped waiting (a transport give-up or a crash
           failed its wait), and its family aborted or is aborting: hand
           the just-granted lock straight back instead of delivering it to
           a corpse. If the waiter is a function-shipped fiber that
           outlived the abort, fail its wait so it unwinds. *)
        if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv (Error Crashed);
        let deliveries = Gdo.Directory.release t.gdo oid ~family:d.d_family ~dirty:[] in
        List.iter (deliver_deferred_grant t ~home) deliveries
      end
      else begin
        let lease = attach_lease t ~oid ~node:d.d_node d.d_grant in
        reply_from_home t ~home ~dst:d.d_node ~oid iv (Ok (d.d_grant, lease))
      end

(* Fail a queued acquire with a deadlock refusal (an escrow yield's
   victims get it). *)
let refuse_waiter t ~home ~oid ~family ~node =
  match Itbl.find_opt t.pending (okey oid family) with
  | None -> ()
  | Some iv ->
      Itbl.remove t.pending (okey oid family);
      reply_from_home t ~home ~dst:node ~oid iv (Error (Deadlock [ family ]))

(* Recall-before-write: a write acquisition reaching a home with leases
   outstanding (or a recall already running) parks until the recall clears.
   Only the first parked writer's family is excluded from the drain wait —
   it is the first continuation to reach the directory, so its own
   lease-backed read (if any) ends up protected by its impending write
   lock. *)
let gate_lease_write t ~home ~requester ~family ~oid ~block ~core
    (iv : reply Sim.Engine.Ivar.t) =
  let now = Sim.Engine.now t.engine in
  if
    Gdo.Lease.recall_in_progress t.lease_mgr oid
    || Gdo.Lease.outstanding t.lease_mgr oid ~now <> []
  then
    if not block then reply_from_home t ~home ~dst:requester ~oid iv (Error Busy)
    else begin
      let q =
        match Itbl.find_opt t.lease_blocked (Oid.to_int oid) with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Itbl.replace t.lease_blocked (Oid.to_int oid) q;
            q
      in
      Queue.add core q;
      match start_lease_recall t ~home ~oid ~excluded:(Some family) with
      | `Clear -> drain_lease_blocked t ~oid  (* every lease expired since the check *)
      | `Parked -> ()
    end
  else core ()

(* Executed at the GDO home when an acquire request arrives. [epoch] is
   the membership epoch stamped by the requester at send time; membership
   refuses a request under a stale view, or one reaching a node that must
   not serve the partition (the request-side half of the split-brain
   fence), and defers one that a lease fence holds back. *)
let rec process_acquire t ~home ~requester ~family ~oid ~mode ~block ~epoch
    (iv : reply Sim.Engine.Ivar.t) =
  Sim.Engine.schedule t.engine ~delay:Config.gdo_op_us (fun () ->
      (* A home that crashed between delivery and processing mutates
         nothing (its requesters were unblocked by the crash sweep). *)
      if t.crash_enabled && t.crashed.(home) then ()
      else
        let admission =
          match t.membership with
          | None -> Membership.Serve
          | Some m ->
              Membership.admit m ~home ~partition:(Oid.to_int oid mod t.cfg.Config.node_count)
                ~epoch
        in
        match admission with
        | Membership.Refuse -> reply_from_home t ~home ~dst:requester ~oid iv (Error Crashed)
        | Membership.Defer wait ->
            Sim.Engine.schedule t.engine ~delay:wait (fun () ->
                process_acquire t ~home ~requester ~family ~oid ~mode ~block ~epoch iv)
        | Membership.Serve ->
            if family_defunct t family then begin
              (* A request from a defunct family is fenced: nobody is
                 waiting on its reply, and granting it would leak the lock
                 forever. But the requester may be a function-shipped fiber
                 that outlived its family's abort (the invoker's transport
                 gave up on the round trip): fail its wait so it unwinds
                 and restores its writes instead of blocking forever.
                 Without shipping the ivar is always already filled (the
                 family could only become defunct after its one fiber was
                 unblocked). *)
              if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv (Error Crashed)
            end
            else begin
              Gdo.Directory.note_cached t.gdo oid ~node:requester;
              let core () =
                process_acquire_core t ~home ~requester ~family ~oid ~mode ~block iv
              in
              if t.lease_enabled && Lock.equal mode Lock.Write then
                gate_lease_write t ~home ~requester ~family ~oid ~block ~core iv
              else core ()
            end)

(* Executed at the GDO home when a release arrives. [items] lists the objects
   (with their dirty page info) whose home is this node; [from] is the
   releasing node, kept for the crash re-dispatch. *)
let rec process_release t ~home ~from ~family items =
  let n_items = List.length items in
  Sim.Engine.schedule t.engine ~delay:(Config.gdo_op_us *. float_of_int n_items)
    (fun () ->
      if
        t.crash_enabled
        && (t.crashed.(home) || List.exists (fun (oid, _) -> home_of t oid <> home) items)
      then begin
        (* The home crashed between delivery and processing, or membership
           moved the partition (a declaration or readmission re-routed it):
           send the release again from its origin. *)
        resend_release t ~node:from ~family items
      end
      else begin
        t.counters.gdo_releases <- t.counters.gdo_releases + 1;
        List.iter
          (fun (oid, dirty) ->
            let deliveries = Gdo.Directory.release t.gdo oid ~family ~dirty in
            replicate_gdo_update t ~home ~oid;
            List.iter (deliver_deferred_grant t ~home) deliveries)
          items
      end)

(* A release must never be lost: the family's locks would leak, and the
   page map would never learn the versions it committed. So a release that
   did not get through is sent again from its origin, routing re-evaluated
   so it reaches the partition's current acting home — or, while the origin
   is down, parked there until [crash_rejoin] sends it. Repeating one is
   harmless: the directory ignores a family that no longer holds the lock,
   and family ids are never reused. *)
and resend_release t ~node ~family items =
  if t.crash_enabled && t.crashed.(node) then
    t.parked_releases.(node) <- (family, items) :: t.parked_releases.(node)
  else gdo_release t ~node ~family items

(* Fire-and-forget global release of objects grouped by GDO home. [items] is
   (oid, dirty) with dirty = (page, version, node) list. An abandoned
   release message is sent again (see [resend_release]). *)
and gdo_release t ~node ~family items =
  let by_home = Hashtbl.create 8 in
  List.iter
    (fun ((oid, _) as item) ->
      let home = home_of t oid in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_home home) in
      Hashtbl.replace by_home home (item :: cur))
    items;
  (* Ascending-home order, not hash order: the send sequence (and with it
     every downstream timestamp) must not depend on the hash seed. *)
  Hashtbl.fold (fun home items acc -> (home, items) :: acc) by_home []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (home, items) ->
         if home = node then process_release t ~home ~from:node ~family items
         else if t.batching && not t.crash_enabled then
           (* Under crash injection coalescing stands down: a commit's
              releases must leave the node atomically with the commit point,
              or a crash inside the flush window could swallow a committed
              family's releases and leak its locks (see [Batching]). *)
           queue_release t ~node ~home ~family items
         else send_release t ~node ~home [ (family, items) ])

(* One Release message carrying one or more families' per-home batches.
   One control header for the message; every family beyond the first adds
   its 8-byte id on top of its items — cheaper than the headers separate
   sends would pay. *)
and send_release t ~node ~home batches =
  let k = List.length batches in
  if k > 1 then begin
    t.counters.releases_coalesced <- t.counters.releases_coalesced + (k - 1);
    record_event t (fun () -> Dsm.Event.Release_coalesced { node; home; families = k })
  end;
  let bytes =
    t.cfg.Config.control_msg_bytes
    + List.fold_left
        (fun acc (_, items) ->
          List.fold_left (fun acc (_, dirty) -> acc + 8 + (8 * List.length dirty)) acc items)
        0 batches
    + (8 * (k - 1))
  in
  send_reliable t ~mtype:Dsm.Wire.Release ~src:node ~dst:home ~bytes ~tag:(-1)
    ~on_abandon:(fun () ->
      List.iter (fun (family, items) -> resend_release t ~node ~family items) batches)
    (fun () ->
      List.iter (fun (family, items) -> process_release t ~home ~from:node ~family items) batches)

(* Coalescing: park the family's batch and flush the channel after
   [Batching.release_flush_us]. The zero window still combines — the flush
   event is scheduled behind every already-queued event of the current
   instant (engine ties break by insertion order), so families committing
   at the same simulated time share one Release message. *)
and queue_release t ~node ~home ~family items =
  let key = (node, home) in
  let q =
    match Hashtbl.find_opt t.pending_releases key with
    | Some q -> q
    | None ->
        let q = ref [] in
        Hashtbl.add t.pending_releases key q;
        q
  in
  q := (family, items) :: !q;
  if not (Hashtbl.mem t.release_flush_armed key) then begin
    Hashtbl.replace t.release_flush_armed key ();
    Sim.Engine.schedule t.engine ~delay:Dsm.Batching.release_flush_us (fun () ->
        flush_releases t ~node ~home)
  end

and flush_releases t ~node ~home =
  Hashtbl.remove t.release_flush_armed (node, home);
  match Hashtbl.find_opt t.pending_releases (node, home) with
  | None | Some { contents = [] } -> ()
  | Some q ->
      let batches = List.rev !q in
      q := [];
      send_release t ~node ~home batches

(* Fiber-side global acquisition: route to the home, block until the reply. *)
let gdo_acquire t ~node ~family ~oid ~mode ~block : reply =
  let key = okey oid family in
  match Itbl.find_opt t.inflight key with
  | Some iv -> Sim.Engine.Ivar.read iv
  | None ->
      let iv = Sim.Engine.Ivar.create () in
      Itbl.replace t.inflight key iv;
      let home = home_of t oid in
      let epoch = match t.membership with Some m -> Membership.epoch_view m node | None -> 0 in
      let start () =
        process_acquire t ~home ~requester:node ~family ~oid ~mode ~block ~epoch iv
      in
      if home = node then start ()
      else
        send_reliable t ~mtype:Dsm.Wire.Acquire_request ~src:node ~dst:home
          ~bytes:t.cfg.Config.control_msg_bytes ~tag:(tag_of oid)
          ~on_abandon:(fun () ->
            if not (Sim.Engine.Ivar.is_filled iv) then
              Sim.Engine.Ivar.fill iv (Error Crashed))
          start;
      let r = Sim.Engine.Ivar.read iv in
      Itbl.remove t.inflight key;
      r

(* ------------------------------------------------------------------ *)
(* Crash recovery: window entry/exit and dead-family reclamation at the
   directory; failure detection and failover are [Membership]'s. Armed by
   [run] only when crash or link windows are configured, so other runs
   are byte-identical to the pre-recovery runtime.                      *)

(* Fail every global acquire in flight whose (object id, family) satisfies
   [stuck], so its family aborts instead of waiting on a reply that cannot
   come. *)
let fail_inflight t stuck =
  Itbl.fold
    (fun key iv acc ->
      if stuck (key lsr 42) (Txn_id.of_int (key land ((1 lsl 42) - 1))) then iv :: acc else acc)
    t.inflight []
  |> List.iter (fun iv ->
         if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv (Error Crashed))

let routed_to t ~node oid_i = home_of t (Oid.of_int oid_i) = node

(* Does family [f] execute at [node]: rooted there, or with a
   function-shipped executor registered there? A crash of the node dooms
   it, and the node's reclamation evicts it. *)
let executes_at t f ~node =
  Txn_tree.node_of t.tree f = node
  || t.ship_enabled
     &&
     match Txn_id.Table.find_opt t.ship_states f with
     | Some st -> List.exists (fun (n, _) -> n = node) st.exec_sites
     | None -> false

(* Reclaim a dead (or freshly restarted) node's residue at the directory:
   evict its doomed families — releasing held locks, draining wait-queue
   and waits-for entries, promoting queued survivors — drop its leases,
   and (while it is down) repoint page-map entries stranded on it to a
   surviving copy of the same committed version. *)
let reclaim_dead_node t ~node:s ~repoint =
  let dead f = Txn_id.Table.mem t.doomed f && executes_at t f ~node:s in
  let evicted, deliveries = Gdo.Directory.evict_families t.gdo ~dead in
  if t.lease_enabled then
    List.iter
      (fun oid ->
        (* A recall that was waiting only on the dead node cleared: run the
           writes parked behind it, exactly as after a final yield. *)
        note_recall_resolved t ~oid;
        drain_lease_blocked t ~oid)
      (Gdo.Lease.evict_node t.lease_mgr ~node:s);
  let repointed =
    if not repoint then 0
    else
      Gdo.Directory.repoint_pages t.gdo ~dead_node:s ~find_copy:(fun oid ~page ~version ->
          let rec scan i =
            if i >= t.cfg.Config.node_count then None
            else if
              i <> s
              && (not t.crashed.(i))
              && Dsm.Page_store.version t.stores.(i) oid ~page = version
            then Some i
            else scan (i + 1)
          in
          scan 0)
  in
  if evicted > 0 || repointed > 0 then begin
    t.counters.families_reclaimed <- t.counters.families_reclaimed + evicted;
    record_event t (fun () -> Dsm.Event.Reclaim { node = s; families = evicted; repointed })
  end;
  (* Queued survivors receive their deferred grants from the acting home. *)
  List.iter
    (fun (dv : Gdo.Directory.delivery) ->
      deliver_deferred_grant t ~home:(home_of t dv.d_grant.Gdo.Directory.g_oid) dv)
    deliveries

(* Fail-stop crash: wipe the node's volatile state and unblock every
   operation that can no longer complete, so doomed fibers unwind instead
   of stalling the engine. *)
let crash_enter t ~node:d =
  record_event t (fun () -> Dsm.Event.Node_crash { node = d; incarnation = incarnation t d });
  t.crashed.(d) <- true;
  t.rejoin.(d) <- Some (Sim.Engine.Ivar.create ());
  (* Doom every family executing at the node — rooted here, or with a
     function-shipped executor registered here (its uncommitted writes in
     this store are about to be wiped): ids are never reused, so the mark
     permanently fences the family's pre-crash stragglers. *)
  Txn_id.Table.iter
    (fun f () -> if executes_at t f ~node:d then Txn_id.Table.replace t.doomed f ())
    t.live_roots;
  (* Unblock global acquires that cannot complete: requests by doomed
     families and requests routed to this node as acting home. *)
  fail_inflight t (fun oid_i fam -> Txn_id.Table.mem t.doomed fam || routed_to t ~node:d oid_i);
  (* Complete doomed families' transfer waits (awaiters re-check doom). *)
  Itbl.iter
    (fun key iv ->
      let fam = Txn_id.of_int (key land ((1 lsl 42) - 1)) in
      if Txn_id.Table.mem t.doomed fam && not (Sim.Engine.Ivar.is_filled iv) then
        Sim.Engine.Ivar.fill iv ())
    t.transfers;
  (* Fail page fetches served by the crashed node; complete those of its
     doomed families. *)
  List.iter
    (fun fw ->
      if fw.fw_src = d || Txn_id.Table.mem t.doomed fw.fw_family then begin
        if fw.fw_src = d then fw.fw_failed <- true;
        if not (Sim.Engine.Ivar.is_filled fw.fw_iv) then Sim.Engine.Ivar.fill fw.fw_iv ()
      end)
    t.fetch_waits;
  (* Fail ship round trips headed to the crashed site, and those of doomed
     families (the invoker re-checks doom when it wakes). *)
  List.iter
    (fun sw ->
      if
        (sw.sw_site = d || Txn_id.Table.mem t.doomed sw.sw_family)
        && not (Sim.Engine.Ivar.is_filled sw.sw_iv)
      then Sim.Engine.Ivar.fill sw.sw_iv Ship_crashed)
    t.ship_waits;
  (* Volatile-state loss: the page cache keeps only what is durable here —
     the version the page map records the node as holding, or the newest
     version a family committed here (its release may still be on its way
     to the map). Every other copy is gone until re-fetched. *)
  List.iter
    (fun oid ->
      let page_nodes, page_versions = Gdo.Directory.page_map t.gdo oid in
      Array.iteri
        (fun p owner ->
          let mapped = if owner = d then page_versions.(p) else Dsm.Page_store.absent in
          let committed = Dsm.Page_store.version t.committed.(d) oid ~page:p in
          Dsm.Page_store.restore t.stores.(d) oid ~page:p ~version:(max mapped committed))
        page_nodes)
    (Catalog.oids t.catalog);
  (* The lease cache is volatile too, and the method cache dies with it.
     The fresh lease cache needs the invalidation hook re-wired — the
     subscription lived in the object just discarded. *)
  t.lease_caches.(d) <- Gdo.Lease.Cache.create ();
  if t.cache_enabled then begin
    let dropped = Dsm.Method_cache.clear t.method_caches.(d) in
    if dropped > 0 then begin
      t.counters.cache_invalidations <- t.counters.cache_invalidations + dropped;
      record_event t (fun () ->
          Dsm.Event.Cache_invalidate { oid = None; node = d; entries = dropped })
    end;
    register_cache_invalidation t ~node:d
  end;
  (* So are deferred transport acks: the crashed node forgets them; the
     original senders retransmit and are re-acked after the rejoin. Armed
     flush timers fire harmlessly on the emptied channels. *)
  if t.batch_acks then
    Hashtbl.iter (fun (src, _) q -> if src = d then q := []) t.pending_acks;
  Option.iter (fun m -> Membership.crash_enter m ~node:d) t.membership

(* Window end: the node rejoins under a fresh incarnation, runs its
   restart recovery scan, and parked roots resume. *)
let crash_rejoin t ~node:d =
  t.crashed.(d) <- false;
  Option.iter (fun m -> Membership.crash_rejoin m ~node:d) t.membership;
  (* Releases parked while the node was down leave now, to the current
     acting homes. *)
  let parked = List.rev t.parked_releases.(d) in
  t.parked_releases.(d) <- [];
  List.iter (fun (family, items) -> gdo_release t ~node:d ~family items) parked;
  (* Restart recovery: if the window was shorter than the suspect timeout
     the node was never declared dead, so its doomed families' directory
     residue is still in place — the restarted node scans and evicts it.
     Pages are not repointed: this node's durable copies are live again. *)
  Sim.Engine.schedule t.engine ~delay:Config.gdo_op_us (fun () ->
      reclaim_dead_node t ~node:d ~repoint:false);
  match t.rejoin.(d) with
  | Some iv ->
      t.rejoin.(d) <- None;
      if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv ()
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Page movement (Algorithm 4.5 and demand fetches).                   *)

(* Group pages by the node holding their newest copy, per the grant. *)
let group_by_source ~node ~oid (grant : Gdo.Directory.grant) pages =
  let by_src = Hashtbl.create 4 in
  List.iter
    (fun p ->
      let src = grant.Gdo.Directory.g_page_nodes.(p) in
      if src = node then
        invalid_arg
          (Format.asprintf "Runtime: page %d of %a maps to the fetching node" p Oid.pp oid);
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_src src) in
      Hashtbl.replace by_src src (p :: cur))
    pages;
  (* Ascending-source order, not hash order: the parallel fetches are sent
     in list order, so group order must be hash-seed independent. *)
  Hashtbl.fold (fun src ps acc -> (src, List.rev ps) :: acc) by_src []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Fetch the given pages from their source nodes, in parallel, and install
   them locally. Blocks until every group has arrived or its wait is
   failed: a transport give-up on either leg fails it on every lossy run,
   and under crash injection every group is also registered in
   [t.fetch_waits] so a crash of either endpoint fails it instead of
   stalling the fiber. A failed fetch aborts the family, whose pages never
   arrived: a doomed one unwinds with Crashed_abort, a survivor retries —
   by then the page map has been repointed to a live copy or the source
   has rejoined. *)
let fetch_groups t ~family ~node ~oid groups =
  check_crashed t ~txn_root:family;
  let cfg = t.cfg in
  let join =
    List.map
      (fun (src, pages) ->
        let iv = Sim.Engine.Ivar.create () in
        let fw = { fw_iv = iv; fw_family = family; fw_src = src; fw_failed = false } in
        if t.crash_enabled then t.fetch_waits <- fw :: t.fetch_waits;
        let fail () =
          fw.fw_failed <- true;
          if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv ()
        in
        let n_pages = List.length pages in
        let req_bytes = cfg.Config.control_msg_bytes + (4 * n_pages) in
        let reply_bytes = n_pages * (cfg.Config.page_size + Config.page_header_bytes) in
        let serve () =
          (* At the source: look the pages up, then ship them. *)
          Sim.Engine.schedule t.engine ~delay:Config.page_service_us (fun () ->
              if t.crash_enabled && t.crashed.(src) then ()
              else
                let copies =
                  List.map (fun p -> (p, Dsm.Page_store.version t.stores.(src) oid ~page:p)) pages
                in
                let install () =
                  List.iter
                    (fun (p, v) -> Dsm.Page_store.receive t.stores.(node) oid ~page:p ~version:v)
                    copies;
                  if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv ()
                in
                send_reliable t ~mtype:Dsm.Wire.Page_reply ~src ~dst:node
                  ~bytes:reply_bytes ~tag:(tag_of oid) ~on_abandon:fail install)
        in
        send_reliable t ~mtype:Dsm.Wire.Page_request ~src:node ~dst:src
          ~bytes:req_bytes ~tag:(tag_of oid) ~on_abandon:fail serve;
        (fw, iv))
      groups
  in
  List.iter (fun (_, iv) -> Sim.Engine.Ivar.read iv) join;
  if t.crash_enabled then begin
    t.fetch_waits <-
      List.filter (fun fw -> not (List.exists (fun (fw', _) -> fw' == fw) join)) t.fetch_waits;
    check_crashed t ~txn_root:family
  end;
  if List.exists (fun (fw, _) -> fw.fw_failed) join then raise Family_abort

(* Acquisition-time transfer: what moves depends on the protocol. *)
let transfer_on_acquire t ~family ~node ~oid ~(grant : Gdo.Directory.grant) ~predicted =
  let pages = Array.length grant.Gdo.Directory.g_page_nodes in
  let local_version p = Dsm.Page_store.version t.stores.(node) oid ~page:p in
  let set =
    Dsm.Protocol.transfer_set (protocol_for t oid) ~page_count:pages
      ~page_nodes:grant.Gdo.Directory.g_page_nodes
      ~page_versions:grant.Gdo.Directory.g_page_versions ~local_version ~node ~predicted
  in
  if set <> [] then begin
    record_event t (fun () ->
        let n = List.length set in
        Dsm.Event.Transfer
          { oid; node; pages = n;
            bytes = n * (t.cfg.Config.page_size + Config.page_header_bytes) });
    fetch_groups t ~family ~node ~oid (group_by_source ~node ~oid grant set)
  end

(* Make sure the pages an access touches are up to date locally, fetching on
   demand when the protocol allows it (LOTEC's lazy fetch; RC-nested cold
   pages). For COTEC/OTEC a stale page here is a protocol bug. [predicted]
   is the running method's predicted access set, used by batching's fetch
   aggregation to widen the round. *)
let ensure_pages t ~family ~node ~oid ~predicted pages =
  let g = snapshot t ~family ~oid in
  let stale_of ps =
    List.filter
      (fun p ->
        Dsm.Page_store.version t.stores.(node) oid ~page:p
        < g.Gdo.Directory.g_page_versions.(p))
      ps
  in
  let stale = stale_of pages in
  if stale <> [] then begin
    let protocol = protocol_for t oid in
    if not (Dsm.Protocol.demand_fetch_allowed protocol) then
      failwith
        (Format.asprintf "protocol invariant violated: %a stale under %a" Oid.pp oid
           Dsm.Protocol.pp protocol);
    (* Aggregation: the method touches (at most) its predicted set, so one
       widened round replaces the per-access-group request/reply pairs the
       method would otherwise pay. A widened page is as safe to pull as a
       triggering one — staleness is judged against the same grant
       snapshot, so its newest copy is held remotely. *)
    let fetch =
      if not t.batching then stale
      else begin
        let extra =
          stale_of
            (List.sort_uniq Int.compare
               (List.filter (fun p -> not (List.mem p pages)) predicted))
        in
        if extra <> [] then begin
          t.counters.fetches_aggregated <- t.counters.fetches_aggregated + List.length extra;
          record_event t (fun () ->
              Dsm.Event.Fetch_aggregated
                { oid; node;
                  pages = List.length stale + List.length extra;
                  extra = List.length extra })
        end;
        stale @ extra
      end
    in
    Dsm.Metrics.record_demand_fetch t.metrics ~oid;
    record_event t (fun () ->
        let n = List.length fetch in
        Dsm.Event.Demand_fetch
          { oid; node; pages = n;
            bytes = n * (t.cfg.Config.page_size + Config.page_header_bytes) });
    fetch_groups t ~family ~node ~oid (group_by_source ~node ~oid g fetch)
  end

(* ------------------------------------------------------------------ *)
(* Node-side lease bookkeeping: which of a family's read locks are
   lease-backed (the directory never saw them), and their validation at
   commit/upgrade time.                                                 *)

let family_lease_reads t family =
  match Txn_id.Table.find_opt t.lease_reads family with
  | Some tbl -> tbl
  | None ->
      let tbl = Oid.Table.create 4 in
      Txn_id.Table.add t.lease_reads family tbl;
      tbl

(* The nodes whose lease caches back the family's read on [oid] — the
   family's own site, plus (with function shipping) any shipped reader's
   execution site. A singleton whenever shipping is off. *)
let lease_nodes t ~family ~oid =
  match Txn_id.Table.find_opt t.lease_reads family with
  | Some tbl -> Option.value ~default:[] (Oid.Table.find_opt tbl oid)
  | None -> []

let mark_lease_backed t ~family ~oid ~node =
  let tbl = family_lease_reads t family in
  let cur = Option.value ~default:[] (Oid.Table.find_opt tbl oid) in
  if not (List.mem node cur) then Oid.Table.replace tbl oid (cur @ [ node ])

let unmark_lease_backed t ~family ~oid =
  match Txn_id.Table.find_opt t.lease_reads family with
  | Some tbl -> Oid.Table.remove tbl oid
  | None -> ()

(* Drop one site's backing of the read; other sites' backings remain. *)
let unmark_lease_backed_at t ~family ~oid ~node =
  match Txn_id.Table.find_opt t.lease_reads family with
  | Some tbl -> (
      match Oid.Table.find_opt tbl oid with
      | Some nodes -> (
          match List.filter (fun n -> n <> node) nodes with
          | [] -> Oid.Table.remove tbl oid
          | rest -> Oid.Table.replace tbl oid rest)
      | None -> ())
  | None -> ()

(* Satisfy a read-mode acquire from the node's lease cache, if it holds a
   valid lease on the object. *)
let lease_hit t ~node ~oid ~mode =
  if t.lease_enabled && Lock.equal mode Lock.Read then
    Gdo.Lease.Cache.hit t.lease_caches.(node) oid ~now:(Sim.Engine.now t.engine)
  else None

(* A family's lease-backed read on [oid] ended (commit, abort, or upgrade):
   drop the reader; if a deferred recall was waiting on it, yield now. *)
let lease_release t ~node ~family ~oid =
  match Gdo.Lease.Cache.remove_reader t.lease_caches.(node) oid ~family with
  | `Yield -> send_lease_yield t ~node ~oid
  | `Nothing -> ()

(* Release the family's lock on [oid] at [site] against the site's lease
   cache when the read there is lease-backed (the directory never saw
   it). False when it is a directory lock, which the caller releases
   globally. *)
let release_lease_backed t ~site ~family oid =
  t.lease_enabled
  && List.mem site (lease_nodes t ~family ~oid)
  && begin
       unmark_lease_backed_at t ~family ~oid ~node:site;
       lease_release t ~node:site ~family ~oid;
       true
     end

(* TTL doom (see Gdo.Lease): lease-backed reads are only as good as the
   lease backing them. Re-validate every one before the family commits; a
   reader whose lease expired or was superseded may have read data a writer
   has since been allowed to overwrite, so the family must abort and
   retry. *)
let validate_lease_reads t ~family =
  (not t.lease_enabled)
  ||
  match Txn_id.Table.find_opt t.lease_reads family with
  | None -> true
  | Some tbl ->
      let now = Sim.Engine.now t.engine in
      Oid.Table.fold
        (fun oid nodes ok ->
          ok
          && List.for_all
               (fun node -> Gdo.Lease.Cache.valid t.lease_caches.(node) oid ~family ~now)
               nodes)
        tbl true

let drop_lease_reads t family = Txn_id.Table.remove t.lease_reads family

(* ------------------------------------------------------------------ *)
(* Lock acquisition at method entry (Algorithm 4.1 + global path).     *)

(* Block until a concurrent fiber of the same family (a prefetch) has
   finished pulling the object's acquisition-time pages; being granted the
   lock locally does not mean the pages have landed. *)
let await_transfer t ~family ~oid =
  match Itbl.find_opt t.transfers (okey oid family) with
  | Some iv -> Sim.Engine.Ivar.read iv
  | None -> ()

(* [optimistic] marks pre-acquisition attempts: they never block at the GDO
   (Busy is a silent no-op) and never upgrade — the invoking child falls back
   to a normal acquisition later. Returns true when the lock is held on
   return. *)
let rec acquire_object t ~txn ~oid ~mode ~predicted ~optimistic =
  let node = Txn_tree.node_of t.tree txn in
  let family = Txn_tree.root_of t.tree txn in
  check_crashed t ~txn_root:family;
  (* A function-shipped fiber can outlive its family's abort (the invoker's
     transport gave up on the round trip and unwound). Stop it at the next
     acquisition so it restores its writes instead of piling on more. *)
  if t.ship_enabled && family_defunct t family then raise Family_abort;
  Sim.Engine.wait Config.local_lock_op_us;
  let wake_iv = Sim.Engine.Ivar.create () in
  match
    Local_locks.acquire t.locks.(node) oid ~txn ~mode ~wake:(fun () ->
        Sim.Engine.Ivar.fill wake_iv ())
  with
  | Local_locks.Granted ->
      t.counters.local_acquisitions <- t.counters.local_acquisitions + 1;
      await_transfer t ~family ~oid;
      true
  | Local_locks.Queued ->
      t.counters.local_acquisitions <- t.counters.local_acquisitions + 1;
      Sim.Engine.Ivar.read wake_iv;
      await_transfer t ~family ~oid;
      true
  | Local_locks.Needs_upgrade ->
      if optimistic then true  (* already held for Read: good enough to keep *)
      else begin
        t.counters.upgrades <- t.counters.upgrades + 1;
        record_event t (fun () -> Dsm.Event.Upgrade { oid; family = txn; node });
        let t0 = Sim.Engine.now t.engine in
        match gdo_acquire t ~node ~family ~oid ~mode:Lock.Write ~block:true with
        | Ok (g, _) ->
            (match lease_nodes t ~family ~oid with
            | lnodes when t.lease_enabled && lnodes <> [] ->
                (* The read being upgraded never reached the directory: this
                   write grant is fresh, not an upgrade, and the lease that
                   protected the read must still be valid at grant time —
                   otherwise another writer was admitted in between (via TTL
                   force-clear) and the read is doomed. The just-granted
                   write lock is handed straight back so the directory is not
                   leaked across the family abort. [lnodes] are the sites
                   whose caches back the read (≠ [node] only for
                   function-shipped reads). *)
                let now = Sim.Engine.now t.engine in
                let valid =
                  List.for_all
                    (fun lnode -> Gdo.Lease.Cache.valid t.lease_caches.(lnode) oid ~family ~now)
                    lnodes
                in
                if not valid then begin
                  t.counters.lease_aborts <- t.counters.lease_aborts + 1;
                  record_event t (fun () ->
                      Dsm.Event.Lease_abort { family = txn; node; oid = Some oid });
                  gdo_release t ~node ~family [ (oid, []) ];
                  raise Family_abort
                end;
                unmark_lease_backed t ~family ~oid;
                List.iter (fun lnode -> lease_release t ~node:lnode ~family ~oid) lnodes
            | _ -> ());
            Local_locks.upgrade_granted t.locks.(node) oid ~txn;
            Dsm.Metrics.record_acquire_latency_us t.metrics (Sim.Engine.now t.engine -. t0);
            set_snapshot t ~family ~oid g;
            await_transfer t ~family ~oid;
            true
        | Error Busy ->
            (* We shared the reply of an in-flight non-blocking prefetch;
               issue our own blocking request. *)
            acquire_object t ~txn ~oid ~mode ~predicted ~optimistic
        | Error (Deadlock _) ->
            t.counters.deadlock_aborts <- t.counters.deadlock_aborts + 1;
            raise Family_abort
        | Error Crashed ->
            (* The upgrade was disrupted by a crash or transport give-up.
               The held read is released by the normal abort unwinding; a
               stale upgrade-queue entry is fenced at delivery time. *)
            if is_doomed t family then raise Crashed_abort else raise Family_abort
      end
  | Local_locks.Not_cached -> (
      match lease_hit t ~node ~oid ~mode with
      | Some g ->
          (* Valid local lease: install the cached grant without touching
             the home — zero messages. The cached page map is current (no
             write was granted while the lease is valid), so demand fetches
             through this snapshot behave exactly as under the original
             grant. *)
          t.counters.lease_hits <- t.counters.lease_hits + 1;
          Local_locks.install_grant t.locks.(node) oid ~txn ~mode;
          set_snapshot t ~family ~oid g;
          Gdo.Lease.Cache.add_reader t.lease_caches.(node) oid ~family;
          mark_lease_backed t ~family ~oid ~node;
          record_event t (fun () -> Dsm.Event.Lease_hit { oid; family = txn; node });
          true
      | None -> (
      t.counters.global_acquisitions <- t.counters.global_acquisitions + 1;
      let had_inflight = Itbl.mem t.inflight (okey oid family) in
      if not had_inflight then
        record_event t (fun () -> Dsm.Event.Lock_request { oid; family = txn; node; mode });
      let t0 = Sim.Engine.now t.engine in
      match gdo_acquire t ~node ~family ~oid ~mode ~block:(not optimistic) with
      | Ok (g, lease) ->
          if had_inflight then
            (* Another fiber of this family raced us and already installed
               the grant; just retry the local path. *)
            acquire_object t ~txn ~oid ~mode ~predicted ~optimistic
          else begin
            Local_locks.install_grant t.locks.(node) oid ~txn ~mode;
            Dsm.Metrics.record_acquire_latency_us t.metrics (Sim.Engine.now t.engine -. t0);
            set_snapshot t ~family ~oid g;
            Dsm.Metrics.record_acquisition t.metrics ~oid;
            record_event t (fun () -> Dsm.Event.Lock_grant { oid; family = txn; node; mode });
            let transfer_iv = Sim.Engine.Ivar.create () in
            Itbl.replace t.transfers (okey oid family) transfer_iv;
            (* A failed transfer (crash, give-up) must still complete the
               transfer ivar, or same-family fibers awaiting it stall. *)
            let finish_transfer () =
              Itbl.remove t.transfers (okey oid family);
              (* crash_enter may have completed the ivar already (doomed
                 family): waiters re-check doom, so a second fill is moot. *)
              if not (Sim.Engine.Ivar.is_filled transfer_iv) then
                Sim.Engine.Ivar.fill transfer_iv ()
            in
            (try transfer_on_acquire t ~family ~node ~oid ~grant:g ~predicted
             with e ->
               finish_transfer ();
               raise e);
            finish_transfer ();
            (* Install the piggybacked lease only now, after the grant's
               page transfer landed: a lease hit must find every page the
               cached map calls local actually present. A doomed family
               must not seed the node's post-crash fresh cache. *)
            (match lease with
            | Some (expires, epoch) when not (is_doomed t family) ->
                Gdo.Lease.Cache.install t.lease_caches.(node) oid ~grant:g ~expires ~epoch
            | Some _ | None -> ());
            true
          end
      | Error Busy ->
          record_event t (fun () ->
              Dsm.Event.Lock_refused { oid; family = txn; node; busy = true });
          if optimistic then false  (* optimistic refusal: leave it to the child *)
          else
            (* A shared in-flight prefetch reply; retry as a blocking
               request of our own. *)
            acquire_object t ~txn ~oid ~mode ~predicted ~optimistic
      | Error (Deadlock cycle) ->
          record_event t (fun () ->
              Dsm.Event.Lock_refused { oid; family = txn; node; busy = false });
          if optimistic then false
          else begin
            t.counters.deadlock_aborts <- t.counters.deadlock_aborts + 1;
            record_event t (fun () ->
                Dsm.Event.Deadlock_abort { family = txn; node; cycle = List.length cycle });
            raise Family_abort
          end
      | Error Crashed ->
          if is_doomed t family then raise Crashed_abort
          else begin
            (* The acquire was disrupted (home crash or transport give-up)
               and the outcome is ambiguous: the home may have granted the
               lock into the void. Release defensively — a release of an
               unheld lock is a no-op, and a stale wait-queue entry is
               fenced by the defunct check when its grant is delivered. *)
            gdo_release t ~node ~family [ (oid, []) ];
            if optimistic then false else raise Family_abort
          end))

(* ------------------------------------------------------------------ *)
(* Function-shipping bookkeeping (see Dsm.Shipping): execution-site
   tracking, invocation pinning and parked per-site undo state. All of it
   is inert when shipping is off — no table ever gains an entry, keeping
   shipping-off runs byte-identical.                                     *)

(* The family's ship state, created at its first dispatch decision with the
   root's own node registered as the first execution site. *)
let ship_state_of t ~family ~node =
  match Txn_id.Table.find_opt t.ship_states family with
  | Some s -> s
  | None ->
      let inc = incarnation t node in
      let s = { pins = Oid.Table.create 8; exec_sites = [ (node, inc) ] } in
      Txn_id.Table.add t.ship_states family s;
      s

(* Register a Ship_invoke delivery site. The state already exists: the
   deciding invoker created it before sending. *)
let register_ship_site t ~family ~site =
  let s = Txn_id.Table.find t.ship_states family in
  if not (List.exists (fun (n, _) -> n = site) s.exec_sites) then begin
    let inc = incarnation t site in
    s.exec_sites <- s.exec_sites @ [ (site, inc) ]
  end

(* Every node the family has executed at — [node] (the caller's notion of
   the transaction's site) first, then the other registered sites. The
   completion paths iterate this for lock disposition; each per-site
   operation is a no-op at sites where the transaction holds nothing. *)
let family_exec_sites t ~family ~node =
  if not t.ship_enabled then [ node ]
  else
    match Txn_id.Table.find_opt t.ship_states family with
    | None -> [ node ]
    | Some s ->
        node :: List.filter_map (fun (n, _) -> if n = node then None else Some n) s.exec_sites

(* A registered execution site whose store still holds the family's
   uncommitted writes: not currently crashed, and at the incarnation it was
   registered under (a crashed site's wipe already discarded the writes,
   and restoring pre-images over the durable versions would resurrect
   them). *)
let intact_site t ~family ~site =
  match Txn_id.Table.find_opt t.ship_states family with
  | None -> false
  | Some s ->
      List.exists
        (fun (n, inc) ->
          n = site
          && ((not t.crash_enabled) || ((not t.crashed.(site)) && incarnation t site = inc)))
        s.exec_sites

let parked_of t txn =
  match Txn_id.Table.find_opt t.parked_logs txn with Some cell -> !cell | None -> []

let drop_parked t txn = Txn_id.Table.remove t.parked_logs txn

(* Park a shipped descendant's undo log under [owner], keyed by the
   execution site whose store its pre-images belong to; a log already
   parked for the site absorbs the new one (the new log's entries are
   newer: family execution is sequential). Empty logs park nothing —
   read-only shipped children leave no undo state behind. *)
let park_log t ~owner ~site log =
  if not (Undo_log.is_empty log) then begin
    let cell =
      match Txn_id.Table.find_opt t.parked_logs owner with
      | Some c -> c
      | None ->
          let c = ref [] in
          Txn_id.Table.add t.parked_logs owner c;
          c
    in
    match List.assoc_opt site !cell with
    | Some existing -> Undo_log.merge_into_parent ~child:log ~parent:existing
    | None ->
        let fresh = Undo_log.create () in
        Undo_log.merge_into_parent ~child:log ~parent:fresh;
        cell := !cell @ [ (site, fresh) ]
  end

(* Apply an undo log over a node's store: newest-first application ends
   at the oldest pre-image per page. A transaction's own log restores at
   its node and each parked log at its site; there is never a second log
   for a site, since [park_log] keeps one per site and [precommit_txn]
   merges a log for the owner's own node into the owner's log. *)
let restore_log t ~node log =
  List.iter
    (fun { Undo_log.oid; page; prev_version } ->
      Dsm.Page_store.restore t.stores.(node) oid ~page ~version:prev_version)
    (Undo_log.entries_newest_first log)

(* Crash unwinding with shipping: doom may have come from a crash
   elsewhere in the family's execution-site set, and sites that did NOT
   crash still hold the family's uncommitted writes, which the wipe did not
   discard. Restore [txn]'s log and its parked logs there, intact sites
   only. *)
let restore_intact_sites t ~family ~node txn =
  if t.ship_enabled then begin
    if intact_site t ~family ~site:node then restore_log t ~node (undo_log_of t txn);
    List.iter
      (fun (site, log) -> if intact_site t ~family ~site then restore_log t ~node:site log)
      (parked_of t txn)
  end

(* ------------------------------------------------------------------ *)
(* Transaction completion (Algorithm 4.3 and root paths).              *)

let precommit_txn t txn =
  let parent =
    match Txn_tree.parent t.tree txn with
    | Some p -> p
    | None -> invalid_arg "Runtime.precommit_txn: root"
  in
  let node = Txn_tree.node_of t.tree txn in
  let family = Txn_tree.root_of t.tree txn in
  Sim.Engine.wait Config.local_lock_op_us;
  (* The child's (and its precommitted descendants') locks may live in
     several sites' tables; the parent inherits them wherever they are. *)
  List.iter
    (fun site -> Local_locks.precommit t.locks.(site) txn)
    (family_exec_sites t ~family ~node);
  let pnode = Txn_tree.node_of t.tree parent in
  if node = pnode then
    Undo_log.merge_into_parent ~child:(undo_log_of t txn) ~parent:(undo_log_of t parent)
  else
    (* Function-shipped child: its pre-images belong to [node]'s store and
       cannot merge into a parent log that restores at [pnode]; park them
       under the parent instead. *)
    park_log t ~owner:parent ~site:node (undo_log_of t txn);
  (* Promote undo state the child's own shipped descendants parked under
     it: logs for the parent's site join the parent's own log, the rest
     stay parked (now under the parent). *)
  List.iter
    (fun (site, log) ->
      if site = pnode then Undo_log.merge_into_parent ~child:log ~parent:(undo_log_of t parent)
      else park_log t ~owner:parent ~site log)
    (parked_of t txn);
  drop_parked t txn;
  let plog = access_log t parent in
  plog.al_spliced <- access_log t txn :: plog.al_spliced;
  Txn_tree.set_status t.tree txn Txn_tree.Precommitted;
  record_event t (fun () -> Dsm.Event.Precommit { txn; parent; node });
  drop_txn_state t txn

let undo_txn t txn =
  let node = Txn_tree.node_of t.tree txn in
  let log = undo_log_of t txn in
  let parked = parked_of t txn in
  let cost =
    Undo_log.length log
    + List.fold_left (fun acc (_, l) -> acc + Undo_log.length l) 0 parked
  in
  if cost > 0 then Sim.Engine.wait (Config.undo_page_us *. float_of_int cost);
  (* The node may have crashed during the undo wait; restoring pre-images
     into the wiped store would resurrect uncommitted state over the
     durable versions, so switch to the crash unwinding instead. *)
  check_crashed t ~txn_root:(Txn_tree.root_of t.tree txn);
  restore_log t ~node log;
  List.iter (fun (site, l) -> restore_log t ~node:site l) parked

(* Crash unwinding of one transaction level: purge local state with no
   undo (the crash wipe already reset the node's pages to their durable
   versions) and no global releases (the node cannot send — its directory
   residue is reclaimed when it is declared dead). Waking local waiters
   cascades the doom through same-node families. *)
let crashed_purge_sub t txn =
  let node = Txn_tree.node_of t.tree txn in
  let family = Txn_tree.root_of t.tree txn in
  restore_intact_sites t ~family ~node txn;
  drop_parked t txn;
  List.iter
    (fun site -> Local_locks.abort t.locks.(site) txn ~to_release:(fun _ -> ()))
    (family_exec_sites t ~family ~node);
  Txn_tree.set_status t.tree txn Txn_tree.Aborted;
  drop_txn_state t txn

let abort_sub_txn t txn =
  let node = Txn_tree.node_of t.tree txn in
  undo_txn t txn;
  Sim.Engine.wait Config.local_lock_op_us;
  check_crashed t ~txn_root:(Txn_tree.root_of t.tree txn);
  let family = Txn_tree.root_of t.tree txn in
  let release site oid =
    Oid.Table.remove (family_snapshots t family) oid;
    if not (release_lease_backed t ~site ~family oid) then
      gdo_release t ~node:site ~family [ (oid, []) ]
  in
  List.iter
    (fun site -> Local_locks.abort t.locks.(site) txn ~to_release:(release site))
    (family_exec_sites t ~family ~node);
  Txn_tree.set_status t.tree txn Txn_tree.Aborted;
  record_event t (fun () -> Dsm.Event.Sub_abort { txn; node });
  drop_parked t txn;
  drop_txn_state t txn

(* RC-nested: push dirty pages to every caching site at root release. The
   copyset is read straight from the directory rather than shipped with the
   grant — a simulation shortcut; the value is identical to what a real
   implementation would have piggybacked, and no message cost is avoided
   (the pushes themselves are fully costed). *)
let eager_push t ~node items =
  let cfg = t.cfg in
  List.iter
    (fun (oid, dirty) ->
      if dirty <> [] then begin
        let dests = List.filter (fun d -> d <> node) (Gdo.Directory.copyset t.gdo oid) in
        if dests <> [] then begin
          let bytes =
            List.length dirty * (cfg.Config.page_size + Config.page_header_bytes)
          in
          let install dest () =
            List.iter
              (fun (page, v, _) -> Dsm.Page_store.receive t.stores.(dest) oid ~page ~version:v)
              dirty
          in
          t.counters.eager_pushes <- t.counters.eager_pushes + 1;
          match (cfg.Config.multicast_push, dests) with
          | true, first :: rest ->
              (* One multicast message: charged once, delivered everywhere.
                 The extra recipients are installed off-network, so only the
                 charged copy is exposed to fault injection. *)
              send_reliable t ~mtype:Dsm.Wire.Eager_push ~src:node ~dst:first
                ~bytes ~tag:(tag_of oid) (install first);
              let delay = Sim.Network.transfer_time_us (Sim.Network.link t.net) bytes in
              List.iter
                (fun dest -> Sim.Engine.schedule t.engine ~delay (fun () -> install dest ()))
                rest
          | _ ->
              List.iter
                (fun dest ->
                  send_reliable t ~mtype:Dsm.Wire.Eager_push ~src:node ~dst:dest
                    ~bytes ~tag:(tag_of oid) (install dest))
                dests
        end
      end)
    items

(* A committed root's reads or writes, ascending by (oid, page, version)
   without duplicates. *)
let dedup_accesses pick log =
  List.sort_uniq
    (fun (a : Serializability.access) (b : Serializability.access) ->
      let c = Oid.compare a.oid b.oid in
      if c <> 0 then c
      else
        let c = Int.compare a.page b.page in
        if c <> 0 then c else Int.compare a.version b.version)
    (log_entries pick log [])

(* Release a root's locks at every execution site: lease-backed reads
   against the site's lease cache, and directory locks through [release],
   called once per site with the objects no earlier site listed (an object
   cached at more than one site, a directory grant plus shipped
   re-acquisitions, releases globally once). Lease-backed locks are
   read-only by construction: a write would have upgraded, and upgrading
   converts the lock to a directory lock. Returns the objects released
   globally. *)
let release_root_sites t ~root ~node release =
  let seen = Oid.Table.create 16 in
  List.iter
    (fun site ->
      let released =
        List.filter
          (fun oid ->
            if release_lease_backed t ~site ~family:root oid || Oid.Table.mem seen oid then false
            else begin
              Oid.Table.add seen oid ();
              true
            end)
          (Local_locks.root_release t.locks.(site) ~root)
      in
      if released <> [] then release site released)
    (family_exec_sites t ~family:root ~node);
  seen

(* Drop a completed family's function-shipping state. *)
let drop_ship_state t root =
  if t.ship_enabled then begin
    Txn_id.Table.remove t.ship_states root;
    drop_parked t root
  end

(* Runs entirely without yielding (waits happen at the caller, before the
   commit point), so a crash window can never tear a commit: either the
   family crash-aborts before the commit point, or every commit-side
   effect — local release, release/push sends — is issued atomically in
   simulated time. *)
let commit_root t root =
  let node = Txn_tree.node_of t.tree root in
  (* The family's locks live in its execution sites' tables and its dirty
     pages in their stores — one site unless function shipping moved work.
     Collect the final version of every dirty page across the root's own
     log and its parked per-site logs (a page written at several sites
     reports its newest version — version numbers are globally monotone),
     then release per site. *)
  let site_logs = (node, undo_log_of t root) :: parked_of t root in
  let by_page = Hashtbl.create 16 in
  List.iter
    (fun (site, log) ->
      List.iter
        (fun (oid, page) ->
          let v = Dsm.Page_store.version t.stores.(site) oid ~page in
          match Hashtbl.find_opt by_page (Oid.to_int oid, page) with
          | Some (_, v0, _) when v0 >= v -> ()
          | Some _ | None -> Hashtbl.replace by_page (Oid.to_int oid, page) (oid, v, site))
        (Undo_log.dirty_pages log))
    site_logs;
  (* The commit point: record each dirty page's committed version where it
     was written, so a crash of that site cannot lose it. *)
  if t.crash_enabled then
    Hashtbl.iter
      (fun (_, page) (oid, v, site) ->
        Dsm.Page_store.receive t.committed.(site) oid ~page ~version:v)
      by_page;
  let dirty_of oid =
    (* Ascending-page order, not hash order: the list lands in release
       messages, whose bytes must be hash-seed independent. *)
    Hashtbl.fold
      (fun (o, page) (_, v, n) acc -> if o = Oid.to_int oid then (page, v, n) :: acc else acc)
      by_page []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  let released =
    release_root_sites t ~root ~node (fun site released ->
        let items = List.map (fun oid -> (oid, dirty_of oid)) released in
        let push_items =
          List.filter (fun (oid, _) -> Dsm.Protocol.is_eager_push (protocol_for t oid)) items
        in
        if push_items <> [] then eager_push t ~node:site push_items;
        gdo_release t ~node:site ~family:root items)
  in
  (* Locks are held to root commit (rule 2), so every dirty object must
     have been among the released locks. *)
  Hashtbl.iter
    (fun _ (oid, _, _) ->
      if not (Oid.Table.mem released oid) then
        failwith (Format.asprintf "Runtime: dirty object %a not among released locks" Oid.pp oid))
    by_page;
  (match t.escrow with
  | Some e -> Escrow_layer.resolve_family e root ~node ~commit:true
  | None -> ());
  if t.lease_enabled then drop_lease_reads t root;
  if not t.cfg.Config.streaming then
    t.history <-
      {
        Serializability.root;
        reads = dedup_accesses (fun l -> l.al_reads) (access_log t root);
        writes = dedup_accesses (fun l -> l.al_writes) (access_log t root);
      }
      :: t.history;
  Txn_tree.set_status t.tree root Txn_tree.Committed;
  record_event t (fun () ->
      Dsm.Event.Root_commit { family = root; node; released = Oid.Table.length released });
  Txn_id.Table.remove t.snapshots root;
  drop_ship_state t root;
  drop_txn_state t root;
  t.counters.roots_committed <- t.counters.roots_committed + 1;
  (* Streaming runs are fault-free, so nothing consults a completed
     family's tree records afterwards (the defunct-family fence and crash
     reclamation, the only such readers, need the reliable transport). *)
  if t.cfg.Config.streaming then Txn_tree.forget_family t.tree root

let abort_root t root =
  let node = Txn_tree.node_of t.tree root in
  undo_txn t root;
  Sim.Engine.wait Config.local_lock_op_us;
  check_crashed t ~txn_root:root;
  let (_ : unit Oid.Table.t) =
    release_root_sites t ~root ~node (fun site released ->
        gdo_release t ~node:site ~family:root (List.map (fun oid -> (oid, [])) released))
  in
  (match t.escrow with
  | Some e -> Escrow_layer.resolve_family e root ~node ~commit:false
  | None -> ());
  if t.lease_enabled then drop_lease_reads t root;
  Txn_tree.set_status t.tree root Txn_tree.Aborted;
  record_event t (fun () -> Dsm.Event.Root_abort { family = root; node });
  Txn_id.Table.remove t.snapshots root;
  if t.crash_enabled then Txn_id.Table.remove t.live_roots root;
  drop_ship_state t root;
  drop_txn_state t root;
  if t.cfg.Config.streaming then Txn_tree.forget_family t.tree root

(* Crash unwinding of a root: like [crashed_purge_sub] plus the root-level
   bookkeeping — no undo waits, no global releases (the crashed node cannot
   send; directory residue is reclaimed at dead declaration), permanent
   Aborted status (the fence against the family's pre-crash stragglers).
   With shipping, execution sites that did not crash restore the family's
   uncommitted writes from the root's remaining logs first. *)
let crashed_purge_root t root =
  let node = Txn_tree.node_of t.tree root in
  restore_intact_sites t ~family:root ~node root;
  List.iter
    (fun site -> ignore (Local_locks.root_release t.locks.(site) ~root))
    (family_exec_sites t ~family:root ~node);
  if t.lease_enabled then drop_lease_reads t root;
  Txn_tree.set_status t.tree root Txn_tree.Aborted;
  record_event t (fun () -> Dsm.Event.Crash_abort { family = root; node });
  t.counters.crash_aborts <- t.counters.crash_aborts + 1;
  Txn_id.Table.remove t.snapshots root;
  Txn_id.Table.remove t.live_roots root;
  (* A doomed family's exec-site record must outlive the purge: the family
     released nothing at the directory (this path sends no messages), so
     [reclaim_dead_node] is what evicts its locks — and for a family rooted
     on a live node its doom is only visible through the registered remote
     exec sites. The record persists like the doom mark itself; committed
     and normally-aborted families still drop theirs. *)
  if not (is_doomed t root) then drop_ship_state t root;
  drop_txn_state t root

(* ------------------------------------------------------------------ *)
(* Method execution.                                                   *)

let log_read t txn ~oid ~page ~version =
  let l = access_log t txn in
  l.al_reads <- { Serializability.oid; page; version } :: l.al_reads

let log_write t txn ~oid ~page ~version =
  let l = access_log t txn in
  l.al_writes <- { Serializability.oid; page; version } :: l.al_writes

(* ------------------------------------------------------------------ *)
(* Method-result cache (see Dsm.Method_cache). Only read-only leaf
   methods — no updates, no sub-invocations — are cacheable: their entire
   observable effect is the read log they produce.                      *)

let cacheable_method (cm : Obj_class.compiled_method) =
  (not cm.Obj_class.summary.Access_analysis.updates)
  && cm.Obj_class.summary.Access_analysis.invoked = []

(* The version vector the entry is keyed by: the grant's versions of the
   method's predicted read-set pages, in page order. While the lease is
   valid these are the objects' current global versions. *)
let cache_versions (cm : Obj_class.compiled_method) (g : Gdo.Directory.grant) =
  Array.of_list
    (List.map
       (fun p -> g.Gdo.Directory.g_page_versions.(p))
       cm.Obj_class.page_summary.Access_analysis.access_pages)

(* Serve a read-only leaf invocation from the node's method cache. A hit is
   a lease hit plus a body skip: the local lock is installed and the family
   registered as a lease-backed reader — so commit-time lease validation
   and recall deferral protect the cached reads exactly as they would a
   re-executed body — and the cached read log is replayed into the
   transaction. Zero messages, zero page reads, zero statement execution.
   From the lease consult to the return there is no yield, so the install
   is atomic in simulated time. Returns true when served. *)
let try_cache_serve t ~txn ~oid ~(cm : Obj_class.compiled_method) =
  if not (t.cache_enabled && cacheable_method cm) then false
  else begin
    let node = Txn_tree.node_of t.tree txn in
    let family = Txn_tree.root_of t.tree txn in
    (* The consult is charged like a local lock probe; a miss pays it on
       top of the normal acquisition (cache-off runs never reach here). *)
    Sim.Engine.wait Config.local_lock_op_us;
    check_crashed t ~txn_root:family;
    match Local_locks.family_mode t.locks.(node) oid ~family with
    | Some _ ->
        (* A same-family fiber (a prefetch) acquired the lock during the
           wait: the normal path will join it; not a cache miss. *)
        false
    | None -> (
        match lease_hit t ~node ~oid ~mode:Lock.Read with
        | None ->
            t.counters.cache_misses <- t.counters.cache_misses + 1;
            false
        | Some g -> (
            match
              Dsm.Method_cache.find t.method_caches.(node) ~oid
                ~meth:cm.Obj_class.ir.Method_ir.name ~versions:(cache_versions cm g)
            with
            | None ->
                t.counters.cache_misses <- t.counters.cache_misses + 1;
                false
            | Some reads ->
                t.counters.cache_hits <- t.counters.cache_hits + 1;
                Local_locks.install_grant t.locks.(node) oid ~txn ~mode:Lock.Read;
                set_snapshot t ~family ~oid g;
                Gdo.Lease.Cache.add_reader t.lease_caches.(node) oid ~family;
                mark_lease_backed t ~family ~oid ~node;
                List.iter (fun (page, version) -> log_read t txn ~oid ~page ~version) reads;
                record_event t (fun () ->
                    Dsm.Event.Cache_hit
                      { oid; family = txn; node; pages = List.length reads });
                true))
  end

(* Install a completed read-only leaf execution's read log, but only when
   the node's lease on the object is valid right now AND every logged read
   version matches the leased grant's page versions — the lease could have
   been recalled and re-granted at a higher epoch while the body ran, and
   an entry stored across that boundary would marry stale reads to a fresh
   version vector. Under this guard a future hit at the same vector is
   indistinguishable from re-execution. *)
let try_cache_fill t ~txn ~oid ~(cm : Obj_class.compiled_method) =
  if t.cache_enabled && cacheable_method cm then
    let node = Txn_tree.node_of t.tree txn in
    match lease_hit t ~node ~oid ~mode:Lock.Read with
    | None -> ()
    | Some g ->
        let reads =
          List.sort_uniq
            (fun (p1, v1) (p2, v2) ->
              let c = Int.compare p1 p2 in
              if c <> 0 then c else Int.compare v1 v2)
            (List.filter_map
               (fun (a : Serializability.access) ->
                 if Oid.equal a.Serializability.oid oid then Some (a.page, a.version)
                 else None)
               (log_entries (fun l -> l.al_reads) (access_log t txn) []))
        in
        if
          List.for_all
            (fun (page, version) -> g.Gdo.Directory.g_page_versions.(page) = version)
            reads
        then
          if
            Dsm.Method_cache.install t.method_caches.(node) ~oid
              ~meth:cm.Obj_class.ir.Method_ir.name ~versions:(cache_versions cm g) ~reads
          then begin
            t.counters.cache_fills <- t.counters.cache_fills + 1;
            record_event t (fun () ->
                Dsm.Event.Cache_fill { oid; node; pages = List.length reads })
          end

(* Optimistic pre-acquisition (paper §5.1): at method entry, asynchronously
   acquire — as the current transaction — the locks of the objects this
   method may invoke on, and pull their predicted pages, overlapping the
   latency with local execution. Failures are benign: the child simply
   acquires normally later. *)
let spawn_prefetches t ~txn ~oid ~(cm : Obj_class.compiled_method) =
  let node = Txn_tree.node_of t.tree txn in
  let family = Txn_tree.root_of t.tree txn in
  let targets =
    List.sort_uniq
      (fun (o1, _) (o2, _) -> Oid.compare o1 o2)
      (List.map
         (fun (slot, meth) -> (Catalog.resolve_slot t.catalog oid slot, meth))
         cm.Obj_class.summary.Access_analysis.invoked)
  in
  List.filter_map
    (fun (target, meth) ->
      match Local_locks.family_mode t.locks.(node) target ~family with
      | Some _ -> None  (* already held: nothing to hide *)
      | None ->
          let target_cm = Catalog.find_method t.catalog target meth in
          let mode =
            if target_cm.Obj_class.summary.Access_analysis.updates then Lock.Write
            else Lock.Read
          in
          let done_iv = Sim.Engine.Ivar.create () in
          Sim.Engine.spawn t.engine ~name:(fun () -> "prefetch") (fun () ->
              (* Crashed_abort included: the prefetch must always complete
                 its join ivar, or the main fiber could never unwind. *)
              (try
                 ignore
                   (acquire_object t ~txn ~oid:target ~mode
                      ~predicted:target_cm.Obj_class.page_summary.Access_analysis.access_pages
                      ~optimistic:true)
               with Family_abort | Crashed_abort -> ());
              Sim.Engine.Ivar.fill done_iv ());
          Some done_iv)
    targets

(* Paper (section 3.4): "verify compliance at run-time (with per-invocation
   overhead for checking proportional to the depth of transaction nesting at
   the point of invocation)". Walk the ancestor chain; charge one local op
   per level. *)
let check_no_recursion t ~parent ~target =
  let rec climb txn depth =
    (match Txn_id.Table.find_opt t.txn_objects txn with
    | Some o when Oid.equal o target -> raise (Recursion_rejected target)
    | _ -> ());
    match Txn_tree.parent t.tree txn with
    | Some p -> climb p (depth + 1)
    | None -> depth
  in
  let depth = climb parent 1 in
  Sim.Engine.wait (Config.local_lock_op_us *. float_of_int depth)

let rec run_body t ~prng ~txn ~oid ~(cm : Obj_class.compiled_method) =
  let node = Txn_tree.node_of t.tree txn in
  let family = Txn_tree.root_of t.tree txn in
  Txn_id.Table.replace t.txn_objects txn oid;
  if try_cache_serve t ~txn ~oid ~cm then ()
  else
    match t.escrow with
    | Some e when Escrow_layer.try_invoke e ~oid ~cm ~node ~family -> ()
    | Some _ | None -> run_body_exec t ~prng ~txn ~oid ~cm ~node ~family

and run_body_exec t ~prng ~txn ~oid ~(cm : Obj_class.compiled_method) ~node ~family =
  let mode = if cm.Obj_class.summary.Access_analysis.updates then Lock.Write else Lock.Read in
  let (_ : bool) =
    acquire_object t ~txn ~oid ~mode
      ~predicted:cm.Obj_class.page_summary.Access_analysis.access_pages ~optimistic:false
  in
  let prefetch_joins =
    if t.cfg.Config.prefetch then spawn_prefetches t ~txn ~oid ~cm else []
  in
  let layout = Catalog.layout t.catalog oid in
  let handler =
    {
      Method_ir.on_read =
        (fun a ->
          exec_statement t ~node;
          check_crashed t ~txn_root:family;
          let pages = Layout.pages_of_attr layout a in
          ensure_pages t ~family ~node ~oid
            ~predicted:cm.Obj_class.page_summary.Access_analysis.access_pages pages;
          check_crashed t ~txn_root:family;
          List.iter
            (fun page ->
              let version = Dsm.Page_store.version t.stores.(node) oid ~page in
              log_read t txn ~oid ~page ~version)
            pages);
      on_write =
        (fun a ->
          exec_statement t ~node;
          check_crashed t ~txn_root:family;
          let pages = Layout.pages_of_attr layout a in
          ensure_pages t ~family ~node ~oid
            ~predicted:cm.Obj_class.page_summary.Access_analysis.access_pages pages;
          (* The store may have been wiped to its durable versions while
             this fiber slept: writing now would corrupt restored state. *)
          check_crashed t ~txn_root:family;
          List.iter
            (fun page ->
              t.next_version <- t.next_version + 1;
              let v = t.next_version in
              let prev = Dsm.Page_store.write t.stores.(node) oid ~page ~new_version:v in
              Undo_log.record (undo_log_of t txn) ~oid ~page ~prev_version:prev;
              log_write t txn ~oid ~page ~version:v)
            pages);
      on_invoke =
        (fun slot meth ->
          exec_statement t ~node;
          check_crashed t ~txn_root:family;
          let target = Catalog.resolve_slot t.catalog oid slot in
          if t.cfg.Config.allow_recursive_catalogs then
            check_no_recursion t ~parent:txn ~target;
          invoke_child t ~prng ~parent:txn ~oid:target ~meth);
      choose = (fun p -> Sim.Prng.bernoulli prng p);
    }
  in
  let join () = List.iter Sim.Engine.Ivar.read prefetch_joins in
  (try Method_ir.interp cm.Obj_class.ir handler
   with e ->
     join ();
     raise e);
  join ();
  try_cache_fill t ~txn ~oid ~cm

(* Method dispatch. With shipping off this is exactly the pre-shipping
   dispatch: run the child's attempts at the parent's node. With shipping
   on, the cost model (or the family's established pin for the object)
   chooses the execution site; a remote site turns the dispatch into a
   [Ship_invoke]/[Ship_reply] round trip. *)
and invoke_child t ~prng ~parent ~oid ~meth =
  if not t.ship_enabled then
    run_child_attempts t ~prng ~parent ~oid ~meth ~site:(Txn_tree.node_of t.tree parent)
  else begin
    let pnode = Txn_tree.node_of t.tree parent in
    let family = Txn_tree.root_of t.tree parent in
    check_crashed t ~txn_root:family;
    let cm = Catalog.find_method t.catalog oid meth in
    let site = decide_exec_site t ~parent ~oid ~cm in
    if site = pnode then run_child_attempts t ~prng ~parent ~oid ~meth ~site
    else ship_invocation t ~prng ~parent ~oid ~meth ~family ~site
  end

(* Run a sub-transaction at [site], retrying injected failures in place. *)
and run_child_attempts t ~prng ~parent ~oid ~meth ~site =
  let cm = Catalog.find_method t.catalog oid meth in
  let family = Txn_tree.root_of t.tree parent in
  let rec attempt k =
    let txn = Txn_tree.create_child ~node:site t.tree ~parent in
    init_txn_state t txn;
    let ok =
      try
        run_body t ~prng ~txn ~oid ~cm;
        true
      with
      | Family_abort -> (
          try
            abort_sub_txn t txn;
            false
          with Crashed_abort ->
            (* The node crashed mid-abort: finish purging this level
               without undo and keep crash-unwinding. *)
            crashed_purge_sub t txn;
            raise Crashed_abort)
      | Crashed_abort as e ->
          crashed_purge_sub t txn;
          raise e
      | Recursion_rejected _ as e ->
          (* Fatal for the whole family: undo this level, keep unwinding. *)
          (try abort_sub_txn t txn with Crashed_abort -> crashed_purge_sub t txn);
          raise e
    in
    if not ok then raise Family_abort
    else if Sim.Prng.bernoulli prng t.cfg.Config.abort_probability then begin
      (* Injected failure at completion: undo and re-execute (paper §3.2:
         failed sub-transactions may be retried without discarding the rest
         of the family). *)
      t.counters.sub_aborts <- t.counters.sub_aborts + 1;
      (try abort_sub_txn t txn
       with Crashed_abort ->
         crashed_purge_sub t txn;
         raise Crashed_abort);
      if k < Config.max_sub_retries then attempt (k + 1) else raise Family_abort
    end
    else if t.ship_enabled && family_defunct t family then begin
      (* A shipped fiber whose family aborted while the body ran must not
         pre-commit into the corpse: undo this level and unwind. *)
      (try abort_sub_txn t txn with Crashed_abort -> crashed_purge_sub t txn);
      raise Family_abort
    end
    else precommit_txn t txn
  in
  attempt 0

(* Pick the execution site for an invocation of [oid]. The first dispatch
   in a family runs the cost model over the method's predicted pages and
   the GDO page map, then pins the verdict: every later invocation of the
   same object in this family joins it at the pinned site, so an object's
   locks and uncommitted pages live at one site per family. *)
and decide_exec_site t ~parent ~oid ~(cm : Obj_class.compiled_method) =
  let pnode = Txn_tree.node_of t.tree parent in
  let family = Txn_tree.root_of t.tree parent in
  let st = ship_state_of t ~family ~node:(Txn_tree.node_of t.tree family) in
  match Oid.Table.find_opt st.pins oid with
  | Some site ->
      if site <> pnode then t.counters.ships_forced <- t.counters.ships_forced + 1;
      site
  | None ->
      let params =
        match t.ship_params with Some p -> p | None -> assert false (* ship_enabled *)
      in
      let page_nodes, page_versions = Gdo.Directory.page_map t.gdo oid in
      let owners =
        List.map
          (fun page -> (page, page_nodes.(page)))
          cm.Obj_class.page_summary.Access_analysis.access_pages
      in
      let fresh page =
        Dsm.Page_store.version t.stores.(pnode) oid ~page >= page_versions.(page)
      in
      let page_bytes = t.cfg.Config.page_size + Config.page_header_bytes in
      let decision =
        Dsm.Shipping.decide params ~link:t.cfg.Config.link ~invoker:pnode ~owners ~fresh
          ~page_bytes
      in
      let site, saved_bytes =
        match decision with
        | Dsm.Shipping.Stay -> (pnode, 0)
        | Dsm.Shipping.Ship { site; saved_bytes } ->
            (* Never ship into a node inside its crash window: the model's
               page-map inputs predate the wipe. *)
            if t.crash_enabled && t.crashed.(site) then (pnode, 0)
            else (site, saved_bytes)
      in
      if site = pnode then t.counters.ship_declines <- t.counters.ship_declines + 1
      else begin
        t.counters.ships <- t.counters.ships + 1;
        t.counters.ship_bytes_saved <- t.counters.ship_bytes_saved + saved_bytes
      end;
      record_event t (fun () ->
          Dsm.Event.Ship_decision
            { oid; family; src = pnode; dst = site; shipped = site <> pnode; saved_bytes });
      Oid.Table.replace st.pins oid site;
      site

(* Ship the invocation: one [Ship_invoke] to [site], the child's attempts
   as a sub-fiber there (same prng, same family, unchanged O2PL rules —
   the invoker blocks on the reply, so family execution stays sequential),
   one [Ship_reply] back carrying the outcome. Crash handling mirrors a
   local child: a dead site (or transport give-up on either leg) fails the
   wait, and the invoker aborts the family — [crash_enter] dooms families
   with registered remote execution sites, so the usual crash-retry
   machinery applies. *)
and ship_invocation t ~prng ~parent ~oid ~meth ~family ~site =
  let params =
    match t.ship_params with Some p -> p | None -> assert false (* ship_enabled *)
  in
  let pnode = Txn_tree.node_of t.tree parent in
  let iv = Sim.Engine.Ivar.create () in
  let sw = { sw_iv = iv; sw_family = family; sw_site = site } in
  if t.crash_enabled then t.ship_waits <- sw :: t.ship_waits;
  let fail_wait () =
    if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv Ship_crashed
  in
  send_reliable t ~mtype:Dsm.Wire.Ship_invoke ~src:pnode ~dst:site
    ~bytes:params.Dsm.Shipping.invoke_bytes ~tag:(tag_of oid) ~on_abandon:fail_wait
    (fun () ->
      (* Delivery fences: a site inside its crash window executes nothing
         (the crash sweep fails the invoker's wait); a doomed or defunct
         family gets no zombie executor from a duplicate or straggling
         copy. *)
      if t.crash_enabled && t.crashed.(site) then ()
      else if is_doomed t family || family_defunct t family then ()
      else begin
        register_ship_site t ~family ~site;
        record_event t (fun () -> Dsm.Event.Ship_exec { oid; family; node = site });
        Sim.Engine.spawn t.engine ~name:(fun () -> "ship") (fun () ->
            let outcome =
              try
                run_child_attempts t ~prng ~parent ~oid ~meth ~site;
                Ship_ok
              with
              | Family_abort -> Ship_aborted
              | Crashed_abort -> Ship_crashed
              | Recursion_rejected o -> Ship_recursion o
            in
            if not (t.crash_enabled && t.crashed.(site)) then
              send_reliable t ~mtype:Dsm.Wire.Ship_reply ~src:site ~dst:pnode
                ~bytes:params.Dsm.Shipping.reply_bytes
                ~tag:(tag_of oid) ~on_abandon:fail_wait
                (fun () ->
                  if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv outcome))
      end);
  let outcome = Sim.Engine.Ivar.read iv in
  if t.crash_enabled then t.ship_waits <- List.filter (fun w -> w != sw) t.ship_waits;
  match outcome with
  | Ship_ok -> check_crashed t ~txn_root:family
  | Ship_aborted -> raise Family_abort
  | Ship_recursion o -> raise (Recursion_rejected o)
  | Ship_crashed -> if is_doomed t family then raise Crashed_abort else raise Family_abort

(* ------------------------------------------------------------------ *)
(* Root driving.                                                       *)

let create ~config:cfg ~catalog =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runtime.create: " ^ msg));
  (if not cfg.Config.allow_recursive_catalogs then
     match Catalog.validate_acyclic catalog with
     | Ok () -> ()
     | Error cycle ->
         invalid_arg
           (Format.asprintf "Runtime.create: catalog has recursive references through %a"
              (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " -> ") Oid.pp)
              cycle));
  let engine = Sim.Engine.create () in
  let metrics = Dsm.Metrics.create () in
  let counters = Dsm.Metrics.counters metrics in
  let trace =
    if cfg.Config.trace_capacity > 0 then
      Some (Sim.Trace.create ~capacity:cfg.Config.trace_capacity)
    else None
  in
  let on_message ~src:_ ~dst:_ ~kind ~bytes ~tag =
    let oid = if tag >= 0 then Oid.of_int tag else Dsm.Metrics.untagged in
    Dsm.Metrics.record_message metrics ~oid ~kind ~bytes
  in
  let on_fault ~event ~src ~dst =
    (match event with
    | Sim.Fault.Drop | Sim.Fault.Crash_drop | Sim.Fault.Partition_drop
    | Sim.Fault.Link_cut_drop ->
        counters.drops <- counters.drops + 1
    | Sim.Fault.Duplicate -> counters.duplicates <- counters.duplicates + 1
    | Sim.Fault.Pause_defer | Sim.Fault.Slow_defer -> ());
    match trace with
    | None -> ()
    | Some tr ->
        Sim.Trace.record tr ~time:(Sim.Engine.now engine)
          (Dsm.Event.Fault { fault = event; src; dst })
  in
  let net =
    Sim.Network.create ~engine ~node_count:cfg.Config.node_count ~link:cfg.Config.link
      ?faults:cfg.Config.faults ~on_fault ~on_message ()
  in
  let tree = Txn_tree.create () in
  (* Crash *or* link windows arm the whole failure-handling stack:
     heartbeats, detectors, quorum membership, failover. A partition
     makes messages loseable and nodes falsely suspectable, so it needs
     everything a crash does except the state wipe. *)
  let crash_enabled =
    match cfg.Config.faults with
    | Some f -> Sim.Fault.has_crash_windows f || Sim.Fault.has_link_windows f
    | None -> false
  in
  let t =
    {
      cfg;
      catalog;
      engine;
      net;
      tree;
      gdo = Gdo.Directory.create ();
      stores = Array.init cfg.Config.node_count (fun node -> Dsm.Page_store.create ~node);
      locks = Array.init cfg.Config.node_count (fun _ -> Local_locks.create tree);
      metrics;
      counters;
      next_version = 0;
      pending = Itbl.create 64;
      inflight = Itbl.create 16;
      transfers = Itbl.create 16;
      snapshots = Txn_id.Table.create 64;
      undo_logs = Txn_id.Table.create 64;
      txn_objects = Txn_id.Table.create 64;
      access_logs = Txn_id.Table.create 64;
      history = [];
      results = [];
      outstanding = 0;
      ran = false;
      trace;
      cpus =
        (if cfg.Config.cpu_limited then
           Some
             (Array.init cfg.Config.node_count (fun _ ->
                  Sim.Engine.Semaphore.create ~permits:1))
         else None);
      reliable = Sim.Network.faults_active net;
      next_mid = 0;
      acked = Itbl.create 256;
      seen = Itbl.create 256;
      batching = Dsm.Batching.enabled cfg.Config.batching;
      batch_acks = Dsm.Batching.enabled cfg.Config.batching && Sim.Network.faults_active net;
      pending_acks = Hashtbl.create 16;
      ack_flush_armed = Hashtbl.create 16;
      pending_releases = Hashtbl.create 16;
      release_flush_armed = Hashtbl.create 16;
      lease_enabled = Gdo.Lease.policy_enabled cfg.Config.lease;
      lease_mgr = Gdo.Lease.create cfg.Config.lease;
      lease_caches =
        Array.init cfg.Config.node_count (fun _ -> Gdo.Lease.Cache.create ());
      lease_reads = Txn_id.Table.create 64;
      lease_blocked = Itbl.create 16;
      recall_started = Itbl.create 16;
      cache_enabled = Dsm.Method_cache.policy_enabled cfg.Config.method_cache;
      method_caches =
        Array.init cfg.Config.node_count (fun _ ->
            Dsm.Method_cache.create cfg.Config.method_cache);
      crash_enabled;
      crashed = Array.make cfg.Config.node_count false;
      committed =
        (if crash_enabled then
           Array.init cfg.Config.node_count (fun node -> Dsm.Page_store.create ~node)
         else [||]);
      parked_releases = (if crash_enabled then Array.make cfg.Config.node_count [] else [||]);
      doomed = Txn_id.Table.create 16;
      live_roots = Txn_id.Table.create 16;
      rejoin = Array.make cfg.Config.node_count None;
      membership = None;
      backoffs =
        (let seed =
           match cfg.Config.faults with Some f -> f.Sim.Fault.seed | None -> 0
         in
         Array.init cfg.Config.node_count (fun node ->
             Sim.Backoff.stream ~seed ~node ~base_us:cfg.Config.request_timeout_us
               ~cap_us:Config.retransmit_backoff_cap_us));
      fetch_waits = [];
      ship_enabled = Dsm.Shipping.policy_enabled cfg.Config.shipping;
      ship_params =
        (match cfg.Config.shipping with
        | Dsm.Shipping.Off -> None
        | Dsm.Shipping.On p -> Some p);
      ship_states = Txn_id.Table.create 16;
      parked_logs = Txn_id.Table.create 16;
      ship_waits = [];
      escrow = None;
    }
  in
  if t.cache_enabled then
    for node = 0 to cfg.Config.node_count - 1 do
      register_cache_invalidation t ~node
    done;
  (* Trivial dispatch: every node executes delivered thunks, after
     membership has read a remote delivery's view and liveness proof. *)
  for node = 0 to cfg.Config.node_count - 1 do
    Sim.Network.set_handler net ~node (fun ~src (Exec f) ->
        (match t.membership with
        | Some m when src <> node && not t.crashed.(node) -> Membership.delivered m ~src ~dst:node
        | _ -> ());
        f ())
  done;
  (* Initial placement: all pages of every object live on its home node at
     version 0; the GDO entry lives on the same node. *)
  List.iter
    (fun oid ->
      let pages = Catalog.page_count catalog oid in
      let home = home_of t oid in
      Gdo.Directory.register_object t.gdo oid ~pages ~initial_node:home;
      for p = 0 to pages - 1 do
        Dsm.Page_store.receive t.stores.(home) oid ~page:p ~version:0
      done)
    (Catalog.oids catalog);
  (match cfg.Config.escrow with
  | Dsm.Escrow.Off -> ()
  | Dsm.Escrow.On p ->
      let env =
        {
          Escrow_layer.engine;
          gdo = t.gdo;
          tree;
          counters;
          record_event = record_event t;
          home_of = home_of t;
          send =
            (fun ~mtype ~src ~dst ~oid f ->
              send_exec t ~mtype ~src ~dst ~bytes:cfg.Config.control_msg_bytes ~tag:(tag_of oid) f);
          exec_statement = exec_statement t;
          deliver_grant = deliver_deferred_grant t;
          refuse_waiter = refuse_waiter t;
        }
      in
      t.escrow <- Some (Escrow_layer.create env p ~node_count:cfg.Config.node_count catalog));
  if crash_enabled then
    t.membership <-
      Some
        (Membership.create
           {
             Membership.engine;
             cfg;
             metrics;
             record_event = record_event t;
             send =
               (fun ~mtype ~src ~dst f ->
                 send_exec t ~mtype ~src ~dst ~bytes:cfg.Config.control_msg_bytes ~tag:(-1) f);
             crashed = (fun node -> t.crashed.(node));
             gdo = t.gdo;
             lease_mgr = t.lease_mgr;
             catalog;
             fail_stranded =
               (fun ~node -> fail_inflight t (fun oid_i _ -> routed_to t ~node oid_i));
             reclaim = (fun ~node -> reclaim_dead_node t ~node ~repoint:true);
           });
  t

let submit t ~at ~node ~oid ~meth ~seed =
  if t.ran then invalid_arg "Runtime.submit: run already completed";
  if node < 0 || node >= t.cfg.Config.node_count then
    invalid_arg "Runtime.submit: node out of range";
  let cm = Catalog.find_method t.catalog oid meth in
  t.outstanding <- t.outstanding + 1;
  let name () = Format.asprintf "root:%a.%s@%d" Oid.pp oid meth node in
  Sim.Engine.schedule t.engine ~delay:at (fun () ->
      Sim.Engine.spawn t.engine ~name (fun () ->
          let prng = Sim.Prng.create ~seed in
          let submitted_at = Sim.Engine.now t.engine in
          (* Time of the family's first crash abort, if any: closed into the
             recovery-latency histogram when the family finally commits. *)
          let first_crash_at = ref None in
          let rec attempt k =
            (* A node inside a crash window executes nothing, and a node
               parked on the minority side of a partition starts no new
               roots: wait out both before starting (or retrying) an
               attempt. Re-check after every wake — a park can resolve into
               a crash (and vice versa) while the fiber slept. *)
            let rec wait_ready () =
              if t.crash_enabled && t.crashed.(node) then (
                match t.rejoin.(node) with
                | Some iv ->
                    Sim.Engine.Ivar.read iv;
                    wait_ready ()
                | None -> ())
              else
                match Option.bind t.membership (Membership.park_wait ~node) with
                | Some iv ->
                    Sim.Engine.Ivar.read iv;
                    wait_ready ()
                | None -> ()
            in
            wait_ready ();
            let root = Txn_tree.create_root t.tree ~node in
            init_txn_state t root;
            if t.crash_enabled then Txn_id.Table.replace t.live_roots root ();
            record_event t (fun () ->
                Dsm.Event.Root_begin { family = root; node; oid; attempt = k + 1 });
            let ok =
              try
                run_body t ~prng ~txn:root ~oid ~cm;
                (* TTL doom: a lease-backed read whose lease has expired or
                   been superseded is no longer protected against writers —
                   the family must retry rather than commit it. *)
                if validate_lease_reads t ~family:root then begin
                  (* Commit point: after this check the family is no longer
                     doomable and [commit_root] runs without yielding. *)
                  Sim.Engine.wait Config.local_lock_op_us;
                  check_crashed t ~txn_root:root;
                  if t.crash_enabled then Txn_id.Table.remove t.live_roots root;
                  commit_root t root;
                  `Committed
                end
                else begin
                  t.counters.lease_aborts <- t.counters.lease_aborts + 1;
                  record_event t (fun () ->
                      Dsm.Event.Lease_abort { family = root; node; oid = None });
                  abort_root t root;
                  `Retry
                end
              with
              | Family_abort -> (
                  try
                    abort_root t root;
                    `Retry
                  with Crashed_abort ->
                    crashed_purge_root t root;
                    `Crashed)
              | Crashed_abort ->
                  crashed_purge_root t root;
                  `Crashed
              | Recursion_rejected target ->
                  record_event t (fun () ->
                      Dsm.Event.Recursion_reject { family = root; oid = target });
                  (try abort_root t root with Crashed_abort -> crashed_purge_root t root);
                  `Fatal
            in
            let ok =
              match ok with
              | `Crashed ->
                  if !first_crash_at = None then
                    first_crash_at := Some (Sim.Engine.now t.engine);
                  `Retry
              | (`Committed | `Retry | `Fatal) as o -> o
            in
            match ok with
            | `Committed ->
                (match !first_crash_at with
                | Some t0 ->
                    Dsm.Metrics.record_recovery_latency_us t.metrics
                      (Sim.Engine.now t.engine -. t0)
                | None -> ());
                Dsm.Metrics.record_commit_latency_us t.metrics
                  (Sim.Engine.now t.engine -. submitted_at);
                (k + 1, Committed)
            | `Fatal ->
                t.counters.roots_aborted <- t.counters.roots_aborted + 1;
                (k + 1, Gave_up)
            | `Retry when k < Config.max_root_retries -> begin
              t.counters.retries <- t.counters.retries + 1;
              let backoff =
                Config.root_retry_backoff_us
                *. float_of_int (1 lsl min k 6)
                *. (1.0 +. Sim.Prng.float prng 1.0)
              in
              Sim.Engine.wait backoff;
              attempt (k + 1)
            end
            | `Retry ->
                t.counters.roots_aborted <- t.counters.roots_aborted + 1;
                (k + 1, Gave_up)
          in
          let attempts, outcome = attempt 0 in
          if not t.cfg.Config.streaming then
            t.results <-
              {
                oid;
                meth;
                node;
                submitted_at;
                completed_at = Sim.Engine.now t.engine;
                attempts;
                outcome;
              }
              :: t.results;
          t.outstanding <- t.outstanding - 1))

(* Crash windows open and close on schedule, and membership starts its
   heartbeat loops. *)
let run t =
  (match t.membership with
  | Some m when not t.ran ->
      let faults = Option.value t.cfg.Config.faults ~default:Sim.Fault.none in
      List.iter
        (fun (w : Sim.Fault.window) ->
          let node = w.Sim.Fault.w_node in
          Sim.Engine.schedule t.engine ~delay:w.Sim.Fault.w_from_us (fun () ->
              if not t.crashed.(node) then crash_enter t ~node);
          Sim.Engine.schedule t.engine ~delay:w.Sim.Fault.w_until_us (fun () ->
              if t.crashed.(node) then crash_rejoin t ~node))
        (Sim.Fault.crash_windows faults);
      Membership.run m
  | _ -> ());
  Sim.Engine.run t.engine;
  (match t.escrow with
  | Some e ->
      Escrow_layer.flush e;
      Sim.Engine.run t.engine
  | None -> ());
  t.ran <- true;
  assert (t.outstanding = 0);
  Dsm.Metrics.set_completion_time_us t.metrics (Sim.Engine.now t.engine)

let results t = List.rev t.results
let committed_history t = List.rev t.history

let check_escrow t = match t.escrow with None -> Ok [] | Some e -> Escrow_layer.check e

let membership_epoch t = match t.membership with Some m -> Membership.epoch m | None -> 0

let audit t =
  let dir = Gdo.Directory.audit t.gdo in
  match t.membership with Some m -> dir @ Membership.audit m | None -> dir

let dump_directory t =
  match t.membership with
  | None -> Gdo.Directory.dump t.gdo
  | Some m ->
      Gdo.Directory.dump t.gdo ~partition_info:(fun oid ->
          Membership.partition_info m (Oid.to_int oid mod t.cfg.Config.node_count))

let check_serializable t = Serializability.check (committed_history t)
let next_version_exceeds t n = t.next_version > n
