open Objmodel

type env = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  metrics : Dsm.Metrics.t;
  record_event : (unit -> Dsm.Event.t) -> unit;
  send : mtype:Dsm.Wire.t -> src:int -> dst:int -> (unit -> unit) -> unit;
  crashed : int -> bool;
  gdo : Gdo.Directory.t;
  lease_mgr : Gdo.Lease.t;
  catalog : Catalog.t;
  fail_stranded : node:int -> unit;
  reclaim : node:int -> unit;
}

(* A suspicion becomes a declaration only when a majority of the
   not-yet-declared observers corroborate it from their own detectors.
   Every declaration or readmission bumps the membership epoch;
   acquisition requests are stamped with the sender's epoch view and
   refused when stale, fencing out the regime of a falsely-declared
   (partitioned, not crashed) home. *)
type t = {
  env : env;
  counters : Dsm.Metrics.totals;  (* the runtime's live counter record *)
  n : int;
  detectors : Sim.Failure_detector.t array;  (* one observer per node *)
  (* (observer, node, incarnation) suspicions already recorded, to trace
     each suspicion once rather than once per heartbeat tick. *)
  suspected_seen : (int * int * int, unit) Hashtbl.t;
  (* (suspect, incarnation) -> observers that voted; a vote is recorded
     only from an observer whose own detector suspects the node. *)
  votes : (int * int, (int, unit) Hashtbl.t) Hashtbl.t;
  incarnation : int array;  (* bumped at every rejoin and readmission *)
  mutable epoch : int;  (* global; bumped per declaration/readmission *)
  epoch_view : int array;  (* node -> highest epoch it has heard of *)
  (* node -> declared dead by quorum under its current incarnation. Every
     readmission and rejoin clears it and bumps the incarnation, so one
     incarnation is declared (and reclaimed) at most once across all
     observers. *)
  declared : bool array;
  acting_home : int array;  (* partition -> node serving it *)
  acting_epoch : int array;  (* partition -> epoch of its last acting-home change *)
  (* node -> instant before which a successor must not serve the node's
     home partition: the latest expiry of any read lease the node granted
     (lease-expiry fencing; 0 with leases off). *)
  fence_until : float array;
  parked : bool array;  (* see [update_parking] *)
  park_ivars : unit Sim.Engine.Ivar.t option array;
  (* (epoch, partition, serving) appended per acting-home change, newest
     first: the split-brain check's input. *)
  mutable log : (int * int * int) list;
  (* Heartbeat suppression (batching on): src * n + dst -> time of the
     channel's last outbound remote message. Empty with batching off. *)
  suppress : bool;
  last_traffic : float array;
}

let create env =
  let n = env.cfg.Config.node_count in
  let suppress = Dsm.Batching.enabled env.cfg.Config.batching in
  {
    env;
    counters = Dsm.Metrics.counters env.metrics;
    n;
    detectors =
      Array.init n (fun i ->
          let d =
            Sim.Failure_detector.create ~node_count:n ~timeout_us:env.cfg.Config.suspect_timeout_us
          in
          Sim.Failure_detector.set_self d i;
          d);
    suspected_seen = Hashtbl.create 16;
    votes = Hashtbl.create 8;
    incarnation = Array.make n 0;
    epoch = 0;
    epoch_view = Array.make n 0;
    declared = Array.make n false;
    acting_home = Array.init n (fun i -> i);
    acting_epoch = Array.make n 0;
    fence_until = Array.make n 0.0;
    parked = Array.make n false;
    park_ivars = Array.make n None;
    log = [];
    suppress;
    last_traffic = (if suppress then Array.make (n * n) neg_infinity else [||]);
  }

let now t = Sim.Engine.now t.env.engine
let home_of t partition = t.acting_home.(partition)
let incarnation t node = t.incarnation.(node)
let epoch t = t.epoch
let epoch_view t node = t.epoch_view.(node)

(* Send one control message from [src] to every other live node but
   [skip], [f dst] running at [dst] on delivery. *)
let send_others ?(skip = -1) t ~mtype ~src f =
  for dst = 0 to t.n - 1 do
    if dst <> src && dst <> skip && not (t.env.crashed dst) then
      t.env.send ~mtype ~src ~dst (fun () -> f dst)
  done

(* A majority of the nodes not currently declared dead. *)
let majority t =
  let live = ref 0 in
  for i = 0 to t.n - 1 do
    if not t.declared.(i) then incr live
  done;
  (!live / 2) + 1

(* ------------------------------------------------------------------ *)
(* Acting homes: failover and failback.                                *)

(* Conservative state reconstruction, traffic side: the successor
   re-confirms the holders of every entry of the partition it takes over.
   In-process the directory structure is shared, so only the messages are
   modelled; the genuinely ambiguous families — those of the crashed home
   itself — are aborted by the dead-family eviction. *)
let send_failover_confirms t ~home ~successor =
  let dests = Hashtbl.create 8 in
  List.iter
    (fun oid ->
      if Oid.to_int oid mod t.n = home then
        List.iter
          (fun (h : Gdo.Directory.holder) ->
            if h.node <> successor && not (t.env.crashed h.node) then
              Hashtbl.replace dests h.node ())
          (Gdo.Directory.holders t.env.gdo oid))
    (Catalog.oids t.env.catalog);
  (* Sorted, not hash order: the send sequence must be hash-seed
     independent. *)
  Hashtbl.fold (fun dst () acc -> dst :: acc) dests []
  |> List.sort Int.compare
  |> List.iter (fun dst ->
         t.env.send ~mtype:Dsm.Wire.Failover_confirm ~src:successor ~dst (fun () -> ()))

(* Re-derive, for every partition, the node currently serving it: the home
   itself while not *declared* dead; with replication, a declared home's
   first undeclared ring successor (a replica site) until the readmission
   or rejoin. Failover keys off the quorum declaration, never off ground
   truth — the gap between a crash and its declaration is a real
   availability gap, and a false declaration really does move the
   partition (the epoch fence keeps that safe). Each change stamps the
   partition with the current membership epoch and appends to the
   acting-home log the split-brain check reads. Survivors re-route through
   [home_of] from the next send on — the sim's stand-in for the
   client-side timeout-and-redirect a real deployment would run. *)
let recompute_acting_homes t =
  let replicas = t.env.cfg.Config.gdo_replicas in
  for p = 0 to t.n - 1 do
    let serving =
      if not t.declared.(p) then p
      else if replicas = 0 then p
      else
        let rec scan i =
          if i > replicas then p  (* every replica declared too *)
          else
            let c = (p + i) mod t.n in
            if not t.declared.(c) then c else scan (i + 1)
        in
        scan 1
    in
    if serving <> t.acting_home.(p) then begin
      t.acting_home.(p) <- serving;
      t.acting_epoch.(p) <- t.epoch;
      t.log <- (t.epoch, p, serving) :: t.log;
      if serving <> p then begin
        t.counters.failovers <- t.counters.failovers + 1;
        t.env.record_event (fun () -> Dsm.Event.Failover { home = p; successor = serving });
        send_failover_confirms t ~home:p ~successor:serving
      end
      else t.env.record_event (fun () -> Dsm.Event.Failback { home = p })
    end
  done

(* ------------------------------------------------------------------ *)
(* Views, declarations and readmissions.                               *)

(* Announce the current membership epoch from [src]. The View_change
   message makes the bump explicit on the wire; every other delivered
   remote message also max-merges the sender's view at the receiver (see
   [delivered]), so a dropped announcement only delays convergence, never
   prevents it. *)
let broadcast_view_change t ~src =
  let epoch = t.epoch in
  if epoch > t.epoch_view.(src) then t.epoch_view.(src) <- epoch;
  send_others t ~mtype:Dsm.Wire.View_change ~src (fun dst ->
      if epoch > t.epoch_view.(dst) then t.epoch_view.(dst) <- epoch)

(* Clear [s]'s declaration and its lease fence under a new epoch, and
   announce the view from [s]. *)
let undeclare t s =
  t.declared.(s) <- false;
  t.fence_until.(s) <- 0.0;
  t.epoch <- t.epoch + 1;
  broadcast_view_change t ~src:s

(* The quorum size right now: a majority of the nodes not currently
   declared dead. Degenerate clusters (<= 2 nodes) use 1 — there is no
   third observer to corroborate, and requiring 2 of 2 would let a single
   crash block its own declaration forever. *)
let quorum t = if t.n <= 2 then 1 else majority t

(* A quorum of live observers corroborated the suspicion: declare the
   node dead. The declaration is a membership decision, not ground truth
   — a falsely declared node (partitioned away, not crashed) is fenced
   out by the epoch bump until one of its messages is delivered again
   (see [readmit], the rejoin path that never wipes state). *)
let declare_dead t ~suspect:s ~by:o =
  let now = now t in
  let inc = t.incarnation.(s) in
  t.declared.(s) <- true;
  t.counters.nodes_declared_dead <- t.counters.nodes_declared_dead + 1;
  (* Ground truth is consulted for METRICS ONLY — the declaration itself
     never reads [crashed]. *)
  if not (t.env.crashed s) then
    t.counters.false_suspicions <- t.counters.false_suspicions + 1;
  (* Declaration latency: from the start of the suspect's silence (the
     declarer's last liveness proof) to the quorum verdict — the window
     during which a genuinely dead node's partition is unavailable.
     First-suspicion-to-verdict would read ~0 here: detectors sweep on
     synchronized ticks, so suspicion and quorum often land in the same
     instant. *)
  Dsm.Metrics.record_declaration_latency_us t.env.metrics
    (now -. Sim.Failure_detector.last_heard t.detectors.(o) ~node:s);
  t.env.record_event (fun () -> Dsm.Event.Node_dead { node = s; incarnation = inc; by = o });
  (* Gossip the final verdict as detector hints, so every survivor's view
     converges without waiting out its own timeout. A later heartbeat
     from the node clears the hint (Failure_detector.heartbeat), so a
     readmitted node does not flap. *)
  send_others t ~mtype:Dsm.Wire.Suspect ~src:o (fun dst ->
      Sim.Failure_detector.hint t.detectors.(dst) ~node:s);
  (* New membership regime: requests stamped under the old view —
     including any from the declared node itself — are refused by the
     acting homes until their senders catch up. *)
  t.epoch <- t.epoch + 1;
  broadcast_view_change t ~src:o;
  (* Lease-expiry fencing: the successor may serve the dead home's
     partition only once every read lease that home granted has provably
     expired or been recalled. With leases off this is [now] — no wait. *)
  let fence = ref now in
  List.iter
    (fun oid ->
      if Oid.to_int oid mod t.n = s then
        fence := Float.max !fence (Gdo.Lease.fence_deadline t.env.lease_mgr oid ~now))
    (Catalog.oids t.env.catalog);
  t.fence_until.(s) <- !fence;
  (* Acquires already routed to partitions the dead node was serving
     would otherwise wait out the full capped retransmit schedule; fail
     them now, against the pre-failover routing, so their families retry
     against the new acting homes. *)
  t.env.fail_stranded ~node:s;
  recompute_acting_homes t;
  (* Directory reclamation of the dead node's residue waits for the lease
     fence, and stands down unless the node is genuinely crashed and
     still declared under this incarnation: a live node's locks are never
     stolen, which is exactly what makes a false declaration harmless to
     safety (doomed families are the only evictees; a false declaration
     dooms nothing). *)
  let delay = Float.max Config.gdo_op_us (!fence -. now) in
  Sim.Engine.schedule t.env.engine ~delay (fun () ->
      if t.env.crashed s && t.declared.(s) && t.incarnation.(s) = inc then t.env.reclaim ~node:s)

(* Record [observer]'s vote that [suspect] is dead, and declare on
   quorum. A vote is recorded at most once per (suspect, incarnation,
   observer); only votes from observers not themselves declared count. *)
let record_vote t ~suspect:s ~observer:o =
  let key = (s, t.incarnation.(s)) in
  if not t.declared.(s) then begin
    let tally =
      match Hashtbl.find_opt t.votes key with
      | Some tl -> tl
      | None ->
          let tl = Hashtbl.create 4 in
          Hashtbl.add t.votes key tl;
          tl
    in
    if not (Hashtbl.mem tally o) then begin
      Hashtbl.replace tally o ();
      t.counters.quorum_votes <- t.counters.quorum_votes + 1
    end;
    let live_votes =
      Hashtbl.fold (fun ob () acc -> if t.declared.(ob) then acc else acc + 1) tally 0
    in
    if live_votes >= quorum t then declare_dead t ~suspect:s ~by:o
  end

(* One detector sweep for [observer]: vote for every current suspect and
   gossip the suspicion to the other live nodes. A receiver corroborates
   ONLY when its own detector independently agrees — gossip never feeds a
   detector, or a single partitioned-away observer could manufacture a
   quorum by itself. The gossip is re-sent every sweep until the
   declaration (or until the suspicion clears), so votes lost to the very
   partition under suspicion are re-offered after the heal. *)
let check_suspects t ~observer:o =
  List.iter
    (fun s ->
      let seen_key = (o, s, t.incarnation.(s)) in
      if not (Hashtbl.mem t.suspected_seen seen_key) then begin
        Hashtbl.replace t.suspected_seen seen_key ();
        t.env.record_event (fun () -> Dsm.Event.Node_suspected { node = s; by = o })
      end;
      if not t.declared.(s) then begin
        record_vote t ~suspect:s ~observer:o;
        if not t.declared.(s) then
          send_others t ~skip:s ~mtype:Dsm.Wire.Suspect ~src:o (fun dst ->
              if
                (not (t.env.crashed dst))
                && Sim.Failure_detector.is_suspect t.detectors.(dst) ~node:s ~now:(now t)
              then record_vote t ~suspect:s ~observer:dst)
      end)
    (Sim.Failure_detector.suspects t.detectors.(o) ~now:(now t))

(* A message from a declared-dead, not-actually-crashed node was
   delivered: the declaration was false. Readmit the node — bump its
   incarnation (the spent (node, incarnation) key keeps the old regime's
   stragglers fenced), clear the declaration under a new view and hand
   its partitions back. Nothing is wiped: reclamation only ever runs
   against genuinely crashed nodes, so a false declaration costs
   availability, never state. *)
let readmit t ~node:s =
  t.incarnation.(s) <- t.incarnation.(s) + 1;
  t.counters.node_readmissions <- t.counters.node_readmissions + 1;
  t.env.record_event (fun () ->
      Dsm.Event.Node_readmitted { node = s; incarnation = t.incarnation.(s) });
  undeclare t s;
  recompute_acting_homes t

(* ------------------------------------------------------------------ *)
(* Minority-side self-parking: a node whose own detector can reach fewer
   than a majority of the eligible (undeclared) nodes stops serving the
   directory and starts no new roots — it may be on the minority side of
   a partition, where continuing to grant is what the majority side's
   failover would turn into a split brain. Re-evaluated every detector
   sweep; a symmetric even split parks both sides, and everyone resumes
   at the heal. Only meaningful with >= 3 nodes: a 2-node cluster has no
   majority to protect.                                                 *)

let unpark t ~node:s =
  if t.parked.(s) then begin
    t.parked.(s) <- false;
    (match t.park_ivars.(s) with
    | Some iv ->
        t.park_ivars.(s) <- None;
        if not (Sim.Engine.Ivar.is_filled iv) then Sim.Engine.Ivar.fill iv ()
    | None -> ());
    t.env.record_event (fun () -> Dsm.Event.Node_parked { node = s; parked = false })
  end

let update_parking t ~node:s =
  if t.n >= 3 && (not (t.env.crashed s)) && not t.declared.(s) then begin
    let now = now t in
    let reachable = ref 0 in
    for i = 0 to t.n - 1 do
      if
        (not t.declared.(i))
        && (i = s || not (Sim.Failure_detector.is_suspect t.detectors.(s) ~node:i ~now))
      then incr reachable
    done;
    if !reachable < majority t then begin
      if not t.parked.(s) then begin
        t.parked.(s) <- true;
        t.park_ivars.(s) <- Some (Sim.Engine.Ivar.create ());
        t.counters.node_parks <- t.counters.node_parks + 1;
        t.env.record_event (fun () -> Dsm.Event.Node_parked { node = s; parked = true })
      end
    end
    else unpark t ~node:s
  end

let park_wait t ~node = if t.parked.(node) then t.park_ivars.(node) else None

(* ------------------------------------------------------------------ *)
(* The runtime's questions.                                            *)

type admission = Serve | Refuse | Defer of float

let admit t ~home ~partition:p ~epoch =
  if t.acting_home.(p) <> home || epoch < t.acting_epoch.(p) || t.declared.(home) || t.parked.(home)
  then begin
    (* Epoch fence: this node is not the partition's acting home under
       the current view, the request predates the view that installed the
       acting home, or the node is declared/parked and must not grant.
       The requester re-routes under its caught-up view. *)
    t.counters.stale_epoch_rejects <- t.counters.stale_epoch_rejects + 1;
    Refuse
  end
  else if home <> p && now t < t.fence_until.(p) then begin
    (* Lease fence: a successor serving a dead home's partition must wait
       out every read lease the dead home granted — a stale lease-holder
       could otherwise read while the successor grants a conflicting
       write. *)
    t.counters.fence_deferrals <- t.counters.fence_deferrals + 1;
    Defer (t.fence_until.(p) -. now t)
  end
  else Serve

(* Any outbound remote message proves the sender alive to the
   destination ([delivered] feeds the failure detector on every delivery
   when batching is on). *)
let note_traffic t ~src ~dst =
  if t.suppress then t.last_traffic.((src * t.n) + dst) <- now t

(* A give-up is no evidence against a node heard from after the message
   last left (it rejoined, or its link healed): such a hint would ripen
   into a false declaration. *)
let hint t ~observer ~node ~sent =
  let d = t.detectors.(observer) in
  if Sim.Failure_detector.last_heard d ~node <= sent then Sim.Failure_detector.hint d ~node

let delivered t ~src ~dst =
  (* With heartbeat suppression any delivered remote message is a
     liveness proof: it refreshes the receiver's detector exactly as a
     Heartbeat would, which is what lets the sender suppress the periodic
     one on an active channel. *)
  if t.suppress then Sim.Failure_detector.heartbeat t.detectors.(dst) ~node:src ~now:(now t);
  (* Epoch piggybacking: the delivery carries the sender's view. A
     delivery from a declared-dead node that is not in fact crashed is
     living proof the declaration was false — readmit it. *)
  if t.epoch_view.(src) > t.epoch_view.(dst) then t.epoch_view.(dst) <- t.epoch_view.(src);
  if t.declared.(src) && not (t.env.crashed src) then readmit t ~node:src

(* No failover at a crash: the partition moves only at the quorum
   declaration — ground truth never drives membership. A parked node that
   crashes is force-unparked so waiters re-check and land on the rejoin
   wait instead. *)
let crash_enter t ~node = unpark t ~node

let crash_rejoin t ~node:d =
  t.incarnation.(d) <- t.incarnation.(d) + 1;
  t.env.record_event (fun () ->
      Dsm.Event.Node_restart { node = d; incarnation = t.incarnation.(d) });
  (* Stand-in for the rejoin announcement a restarted node would broadcast:
     refresh detector state directly so the node is neither re-declared nor
     stuck seeing everyone else as silent. *)
  let now = now t in
  for o = 0 to t.n - 1 do
    if o <> d then begin
      Sim.Failure_detector.heartbeat t.detectors.(o) ~node:d ~now;
      Sim.Failure_detector.heartbeat t.detectors.(d) ~node:o ~now
    end
  done;
  if t.declared.(d) then undeclare t d;
  recompute_acting_homes t

(* Heartbeats run from time 0 to a fixed horizon past the last crash or
   link window (plus the suspect timeout): late enough that any crash is
   detected and declared, bounded so the event queue drains and the run
   terminates. *)
let run t =
  let cfg = t.env.cfg in
  let faults = Option.value cfg.Config.faults ~default:Sim.Fault.none in
  let horizon =
    List.fold_left Float.max 0.0
      (List.map (fun w -> w.Sim.Fault.w_until_us) (Sim.Fault.crash_windows faults)
      @ List.map (fun lw -> lw.Sim.Fault.lw_until_us) faults.Sim.Fault.link_windows)
    +. cfg.Config.suspect_timeout_us
    +. (2.0 *. cfg.Config.heartbeat_interval_us)
  in
  let period = cfg.Config.heartbeat_interval_us in
  let rec tick s =
    Sim.Engine.schedule t.env.engine ~delay:period (fun () ->
        if now t <= horizon then begin
          if not (t.env.crashed s) then begin
            let now = now t in
            for dst = 0 to t.n - 1 do
              if dst <> s then
                if t.suppress && t.last_traffic.((s * t.n) + dst) > now -. period
                then begin
                  (* The channel carried a message within the last period:
                     its delivery already refreshed dst's detector, so the
                     periodic heartbeat is redundant. Accounted as a
                     0-message/0-byte rider so the suppression stays
                     visible in the ledger. *)
                  t.counters.heartbeats_suppressed <- t.counters.heartbeats_suppressed + 1;
                  Dsm.Metrics.record_rider t.env.metrics ~mtype:Dsm.Wire.Heartbeat ~count:1
                    ~bytes:0;
                  t.env.record_event (fun () ->
                      Dsm.Event.Heartbeat_suppressed { src = s; dst })
                end
                else
                  t.env.send ~mtype:Dsm.Wire.Heartbeat ~src:s ~dst (fun () ->
                      Sim.Failure_detector.heartbeat t.detectors.(dst) ~node:s
                        ~now:(Sim.Engine.now t.env.engine))
            done;
            check_suspects t ~observer:s;
            update_parking t ~node:s
          end;
          tick s
        end
        else unpark t ~node:s)
  in
  for s = 0 to t.n - 1 do
    tick s
  done

(* ------------------------------------------------------------------ *)
(* The split-brain check.                                              *)

(* Split-brain would show up in the acting-home log as two different
   nodes recorded as serving the same partition at the same membership
   epoch — two regimes both believing they own the directory partition.
   Epochs must also be non-decreasing along the log: a regression would
   mean an acting home was installed under a stale view. *)
let check_log log =
  let seen = Hashtbl.create 16 in
  let check (last, vs) (epoch, partition, serving) =
    let vs =
      match Hashtbl.find_opt seen (epoch, partition) with
      | Some other when other <> serving ->
          Printf.sprintf "partition %d served by both node %d and node %d at membership epoch %d"
            partition other serving epoch
          :: vs
      | Some _ -> vs
      | None ->
          Hashtbl.replace seen (epoch, partition) serving;
          vs
    in
    if epoch < last then
      ( last,
        Printf.sprintf "membership epoch regressed to %d at partition %d" epoch partition :: vs )
    else (epoch, vs)
  in
  List.rev (snd (List.fold_left check (0, []) (List.rev log)))

let audit t =
  let left node flag what =
    if flag.(node) then [ Printf.sprintf "node %d still %s after the run" node what ] else []
  in
  check_log t.log
  @ List.concat
      (List.init t.n (fun node ->
           left node t.declared "declared dead" @ left node t.parked "parked"))

let partition_info t p =
  Printf.sprintf "[p%d acting=%d@e%d fence=%.0f%s%s]" p t.acting_home.(p) t.acting_epoch.(p)
    t.fence_until.(p)
    (if t.declared.(p) then " declared-down" else "")
    (if t.parked.(p) then " parked" else "")
