open Objmodel

type per_object = {
  mutable messages : int;
  mutable control_messages : int;
  mutable control_bytes : int;
  mutable data_messages : int;
  mutable data_bytes : int;
  mutable demand_fetches : int;
  mutable acquisitions : int;
}

type totals = {
  mutable roots_committed : int;
  mutable roots_aborted : int;
  mutable deadlock_aborts : int;
  mutable sub_aborts : int;
  mutable retries : int;
  mutable local_acquisitions : int;
  mutable global_acquisitions : int;
  mutable upgrades : int;
  mutable eager_pushes : int;
  mutable demand_fetches : int;
  mutable drops : int;
  mutable duplicates : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable gdo_releases : int;
  mutable lease_grants : int;
  mutable lease_hits : int;
  mutable lease_recalls : int;
  mutable lease_yields : int;
  mutable lease_expiries : int;
  mutable lease_aborts : int;
  mutable give_ups : int;
  mutable crash_aborts : int;
  mutable nodes_declared_dead : int;
  mutable families_reclaimed : int;
  mutable failovers : int;
  mutable quorum_votes : int;
  mutable false_suspicions : int;
  mutable node_readmissions : int;
  mutable stale_epoch_rejects : int;
  mutable fence_deferrals : int;
  mutable node_parks : int;
  mutable acks_piggybacked : int;
  mutable acks_flushed : int;
  mutable fetches_aggregated : int;
  mutable releases_coalesced : int;
  mutable heartbeats_suppressed : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_fills : int;
  mutable cache_invalidations : int;
  mutable ships : int;
  mutable ship_declines : int;
  mutable ships_forced : int;
  mutable ship_bytes_saved : int;
  mutable escrow_reserves : int;
  mutable escrow_local_commits : int;
  mutable escrow_reconciles : int;
  mutable escrow_recalls : int;
  mutable escrow_yields : int;
  mutable escrow_refusals : int;
  mutable escrow_quota_units : int;
}

type t = {
  objects : per_object Oid.Table.t;
  counters : totals;
  mutable completion_time_us : float;
  (* Per-message-type ledger, indexed by Wire.index; reconciles exactly with
     the per-object message/byte totals (every remote send is recorded in
     both, retransmitted copies included). *)
  wire_counts : int array;
  wire_bytes : int array;
  (* Riders: control payloads combined onto a carrier message of another
     type (piggybacked acks, traffic-suppressed heartbeats). A rider adds
     its bytes under its own type but zero messages — the carrier already
     counted one message and its total (base + rider) bytes went on the
     wire — so both reconciliation equalities keep holding exactly. *)
  wire_riders : int array;
  (* Latency histograms (HDR-style, see Histogram). *)
  acquire_latency : Histogram.t;
  commit_latency : Histogram.t;
  recall_latency : Histogram.t;
  recovery_latency : Histogram.t;
  declaration_latency : Histogram.t;
}

let untagged = Oid.of_int 0x3FFFFFFF

let create () =
  {
    objects = Oid.Table.create 128;
    counters =
      {
        roots_committed = 0;
        roots_aborted = 0;
        deadlock_aborts = 0;
        sub_aborts = 0;
        retries = 0;
        local_acquisitions = 0;
        global_acquisitions = 0;
        upgrades = 0;
        eager_pushes = 0;
        demand_fetches = 0;
        drops = 0;
        duplicates = 0;
        retransmits = 0;
        timeouts = 0;
        gdo_releases = 0;
        lease_grants = 0;
        lease_hits = 0;
        lease_recalls = 0;
        lease_yields = 0;
        lease_expiries = 0;
        lease_aborts = 0;
        give_ups = 0;
        crash_aborts = 0;
        nodes_declared_dead = 0;
        families_reclaimed = 0;
        failovers = 0;
        quorum_votes = 0;
        false_suspicions = 0;
        node_readmissions = 0;
        stale_epoch_rejects = 0;
        fence_deferrals = 0;
        node_parks = 0;
        acks_piggybacked = 0;
        acks_flushed = 0;
        fetches_aggregated = 0;
        releases_coalesced = 0;
        heartbeats_suppressed = 0;
        cache_hits = 0;
        cache_misses = 0;
        cache_fills = 0;
        cache_invalidations = 0;
        ships = 0;
        ship_declines = 0;
        ships_forced = 0;
        ship_bytes_saved = 0;
        escrow_reserves = 0;
        escrow_local_commits = 0;
        escrow_reconciles = 0;
        escrow_recalls = 0;
        escrow_yields = 0;
        escrow_refusals = 0;
        escrow_quota_units = 0;
      };
    completion_time_us = 0.0;
    wire_counts = Array.make Wire.count 0;
    wire_bytes = Array.make Wire.count 0;
    wire_riders = Array.make Wire.count 0;
    acquire_latency = Histogram.create ();
    commit_latency = Histogram.create ();
    recall_latency = Histogram.create ();
    recovery_latency = Histogram.create ();
    declaration_latency = Histogram.create ();
  }

let counters t = t.counters

(* A fresh record: the copy does not follow later updates of the live one. *)
let totals t = { t.counters with roots_committed = t.counters.roots_committed }

let zero () =
  {
    messages = 0;
    control_messages = 0;
    control_bytes = 0;
    data_messages = 0;
    data_bytes = 0;
    demand_fetches = 0;
    acquisitions = 0;
  }

let entry t oid =
  match Oid.Table.find_opt t.objects oid with
  | Some e -> e
  | None ->
      let e = zero () in
      Oid.Table.add t.objects oid e;
      e

let record_message t ~oid ~kind ~bytes =
  let e = entry t oid in
  e.messages <- e.messages + 1;
  match (kind : Sim.Network.kind) with
  | Control ->
      e.control_messages <- e.control_messages + 1;
      e.control_bytes <- e.control_bytes + bytes
  | Data ->
      e.data_messages <- e.data_messages + 1;
      e.data_bytes <- e.data_bytes + bytes

let record_wire t ~mtype ~bytes =
  let i = Wire.index mtype in
  t.wire_counts.(i) <- t.wire_counts.(i) + 1;
  t.wire_bytes.(i) <- t.wire_bytes.(i) + bytes

let record_rider t ~mtype ~count ~bytes =
  let i = Wire.index mtype in
  t.wire_riders.(i) <- t.wire_riders.(i) + count;
  t.wire_bytes.(i) <- t.wire_bytes.(i) + bytes

let wire_breakdown t =
  List.map (fun w -> (w, t.wire_counts.(Wire.index w), t.wire_bytes.(Wire.index w))) Wire.all

let wire_messages_total t = Array.fold_left ( + ) 0 t.wire_counts
let wire_bytes_total t = Array.fold_left ( + ) 0 t.wire_bytes
let wire_riders_total t = Array.fold_left ( + ) 0 t.wire_riders

let acquire_latency t = t.acquire_latency
let commit_latency t = t.commit_latency
let recall_latency t = t.recall_latency
let recovery_latency t = t.recovery_latency
let declaration_latency t = t.declaration_latency

let record_acquire_latency_us t v = Histogram.record t.acquire_latency v
let record_commit_latency_us t v = Histogram.record t.commit_latency v
let record_recall_latency_us t v = Histogram.record t.recall_latency v
let record_recovery_latency_us t v = Histogram.record t.recovery_latency v
let record_declaration_latency_us t v = Histogram.record t.declaration_latency v

let record_demand_fetch t ~oid =
  let e = entry t oid in
  e.demand_fetches <- e.demand_fetches + 1;
  t.counters.demand_fetches <- t.counters.demand_fetches + 1

let record_acquisition t ~oid =
  let e = entry t oid in
  e.acquisitions <- e.acquisitions + 1

let incr_roots_committed t = t.counters.roots_committed <- t.counters.roots_committed + 1
let incr_retries t = t.counters.retries <- t.counters.retries + 1
let incr_upgrades t = t.counters.upgrades <- t.counters.upgrades + 1

let incr_global_acquisitions t =
  t.counters.global_acquisitions <- t.counters.global_acquisitions + 1

(* Home-node lock-protocol operations: every request the GDO home processes
   (acquires, upgrades, release batches) plus lease recall round trips. The
   lease experiment's headline is the reduction of this count. *)
let home_lock_ops t =
  let c = t.counters in
  c.global_acquisitions + c.upgrades + c.gdo_releases + c.lease_recalls + c.lease_yields

let per_object t oid =
  match Oid.Table.find_opt t.objects oid with Some e -> e | None -> zero ()

let objects t =
  Oid.Table.fold (fun oid _ acc -> oid :: acc) t.objects [] |> List.sort Oid.compare

let total_bytes t =
  Oid.Table.fold (fun _ e acc -> acc + e.control_bytes + e.data_bytes) t.objects 0

let total_data_bytes t = Oid.Table.fold (fun _ e acc -> acc + e.data_bytes) t.objects 0
let total_messages t = Oid.Table.fold (fun _ e acc -> acc + e.messages) t.objects 0

let time_of ~messages ~bytes ~(link : Sim.Network.link) =
  (float_of_int messages *. link.software_cost_us)
  +. (float_of_int bytes *. 8.0 /. link.bandwidth_bps *. 1e6)

let total_time_us t ~link =
  time_of ~messages:(total_messages t) ~bytes:(total_bytes t) ~link

let time_of_am ~control_messages ~data_messages ~bytes ~(link : Sim.Network.link)
    ~control_software_cost_us =
  (float_of_int control_messages *. control_software_cost_us)
  +. (float_of_int data_messages *. link.software_cost_us)
  +. (float_of_int bytes *. 8.0 /. link.bandwidth_bps *. 1e6)

let total_time_us_am t ~link ~control_software_cost_us =
  Oid.Table.fold
    (fun _ e acc ->
      acc
      +. time_of_am ~control_messages:e.control_messages ~data_messages:e.data_messages
           ~bytes:(e.control_bytes + e.data_bytes) ~link ~control_software_cost_us)
    t.objects 0.0

let completion_time_us t = t.completion_time_us
let set_completion_time_us t v = t.completion_time_us <- v

let pp_summary fmt t =
  let tt = t.counters in
  Format.fprintf fmt
    "@[<v>roots committed: %d (aborted %d, deadlock aborts %d, retries %d)@,\
     sub-transaction aborts: %d@,\
     lock acquisitions: %d local, %d global, %d upgrades@,\
     demand fetches: %d; eager pushes: %d@,"
    tt.roots_committed tt.roots_aborted tt.deadlock_aborts tt.retries tt.sub_aborts
    tt.local_acquisitions tt.global_acquisitions tt.upgrades tt.demand_fetches
    tt.eager_pushes;
  (* The fault line only appears when fault injection actually fired, so
     fault-free runs print byte-for-byte what they always did. *)
  if tt.drops + tt.duplicates + tt.retransmits + tt.timeouts > 0 then
    Format.fprintf fmt "faults: %d drops, %d duplicates, %d retransmits, %d timeouts@,"
      tt.drops tt.duplicates tt.retransmits tt.timeouts;
  (* Likewise the lease line: absent unless the lease subsystem did work. *)
  if tt.lease_grants + tt.lease_hits + tt.lease_recalls + tt.lease_aborts > 0 then
    Format.fprintf fmt
      "leases: %d grants, %d hits, %d recalls, %d yields, %d expiries, %d aborts@,"
      tt.lease_grants tt.lease_hits tt.lease_recalls tt.lease_yields tt.lease_expiries
      tt.lease_aborts;
  (* Crash-recovery line: absent unless crash windows actually fired. *)
  if
    tt.give_ups + tt.crash_aborts + tt.nodes_declared_dead + tt.families_reclaimed
    + tt.failovers
    > 0
  then
    Format.fprintf fmt
      "crashes: %d crash aborts, %d give-ups, %d declared dead, %d reclaimed, %d failovers@,"
      tt.crash_aborts tt.give_ups tt.nodes_declared_dead tt.families_reclaimed tt.failovers;
  (* Membership line: absent unless the quorum detector did work. *)
  if
    tt.quorum_votes + tt.false_suspicions + tt.node_readmissions + tt.stale_epoch_rejects
    + tt.fence_deferrals + tt.node_parks
    > 0
  then
    Format.fprintf fmt
      "membership: %d votes, %d false suspicions, %d readmissions, %d stale-epoch rejects, \
       %d fence deferrals, %d parks@,"
      tt.quorum_votes tt.false_suspicions tt.node_readmissions tt.stale_epoch_rejects
      tt.fence_deferrals tt.node_parks;
  (* Batching line: absent unless the combining layer actually combined. *)
  if
    tt.acks_piggybacked + tt.acks_flushed + tt.fetches_aggregated + tt.releases_coalesced
    + tt.heartbeats_suppressed
    > 0
  then
    Format.fprintf fmt
      "batching: %d acks piggybacked (%d flushed), %d fetch pages aggregated, %d releases \
       coalesced, %d heartbeats suppressed@,"
      tt.acks_piggybacked tt.acks_flushed tt.fetches_aggregated tt.releases_coalesced
      tt.heartbeats_suppressed;
  (* Method-cache line: absent unless the cache saw any traffic. *)
  if tt.cache_hits + tt.cache_misses + tt.cache_fills + tt.cache_invalidations > 0 then
    Format.fprintf fmt "method cache: %d hits, %d misses, %d fills, %d invalidations@,"
      tt.cache_hits tt.cache_misses tt.cache_fills tt.cache_invalidations;
  (* Shipping line: absent unless the shipping cost model ever ran. *)
  if tt.ships + tt.ship_declines + tt.ships_forced > 0 then
    Format.fprintf fmt
      "shipping: %d shipped (%d forced to pinned site), %d stayed, ~%d B predicted saved@,"
      tt.ships tt.ships_forced tt.ship_declines tt.ship_bytes_saved;
  (* Escrow line: absent unless the escrow subsystem did work. *)
  if
    tt.escrow_reserves + tt.escrow_local_commits + tt.escrow_refusals + tt.escrow_recalls
    + tt.escrow_quota_units
    > 0
  then
    Format.fprintf fmt
      "escrow: %d reserved, %d local commits, %d reconciles, %d recalls (%d yields), \
       %d refusals, %d quota units@,"
      tt.escrow_reserves tt.escrow_local_commits tt.escrow_reconciles tt.escrow_recalls
      tt.escrow_yields tt.escrow_refusals tt.escrow_quota_units;
  Format.fprintf fmt "traffic: %d messages, %d bytes (%d data)@,completion: %.1f us@]"
    (total_messages t) (total_bytes t) (total_data_bytes t) t.completion_time_us

let pp_wire_breakdown fmt t =
  (* The riders column only appears when something actually rode, so runs
     without batching print byte-for-byte what they always did. *)
  let riders = wire_riders_total t in
  if riders = 0 then begin
    Format.fprintf fmt "@[<v>%-16s %10s %12s %10s@," "message type" "messages" "bytes" "b/msg";
    List.iter
      (fun (w, msgs, bytes) ->
        if msgs > 0 then
          Format.fprintf fmt "%-16s %10d %12d %10.1f@," (Wire.to_string w) msgs bytes
            (float_of_int bytes /. float_of_int msgs))
      (wire_breakdown t);
    Format.fprintf fmt "%-16s %10d %12d@]" "total" (wire_messages_total t)
      (wire_bytes_total t)
  end
  else begin
    Format.fprintf fmt "@[<v>%-16s %10s %12s %10s %8s@," "message type" "messages" "bytes"
      "b/msg" "riders";
    List.iter
      (fun (w, msgs, bytes) ->
        let r = t.wire_riders.(Wire.index w) in
        if msgs > 0 || r > 0 then
          let per_msg = if msgs > 0 then float_of_int bytes /. float_of_int msgs else 0.0 in
          Format.fprintf fmt "%-16s %10d %12d %10.1f %8d@," (Wire.to_string w) msgs bytes
            per_msg r)
      (wire_breakdown t);
    Format.fprintf fmt "%-16s %10d %12d %10s %8d@]" "total" (wire_messages_total t)
      (wire_bytes_total t) "" riders
  end

let pp_latencies fmt t =
  Format.fprintf fmt "@[<v>acquire latency: %a@,commit latency:  %a" Histogram.pp
    t.acquire_latency Histogram.pp t.commit_latency;
  if Histogram.count t.recall_latency > 0 then
    Format.fprintf fmt "@,recall-to-clear: %a" Histogram.pp t.recall_latency;
  if Histogram.count t.recovery_latency > 0 then
    Format.fprintf fmt "@,crash recovery:  %a" Histogram.pp t.recovery_latency;
  if Histogram.count t.declaration_latency > 0 then
    Format.fprintf fmt "@,dead declaration:%a" Histogram.pp t.declaration_latency;
  Format.fprintf fmt "@]"
