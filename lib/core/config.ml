type t = {
  node_count : int;
  page_size : int;
  link : Sim.Network.link;
  protocol : Dsm.Protocol.t;
  class_protocols : (string * Dsm.Protocol.t) list;
  control_msg_bytes : int;
  gdo_replicas : int;
  statement_us : float;
  abort_probability : float;
  prefetch : bool;
  multicast_push : bool;
  allow_recursive_catalogs : bool;
  trace_capacity : int;
  streaming : bool;
  cpu_limited : bool;
  faults : Sim.Fault.config option;
  request_timeout_us : float;
  max_retransmits : int;
  heartbeat_interval_us : float;
  suspect_timeout_us : float;
  lease : Gdo.Lease.policy;
  batching : Dsm.Batching.t;
  method_cache : Dsm.Method_cache.policy;
  shipping : Dsm.Shipping.policy;
  escrow : Dsm.Escrow.policy;
}

let page_header_bytes = 64
let page_map_entry_bytes = 4
let local_lock_op_us = 1.0
let gdo_op_us = 2.0
let undo_page_us = 1.0
let page_service_us = 1.0
let max_sub_retries = 2
let max_root_retries = 20
let root_retry_backoff_us = 200.0
let retransmit_backoff_cap_us = 40_000.0

let default =
  {
    node_count = 8;
    page_size = 4096;
    link = Sim.Network.link_100mbps;
    protocol = Dsm.Protocol.Lotec;
    class_protocols = [];
    control_msg_bytes = 128;
    gdo_replicas = 0;
    statement_us = 0.2;
    abort_probability = 0.0;
    prefetch = false;
    multicast_push = false;
    allow_recursive_catalogs = false;
    trace_capacity = 0;
    streaming = false;
    cpu_limited = false;
    faults = None;
    request_timeout_us = 5_000.0;
    max_retransmits = 10;
    heartbeat_interval_us = 1_000.0;
    suspect_timeout_us = 4_000.0;
    lease = Gdo.Lease.Off;
    batching = Dsm.Batching.off;
    method_cache = Dsm.Method_cache.off;
    shipping = Dsm.Shipping.off;
    escrow = Dsm.Escrow.off;
  }

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () = check (t.node_count > 0) "node_count must be positive" in
  let* () = check (t.page_size > 0) "page_size must be positive" in
  let* () = check (t.link.Sim.Network.bandwidth_bps > 0.0) "bandwidth must be positive" in
  let* () = check (t.link.Sim.Network.software_cost_us >= 0.0) "software cost must be >= 0" in
  let* () = check (t.control_msg_bytes > 0) "control_msg_bytes must be positive" in
  let* () =
    check (t.abort_probability >= 0.0 && t.abort_probability <= 1.0)
      "abort_probability must be in [0,1]"
  in
  let* () = check (t.statement_us >= 0.0) "statement_us must be >= 0" in
  let* () =
    check
      (t.gdo_replicas >= 0 && t.gdo_replicas < t.node_count)
      "gdo_replicas must be in [0, node_count)"
  in
  let* () = check (t.trace_capacity >= 0) "trace_capacity must be >= 0" in
  let* () =
    check
      ((not t.streaming) || Option.is_none t.faults)
      "streaming requires a fault-free run (faults = None)"
  in
  let* () = check (t.request_timeout_us > 0.0) "request_timeout_us must be positive" in
  let* () = check (t.max_retransmits >= 0) "max_retransmits must be >= 0" in
  let* () =
    check
      (retransmit_backoff_cap_us >= t.request_timeout_us)
      "request_timeout_us must be <= the retransmit backoff cap"
  in
  let* () = check (t.heartbeat_interval_us > 0.0) "heartbeat_interval_us must be positive" in
  let* () =
    check
      (t.suspect_timeout_us >= t.heartbeat_interval_us)
      "suspect_timeout_us must be >= heartbeat_interval_us"
  in
  let* () = Gdo.Lease.validate_policy t.lease in
  let* () = Dsm.Method_cache.validate_policy t.method_cache in
  let* () =
    check
      ((not (Dsm.Method_cache.policy_enabled t.method_cache))
      || Gdo.Lease.policy_enabled t.lease)
      "method_cache requires an enabled lease policy (the lease is its invalidation signal)"
  in
  let* () =
    check
      ((not (Dsm.Batching.enabled t.batching))
      || Dsm.Batching.ack_flush_us < t.request_timeout_us)
      "batching requires request_timeout_us above the ack flush timer"
  in
  let* () = Dsm.Shipping.validate_policy t.shipping in
  let* () =
    check
      ((not (Dsm.Shipping.policy_enabled t.shipping)) || not t.prefetch)
      "shipping excludes prefetch (optimistic pre-acquisition races the site decision)"
  in
  let* () = Dsm.Escrow.validate_policy t.escrow in
  let* () =
    check
      ((not (Dsm.Escrow.policy_enabled t.escrow)) || Option.is_none t.faults)
      "escrow requires a fault-free run (faults = None)"
  in
  let* () =
    check
      ((not (Dsm.Escrow.policy_enabled t.escrow)) || not t.prefetch)
      "escrow excludes prefetch (pre-acquisition would lock what escrow avoids locking)"
  in
  let* () =
    check
      ((not (Dsm.Escrow.policy_enabled t.escrow))
      || not (Dsm.Shipping.policy_enabled t.shipping))
      "escrow excludes shipping (a shipped commutative call would double-apply its delta)"
  in
  let* () =
    check
      ((not (Dsm.Escrow.policy_enabled t.escrow)) || t.abort_probability = 0.0)
      "escrow requires abort_probability = 0 (escrow holds are family-level; an \
       injected sub-retry would re-apply its delta)"
  in
  match t.faults with None -> Ok () | Some f -> Sim.Fault.validate f

let pp fmt t =
  Format.fprintf fmt
    "@[<v>protocol: %a@,nodes: %d, page: %dB@,\
     link: %.0f Mbps, sw cost %.1f us@,\
     aborts: p=%.3f (sub retries %d, root retries %d)@,\
     prefetch: %b, multicast push: %b"
    Dsm.Protocol.pp t.protocol t.node_count t.page_size
    (t.link.Sim.Network.bandwidth_bps /. 1e6)
    t.link.Sim.Network.software_cost_us t.abort_probability max_sub_retries
    max_root_retries t.prefetch t.multicast_push;
  (match t.faults with
  | Some f when Sim.Fault.is_active f ->
      Format.fprintf fmt "@,faults: %a; timeout %.0f us, max retransmits %d"
        Sim.Fault.pp_config f t.request_timeout_us t.max_retransmits;
      if Sim.Fault.has_crash_windows f then
        Format.fprintf fmt "@,failure detection: heartbeat %.0f us, suspect after %.0f us"
          t.heartbeat_interval_us t.suspect_timeout_us
  | Some _ | None -> ());
  if Gdo.Lease.policy_enabled t.lease then
    Format.fprintf fmt "@,leases: %a" Gdo.Lease.pp_policy t.lease;
  if Dsm.Batching.enabled t.batching then
    Format.fprintf fmt "@,batching: %a" Dsm.Batching.pp t.batching;
  if Dsm.Method_cache.policy_enabled t.method_cache then
    Format.fprintf fmt "@,method cache: %a" Dsm.Method_cache.pp_policy t.method_cache;
  if Dsm.Shipping.policy_enabled t.shipping then
    Format.fprintf fmt "@,shipping: %a" Dsm.Shipping.pp_policy t.shipping;
  if Dsm.Escrow.policy_enabled t.escrow then
    Format.fprintf fmt "@,escrow: %a" Dsm.Escrow.pp_policy t.escrow;
  Format.fprintf fmt "@]"
