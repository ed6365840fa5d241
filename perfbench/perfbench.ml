(* perfbench: the repository's benchmark.

   perfbench WORKLOAD --seed N --seconds S --trace 0|1

   Runs one workload (see Workloads) and prints, as its last stdout line,
   one JSON object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones, measured with the event trace off; with
   --trace 1 they are the per-layer ones, from a separate traced run. Any
   failed correctness check exits non-zero before a result is printed.

   Host side: one process, one domain, a closed batch of repetitions of the
   whole workload. Simulated side: roots arrive open-loop on the workload
   generator's schedule. *)

open Stats

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

type entry = Dsm.Event.t Sim.Trace.entry

module M = Dsm.Metrics

(* Host cost of one run. [marks] are the clock readings around each call
   into the program: generate, create, submit, (settle), run,
   check_serializable, check_escrow, audit. *)
type host = {
  marks : float array;
  fed_submit_s : float;  (** submits made from the lazy feeder, traced runs only *)
  alloc_words : float;  (** words allocated by run + oracle *)
  promoted_words : float;
  major_collections : int;
}

type hist = { mean : float; hp50 : float; hp99 : float; count : int }

(* Simulated outcome of one run: every field must repeat exactly for a
   given seed, with tracing on or off. *)
type sim = {
  submitted : int;
  committed : int;
  gave_up : int;
  messages : int;
  bytes : int;
  makespan_us : float;
  latencies : float array;  (** submit-to-commit times of committed roots, non-streaming runs *)
  commit_hist : hist;  (** the ledger's commit-latency histogram *)
  recall_hist : float * int;  (** ledger histogram p99, count *)
  totals : Dsm.Metrics.totals;
  wire : (Dsm.Wire.t * int * int) list;
  home_lock_ops : int;
  dispatched : int;
  max_queue : int;
  history : int;  (** committed families retained for the serializability check *)
}

(* What the per-layer report needs from a run's event trace, extracted
   right after the run so traces never accumulate in the heap. *)
type replays = {
  gdo : Replay.result;
  max_wait_depth : int;
  locks : Replay.result;
  metrics : Replay.result;
}

type layer = {
  events : int;
  precommits : int;
  attempts : int;  (** root attempts begun *)
  transfers : int;
  pages : int;  (** pages moved by transfers and demand fetches *)
  acquire_lat : float array;  (** global acquire request-to-grant times *)
  replays : replays option;
}

type out = { def : Workloads.run_def; host : host; sim : sim; layer : layer option }

exception Trace_overflow

(* Initial trace ring per submitted root; a run whose ring overflows is
   repeated with a larger one (tracing never alters the simulation). *)
let trace_events_per_root = 32

let submit rt (r : Workload.Generator.root_spec) ~at =
  Core.Runtime.submit rt ~at ~node:r.Workload.Generator.node ~oid:r.Workload.Generator.oid
    ~meth:r.Workload.Generator.meth ~seed:r.Workload.Generator.seed

(* One pending feeder event instead of every submission pre-scheduled;
   [submit]'s [at] is a delay from now, and the event fires at arrival. *)
let feed_lazily rt ~timed (acc : float array) roots =
  let engine = Core.Runtime.engine rt in
  let rec feed = function
    | [] -> ()
    | (r : Workload.Generator.root_spec) :: rest ->
        let delay = Float.max 0.0 (r.Workload.Generator.at -. Sim.Engine.now engine) in
        Sim.Engine.schedule engine ~delay (fun () ->
            if timed then begin
              let t0 = now () in
              submit rt r ~at:0.0;
              acc.(0) <- acc.(0) +. (now () -. t0)
            end
            else submit rt r ~at:0.0;
            feed rest)
  in
  feed roots

let words () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted, promoted)

(* Message groups by the layer that sends them; together they cover the
   whole wire catalog, which the per-layer report verifies. *)
let wire_group = function
  | Dsm.Wire.Acquire_request | Grant | Refusal | Release | Gdo_replica -> "gdo"
  | Page_request | Page_reply | Eager_push -> "page"
  | Lease_recall | Lease_yield -> "lease"
  | Ack | Heartbeat | Suspect | Failover_confirm | View_change -> "transport"
  | Ship_invoke | Ship_reply -> "ship"
  | Escrow_request | Escrow_reply | Escrow_commit | Escrow_reconcile | Escrow_recall
  | Escrow_yield ->
      "escrow"

(* Global acquire latency, request leaving the site to grant installed,
   paired by (transaction, object). *)
let acquire_latencies (trace : entry array) =
  let sent = Hashtbl.create 4096 and lat = ref [] in
  Array.iter
    (fun (e : entry) ->
      match e.Sim.Trace.data with
      | Dsm.Event.Lock_request { oid; family; _ } ->
          Hashtbl.replace sent (Txn.Txn_id.to_int family, Objmodel.Oid.to_int oid) e.Sim.Trace.time
      | Dsm.Event.Lock_grant { oid; family; _ } -> (
          let key = (Txn.Txn_id.to_int family, Objmodel.Oid.to_int oid) in
          match Hashtbl.find_opt sent key with
          | Some t0 ->
              Hashtbl.remove sent key;
              lat := (e.Sim.Trace.time -. t0) :: !lat
          | None -> ())
      | _ -> ())
    trace;
  Array.of_list !lat

let summarise ~replay (d : Workloads.run_def) catalog (trace : entry array) =
  let count pred =
    Array.fold_left (fun acc (e : entry) -> if pred e.Sim.Trace.data then acc + 1 else acc) 0 trace
  in
  let node_count = d.Workloads.config.Core.Config.node_count in
  let replays =
    if not replay then None
    else
      let g = Replay.gdo ~catalog ~node_count trace in
      Some
        {
          gdo = g.Replay.gdo;
          max_wait_depth = g.Replay.max_wait_depth;
          locks = Replay.local_locks ~node_count trace;
          metrics =
            Replay.metrics ~control_msg_bytes:d.Workloads.config.Core.Config.control_msg_bytes
              trace;
        }
  in
  {
    events = Array.length trace;
    precommits = count (function Dsm.Event.Precommit _ -> true | _ -> false);
    attempts = count (function Dsm.Event.Root_begin _ -> true | _ -> false);
    transfers = count (function Dsm.Event.Transfer _ -> true | _ -> false);
    pages =
      Array.fold_left
        (fun acc (e : entry) ->
          match e.Sim.Trace.data with
          | Dsm.Event.Transfer { pages; _ } | Dsm.Event.Demand_fetch { pages; _ } -> acc + pages
          | _ -> acc)
        0 trace;
    acquire_lat = acquire_latencies trace;
    replays;
  }

let rec execute ?(ring_per_root = trace_events_per_root) ?(replay = false) ~traced
    (d : Workloads.run_def) =
  try execute_once ~ring_per_root ~replay ~traced d
  with Trace_overflow -> execute ~ring_per_root:(4 * ring_per_root) ~replay ~traced d

and execute_once ~ring_per_root ~replay ~traced (d : Workloads.run_def) =
  let streaming = d.Workloads.config.Core.Config.streaming in
  let roots = d.Workloads.spec.Workload.Spec.root_count in
  let config =
    if traced then
      { d.Workloads.config with Core.Config.trace_capacity = (ring_per_root * roots) + 4096 }
    else d.Workloads.config
  in
  let marks = Array.make 9 0.0 in
  let fed = [| 0.0 |] in
  Gc.full_major ();
  marks.(0) <- now ();
  let page_size = config.Core.Config.page_size in
  let wl = Workload.Generator.generate d.Workloads.spec ~page_size in
  let wl =
    match d.Workloads.catalog_seed with
    | None -> wl
    | Some seed ->
        let own =
          Workload.Generator.generate { d.Workloads.spec with Workload.Spec.seed } ~page_size
        in
        { wl with Workload.Generator.catalog = own.Workload.Generator.catalog }
  in
  marks.(1) <- now ();
  let rt = Core.Runtime.create ~config ~catalog:wl.Workload.Generator.catalog in
  marks.(2) <- now ();
  (match d.Workloads.feed with
  | Workloads.Upfront ->
      List.iter (fun (r : Workload.Generator.root_spec) -> submit rt r ~at:r.at) wl.roots
  | Workloads.Lazy -> feed_lazily rt ~timed:traced fed wl.roots);
  marks.(3) <- now ();
  (* Start the counted region with an empty minor heap, and end it with a
     minor collection: the GC counters are exact only at collections. *)
  Gc.minor ();
  let w0, p0 = words () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  marks.(4) <- now ();
  Core.Runtime.run rt;
  marks.(5) <- now ();
  (* Streaming retains no history: the check is off, and its span empty. *)
  let ser = if streaming then None else Some (Core.Runtime.check_serializable rt) in
  marks.(6) <- (if streaming then marks.(5) else now ());
  let esc = Core.Runtime.check_escrow rt in
  marks.(7) <- now ();
  let audit = Core.Runtime.audit rt in
  marks.(8) <- now ();
  Gc.minor ();
  let w1, p1 = words () in
  let majors1 = (Gc.quick_stat ()).Gc.major_collections in
  (* Everything below is outside the timed region. *)
  let m = Core.Runtime.metrics rt in
  let t = Dsm.Metrics.totals m in
  let label = d.Workloads.label in
  (match ser with
  | None | Some (Core.Serializability.Serializable _) -> ()
  | Some (Core.Serializability.Cyclic c) ->
      fail "%s: committed history is not serializable (cycle of %d families)" label
        (List.length c));
  (match esc with
  | Ok _ -> ()
  | Error es ->
      fail "%s: escrow replay failed: %s" label
        (String.concat "; " (List.filteri (fun i _ -> i < 3) es)));
  if audit <> [] then fail "%s: audit: %s" label (String.concat "; " audit);
  if t.Dsm.Metrics.roots_committed + t.Dsm.Metrics.roots_aborted <> roots then
    fail "%s: %d committed + %d gave up <> %d submitted" label t.Dsm.Metrics.roots_committed
      t.Dsm.Metrics.roots_aborted roots;
  let results = Core.Runtime.results rt in
  if (not streaming) && List.length results <> roots then
    fail "%s: %d root results for %d submitted roots" label (List.length results) roots;
  let messages = Dsm.Metrics.total_messages m and bytes = Dsm.Metrics.total_bytes m in
  if Dsm.Metrics.wire_messages_total m <> messages || Dsm.Metrics.wire_bytes_total m <> bytes then
    fail "%s: wire ledger (%d msgs, %d B) does not reconcile with the network (%d msgs, %d B)"
      label (Dsm.Metrics.wire_messages_total m) (Dsm.Metrics.wire_bytes_total m) messages bytes;
  let layer =
    match Core.Runtime.trace rt with
    | None -> None
    | Some tr ->
        if Sim.Trace.dropped tr > 0 then raise Trace_overflow;
        Some
          (summarise ~replay d wl.Workload.Generator.catalog
             (Array.of_list (Sim.Trace.events tr)))
  in
  let latencies =
    List.filter_map
      (fun (r : Core.Runtime.root_result) ->
        match r.Core.Runtime.outcome with
        | Core.Runtime.Committed -> Some (r.completed_at -. r.submitted_at)
        | Core.Runtime.Gave_up -> None)
      results
    |> Array.of_list
  in
  let ch = Dsm.Metrics.commit_latency m in
  let r99 = Dsm.Histogram.percentile (Dsm.Metrics.recall_latency m) 99.0 in
  let es = Sim.Engine.stats (Core.Runtime.engine rt) in
  let sim =
    {
      submitted = roots;
      committed = t.Dsm.Metrics.roots_committed;
      gave_up = t.Dsm.Metrics.roots_aborted;
      messages;
      bytes;
      makespan_us = Dsm.Metrics.completion_time_us m;
      latencies;
      commit_hist =
        {
          mean = Dsm.Histogram.mean ch;
          hp50 = Dsm.Histogram.percentile ch 50.0;
          hp99 = Dsm.Histogram.percentile ch 99.0;
          count = Dsm.Histogram.count ch;
        };
      recall_hist = (r99, Dsm.Histogram.count (Dsm.Metrics.recall_latency m));
      totals = t;
      wire = Dsm.Metrics.wire_breakdown m;
      home_lock_ops = Dsm.Metrics.home_lock_ops m;
      dispatched = es.Sim.Engine.dispatched;
      max_queue = es.Sim.Engine.max_queue;
      history = List.length (Core.Runtime.committed_history rt);
    }
  in
  {
    def = d;
    host =
      {
        marks;
        fed_submit_s = fed.(0);
        alloc_words = w1 -. w0;
        promoted_words = p1 -. p0;
        major_collections = majors1 - majors0;
      };
    sim;
    layer;
  }

(* ---- Host-time accessors over one repetition (a list of runs) *)

let span o i = o.host.marks.(i + 1) -. o.host.marks.(i)
let generate_s o = span o 0
let create_s o = span o 1

let submit_s o =
  match o.def.Workloads.feed with
  | Workloads.Upfront -> span o 2
  | Workloads.Lazy -> o.host.fed_submit_s

let run_s o = span o 4
let ser_s o = span o 5
let esc_s o = span o 6
let audit_s o = span o 7
let setup_s o = generate_s o +. create_s o +. span o 2
let timed_s o = run_s o +. ser_s o +. esc_s o +. audit_s o
let sum f outs = List.fold_left (fun acc o -> acc +. f o) 0.0 outs
let isum f outs = List.fold_left (fun acc o -> acc + f o) 0 outs
let committed outs = isum (fun o -> o.sim.committed) outs

(* ---- Layer counter groups for the bypass and load checks *)

let group_counters (t : Dsm.Metrics.totals) = function
  | "lease" ->
      Dsm.Metrics.
        [
          t.lease_grants; t.lease_hits; t.lease_recalls; t.lease_yields; t.lease_expiries;
          t.lease_aborts;
        ]
  | "cache" -> Dsm.Metrics.[ t.cache_hits; t.cache_misses; t.cache_fills; t.cache_invalidations ]
  | "batching" ->
      Dsm.Metrics.
        [
          t.acks_piggybacked; t.acks_flushed; t.fetches_aggregated; t.releases_coalesced;
          t.heartbeats_suppressed;
        ]
  | "shipping" -> Dsm.Metrics.[ t.ships; t.ship_declines; t.ships_forced; t.ship_bytes_saved ]
  | "transport" -> Dsm.Metrics.[ t.drops; t.duplicates; t.retransmits; t.timeouts; t.give_ups ]
  | "escrow" ->
      Dsm.Metrics.
        [
          t.escrow_reserves; t.escrow_local_commits; t.escrow_reconciles; t.escrow_recalls;
          t.escrow_yields; t.escrow_refusals; t.escrow_quota_units;
        ]
  | g -> invalid_arg ("unknown counter group " ^ g)

let check_layers (w : Workloads.t) outs =
  let group_total g = isum (fun o -> List.fold_left ( + ) 0 (group_counters o.sim.totals g)) outs in
  List.iter
    (fun g ->
      if group_total g <> 0 then
        fail "bypass check: %s counters are non-zero on %s" g w.Workloads.name)
    w.Workloads.zero;
  List.iter
    (fun g ->
      if group_total g = 0 then
        fail "load check: %s counters are all zero on %s" g w.Workloads.name)
    w.Workloads.loaded;
  List.iter
    (fun o ->
      if o.def.Workloads.config.Core.Config.streaming && o.sim.history <> 0 then
        fail "bypass check: streaming run %s retained %d families for the serializability check"
          o.def.Workloads.label o.sim.history)
    outs

let check_same what a b =
  let sims l = List.map (fun o -> o.sim) l in
  if sims a <> sims b then fail "%s: simulated outcome differs between repetitions of one seed" what

(* ---- Commit-latency percentiles over the workload *)

type pct = { mean : float; p50 : float; p99 : float; n : int; beyond99 : int }

(* Samples above the nearest-rank p99 of [n] samples. *)
let beyond99 n = n - int_of_float (Float.ceil (0.99 *. float_of_int n))

let pooled_pct samples =
  let a = Array.concat samples in
  Array.sort Float.compare a;
  let p50, _ = percentile a 50.0 and p99, beyond99 = percentile a 99.0 in
  let n = Array.length a in
  { mean = per (Array.fold_left ( +. ) 0.0 a) n; p50; p99; n; beyond99 }

let commit_pct outs =
  if List.for_all (fun o -> o.def.Workloads.config.Core.Config.streaming) outs then
    (* Streaming keeps no per-root results: each run's ledger histogram
       (exact mean, percentiles within its 1/32 bucket error), median over
       the runs for the percentiles. *)
    let hist f = median (List.map (fun o -> f o.sim.commit_hist) outs) in
    let counts = List.map (fun o -> o.sim.commit_hist.count) outs in
    let n = List.fold_left ( + ) 0 counts in
    {
      mean =
        per (sum (fun o -> o.sim.commit_hist.mean *. float_of_int o.sim.commit_hist.count) outs) n;
      p50 = hist (fun h -> h.hp50);
      p99 = hist (fun h -> h.hp99);
      n;
      beyond99 = List.fold_left (fun acc n -> acc + beyond99 n) 0 counts;
    }
  else pooled_pct (List.map (fun o -> o.sim.latencies) outs)

let print_pct name p =
  Printf.printf "  %s: mean %.1f us, p50 %.1f us, p99 %.1f us over %d samples, %d beyond p99\n"
    name p.mean p.p50 p.p99 p.n p.beyond99

(* ---- Result output *)

let metric_json (name, unit_, value) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float value)
    (json_string unit_)

let print_result ~attempted ~failed metrics =
  List.iter (fun (n, u, v) -> Printf.printf "  %-40s %s %s\n" n (json_float v) u) metrics;
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed
    (String.concat ", " (List.map metric_json metrics))

(* ---- --trace 0: end-to-end metrics *)

(* Every workload is a set of seeded passes. It reports, per cell (one
   scenario and protocol, repeated across passes), the median over passes,
   summed over cells: a pass whose root stream sets off a deadlock storm,
   or that ran while the host was busy, does not drag the whole run. *)
let cell_key o = (o.def.Workloads.scenario, o.def.Workloads.protocol)

let over_cells f outs =
  let cells = List.sort_uniq compare (List.map cell_key outs) in
  List.fold_left
    (fun acc c -> acc +. median (List.map f (List.filter (fun o -> cell_key o = c) outs)))
    0.0 cells

let end_to_end (w : Workloads.t) ~seed ~seconds =
  let defs = w.Workloads.runs ~seed in
  let start = now () in
  let rep () =
    let outs = List.map (execute ~traced:false) defs in
    Gc.compact ();
    outs
  in
  let first = rep () in
  (* The heap high-water mark of one repetition of the workload: later
     repetitions only add allocator fragmentation. *)
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  check_layers w first;
  let reps = ref [ first ] in
  while now () -. start < seconds do
    let outs = rep () in
    check_same w.Workloads.name first outs;
    reps := outs :: !reps
  done;
  let reps = List.rev !reps in
  (* Host metrics take the best repetition: other tenants of a shared host
     only ever slow a repetition down, so the fastest one is the steadiest
     estimate of the program's own cost. *)
  let best pick f = List.fold_left (fun acc r -> pick acc (f r)) (f first) reps in
  let cells f = over_cells (fun o -> float_of_int (f o.sim)) in
  let pct = commit_pct first in
  let gave_up = isum (fun o -> o.sim.gave_up) first in
  let submitted = isum (fun o -> o.sim.submitted) first in
  Printf.printf "%s: %d repetitions of %d runs, %d roots (%d gave up)\n" w.Workloads.name
    (List.length reps) (List.length defs) submitted gave_up;
  print_pct "sim commit latency" pct;
  Printf.printf "  setup_s per repetition: %s\n"
    (String.concat " " (List.map (fun outs -> Printf.sprintf "%.4f" (sum setup_s outs)) reps));
  Printf.printf "  roots_failed_frac: %s\n" (json_float (ratio gave_up submitted));
  let per_root f = cells f first /. cells (fun s -> s.committed) first in
  let metrics =
    [
      ( "roots_per_s",
        "1/s",
        best Float.max (fun outs ->
            cells (fun s -> s.committed + s.gave_up) outs /. over_cells timed_s outs) );
      ("setup_s", "s", best Float.min (sum setup_s));
      ("peak_heap_mb", "MB", peak_heap_mb);
      ("sim_msgs_per_root", "msgs", per_root (fun s -> s.messages));
      ("sim_bytes_per_root", "B", per_root (fun s -> s.bytes));
      ("sim_makespan_ms", "ms", over_cells (fun o -> o.sim.makespan_us /. 1000.0) first);
      ("sim_commit_mean_us", "us", pct.mean);
      ("sim_commit_p99_us", "us", pct.p99);
    ]
  in
  let n = List.length reps in
  print_result ~attempted:(n * submitted) ~failed:(n * gave_up) metrics

(* ---- --trace 1: per-layer metrics *)

(* Engine kernels through the public schedule / spawn / wait calls. *)
let dispatch_kernel () =
  let timers = 1_000 and per_timer = 200 in
  let e = Sim.Engine.create () in
  for _ = 1 to timers do
    let remaining = ref per_timer in
    let rec tick () =
      if !remaining > 0 then begin
        decr remaining;
        Sim.Engine.schedule e ~delay:1.0 tick
      end
    in
    Sim.Engine.schedule e ~delay:1.0 tick
  done;
  let t0 = now () in
  Sim.Engine.run e;
  (now () -. t0) *. 1e9 /. float_of_int (timers * (per_timer + 1))

let fiber_kernel () =
  let fibers = 50_000 in
  let e = Sim.Engine.create () in
  let t0 = now () in
  for i = 1 to fibers do
    Sim.Engine.spawn e (fun () ->
        Sim.Engine.wait (float_of_int (i land 7));
        Sim.Engine.wait 1.0)
  done;
  Sim.Engine.run e;
  (now () -. t0) *. 1e9 /. float_of_int fibers

let kernel f =
  median
    (List.init 5 (fun _ ->
         Gc.minor ();
         f ()))

let layers outs = List.filter_map (fun o -> o.layer) outs
let lsum f outs = List.fold_left (fun acc l -> acc + f l) 0 (layers outs)

let acquire_pct outs = pooled_pct (List.map (fun l -> l.acquire_lat) (layers outs))

let bytes_of protocol outs =
  isum (fun o -> if o.def.Workloads.protocol = protocol then o.sim.bytes else 0) outs

let reduction_pct ~base ~lever = if base = 0 then 0.0 else 100.0 *. (1.0 -. ratio lever base)

let replay_total outs =
  let add (a : Replay.result) (b : Replay.result) =
    Replay.
      { ops = a.ops + b.ops; seconds = a.seconds +. b.seconds; skipped = a.skipped + b.skipped }
  in
  let zero = Replay.{ ops = 0; seconds = 0.0; skipped = 0 } in
  List.fold_left
    (fun acc l ->
      match l.replays with
      | None -> acc
      | Some r ->
          {
            gdo = add acc.gdo r.gdo;
            max_wait_depth = max acc.max_wait_depth r.max_wait_depth;
            locks = add acc.locks r.locks;
            metrics = add acc.metrics r.metrics;
          })
    { gdo = zero; max_wait_depth = 0; locks = zero; metrics = zero }
    (layers outs)

let ns_per_op (r : Replay.result) =
  if r.Replay.ops = 0 then 0.0 else r.Replay.seconds *. 1e9 /. float_of_int r.Replay.ops

let write_spans (w : Workloads.t) ~seed traced_reps =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.Workloads.name seed) in
  let oc = open_out path in
  List.iteri
    (fun rep outs ->
      List.iter
        (fun o ->
          let line name calls start dur =
            Printf.fprintf oc
              "{\"name\": %s, \"run\": %s, \"rep\": %d, \"calls\": %d, \"start_s\": %s, \
               \"dur_s\": %s}\n"
              (json_string name) (json_string o.def.Workloads.label) rep calls (json_float start)
              (json_float dur)
          in
          let m = o.host.marks in
          let n = o.sim.submitted in
          line "workload.generate" 1 m.(0) (generate_s o);
          line "runtime.create" 1 m.(1) (create_s o);
          line "runtime.submit" n m.(2) (submit_s o);
          line "runtime.run" 1 m.(4) (run_s o);
          if not o.def.Workloads.config.Core.Config.streaming then
            line "oracle.serializability" 1 m.(5) (ser_s o);
          line "oracle.escrow" 1 m.(6) (esc_s o);
          line "oracle.audit" 1 m.(7) (audit_s o))
        outs)
    traced_reps;
  close_out oc;
  path

let per_layer (w : Workloads.t) ~seed ~seconds =
  let defs = w.Workloads.runs ~seed in
  let start = now () in
  let rep ?replay ~traced () =
    let outs = List.map (execute ?replay ~traced) defs in
    Gc.compact ();
    outs
  in
  let plain = rep ~traced:false () in
  let traced = rep ~replay:true ~traced:true () in
  check_same (w.Workloads.name ^ " traced vs untraced") plain traced;
  check_layers w traced;
  let rp = replay_total traced in
  let acq = acquire_pct traced in
  let dispatch_ns = kernel dispatch_kernel and fiber_ns = kernel fiber_kernel in
  (* The first untraced repetition also grew the heap, so the overhead
     compares later pairs: at least one more untraced and traced repetition. *)
  let plain_reps = ref [] and traced_reps = ref [ traced ] in
  while !plain_reps = [] || now () -. start < seconds do
    let p = rep ~traced:false () in
    let t = rep ~traced:true () in
    check_same w.Workloads.name plain p;
    check_same w.Workloads.name plain t;
    plain_reps := p :: !plain_reps;
    traced_reps := t :: !traced_reps
  done;
  let traced_reps = List.rev !traced_reps in
  let med f = median (List.map (sum f) traced_reps) in
  let run_traced = med run_s and run_plain = median (List.map (sum run_s) !plain_reps) in
  let ser = med ser_s and esc = med esc_s and aud = med audit_s in
  let spans = write_spans w ~seed traced_reps in
  let s = plain in
  let c = committed s in
  let fc v = per (float_of_int v) c in
  let tot f = isum (fun o -> f o.sim.totals) s in
  let per_root name f = (name, "count/root", fc (tot f)) in
  let wire_sum pick =
    isum
      (fun o ->
        List.fold_left (fun acc (mt, msgs, bytes) -> acc + pick mt msgs bytes) 0 o.sim.wire)
      s
  in
  let group g field =
    wire_sum (fun mt msgs bytes -> if wire_group mt = g then field msgs bytes else 0)
  in
  let kind k field =
    wire_sum (fun mt msgs bytes -> if Dsm.Wire.kind mt = k then field msgs bytes else 0)
  in
  let msgs m _ = m and bytes _ b = b in
  let messages = isum (fun o -> o.sim.messages) s in
  let grouped =
    List.fold_left ( + ) 0
      (List.map (fun g -> group g msgs) [ "gdo"; "page"; "lease"; "transport"; "ship"; "escrow" ])
  in
  if grouped <> messages then
    fail "net groups cover %d of %d messages: the wire catalog gained a type" grouped messages;
  let recall_n = isum (fun o -> snd o.sim.recall_hist) s in
  let recall_beyond = isum (fun o -> beyond99 (snd o.sim.recall_hist)) s in
  let recall_p99 = List.fold_left (fun acc o -> Float.max acc (fst o.sim.recall_hist)) 0.0 s in
  let lease_hits = tot (fun t -> t.M.lease_hits) in
  let global = tot (fun t -> t.M.global_acquisitions) in
  let reserves = tot (fun t -> t.M.escrow_reserves) in
  let refusals = tot (fun t -> t.M.escrow_refusals) in
  let local_commits = tot (fun t -> t.M.escrow_local_commits) in
  let ships = tot (fun t -> t.M.ships) in
  let events = isum (fun o -> o.sim.dispatched) s in
  let max_queue = List.fold_left (fun acc o -> max acc o.sim.max_queue) 0 s in
  let timed = run_traced +. ser +. esc +. aud in
  let oracle_share = if timed > 0.0 then ser /. timed else 0.0 in
  let streaming = List.exists (fun o -> o.def.Workloads.config.Core.Config.streaming) s in
  if streaming && ser <> 0.0 then
    fail "bypass check: the serializability oracle ran on %s" w.Workloads.name;
  if (not streaming) && oracle_share <= 0.0 then
    fail "prediction: oracle.share is 0 on %s, which retains its history" w.Workloads.name;
  let metrics =
    [
      ("workload.generate_s", "s", med generate_s);
      ("runtime.create_s", "s", med create_s);
      ("runtime.submit_s", "s", med submit_s);
      ("runtime.run_s", "s", run_traced);
      ("runtime.ns_per_event", "ns", run_plain *. 1e9 /. float_of_int events);
      ("engine.events_per_root", "events/root", fc events);
      ("engine.max_queue", "events", float_of_int max_queue);
      ("engine.dispatch_ns", "ns", dispatch_ns);
      ("engine.fiber_ns", "ns", fiber_ns);
      per_root "txn.local_acquisitions_per_root" (fun t -> t.M.local_acquisitions);
      ("txn.precommits_per_root", "count/root", fc (lsum (fun l -> l.precommits) traced));
      per_root "txn.sub_aborts_per_root" (fun t -> t.M.sub_aborts);
      per_root "txn.retries_per_root" (fun t -> t.M.retries);
      ("txn.attempts_per_commit", "ratio", fc (lsum (fun l -> l.attempts) traced));
      ("txn.replay_ops", "count", float_of_int rp.locks.Replay.ops);
      ("txn.replay_ns_per_op", "ns", ns_per_op rp.locks);
      ("gdo.global_acquisitions_per_root", "count/root", fc global);
      per_root "gdo.upgrades_per_root" (fun t -> t.M.upgrades);
      ("gdo.home_lock_ops_per_root", "count/root", fc (isum (fun o -> o.sim.home_lock_ops) s));
      ("gdo.acquire_p50_us", "us", acq.p50);
      ("gdo.acquire_p99_us", "us", acq.p99);
      per_root "gdo.deadlock_aborts_per_root" (fun t -> t.M.deadlock_aborts);
      ("gdo.max_wait_depth", "count", float_of_int rp.max_wait_depth);
      ("gdo.replay_ops", "count", float_of_int rp.gdo.Replay.ops);
      ("gdo.replay_ns_per_op", "ns", ns_per_op rp.gdo);
      ("pages.transfers_per_root", "count/root", fc (lsum (fun l -> l.transfers) traced));
      ("pages.pages_per_root", "pages/root", fc (lsum (fun l -> l.pages) traced));
      per_root "pages.demand_fetches_per_root" (fun t -> t.M.demand_fetches);
      ( "pages.otec_vs_cotec_bytes_pct",
        "%",
        reduction_pct ~base:(bytes_of Dsm.Protocol.Cotec s) ~lever:(bytes_of Dsm.Protocol.Otec s) );
      ( "pages.lotec_vs_otec_bytes_pct",
        "%",
        reduction_pct ~base:(bytes_of Dsm.Protocol.Otec s) ~lever:(bytes_of Dsm.Protocol.Lotec s) );
      ("net.control_msgs_per_root", "msgs/root", fc (kind Sim.Network.Control msgs));
      ("net.data_msgs_per_root", "msgs/root", fc (kind Sim.Network.Data msgs));
      ("net.control_bytes_per_root", "B/root", fc (kind Sim.Network.Control bytes));
      ("net.data_bytes_per_root", "B/root", fc (kind Sim.Network.Data bytes));
      ("net.gdo_msgs_per_root", "msgs/root", fc (group "gdo" msgs));
      ("net.page_msgs_per_root", "msgs/root", fc (group "page" msgs));
      ("net.page_bytes_per_root", "B/root", fc (group "page" bytes));
      ("net.lease_msgs_per_root", "msgs/root", fc (group "lease" msgs));
      ("net.transport_msgs_per_root", "msgs/root", fc (group "transport" msgs));
      ("net.ship_msgs_per_root", "msgs/root", fc (group "ship" msgs));
      ("net.ship_bytes_per_root", "B/root", fc (group "ship" bytes));
      ("net.escrow_msgs_per_root", "msgs/root", fc (group "escrow" msgs));
      ("lease.hit_ratio", "ratio", ratio lease_hits (lease_hits + global));
      per_root "lease.recalls_per_root" (fun t -> t.M.lease_recalls);
      ("lease.recall_p99_us", "us", recall_p99);
      per_root "lease.aborts_per_root" (fun t -> t.M.lease_aborts);
      ( "cache.hit_ratio",
        "ratio",
        let h = tot (fun t -> t.M.cache_hits) in
        ratio h (h + tot (fun t -> t.M.cache_misses)) );
      per_root "cache.invalidations_per_root" (fun t -> t.M.cache_invalidations);
      per_root "batching.acks_piggybacked_per_root" (fun t -> t.M.acks_piggybacked);
      per_root "batching.fetches_aggregated_per_root" (fun t -> t.M.fetches_aggregated);
      per_root "batching.releases_coalesced_per_root" (fun t -> t.M.releases_coalesced);
      ("shipping.ship_ratio", "ratio", ratio ships (ships + tot (fun t -> t.M.ship_declines)));
      ("shipping.bytes_saved_per_root", "B/root", fc (tot (fun t -> t.M.ship_bytes_saved)));
      ( "escrow.local_commit_ratio",
        "ratio",
        ratio local_commits (local_commits + reserves + refusals) );
      ("escrow.refusal_ratio", "ratio", ratio refusals (reserves + refusals));
      per_root "escrow.recalls_per_root" (fun t -> t.M.escrow_recalls);
      per_root "escrow.reconciles_per_root" (fun t -> t.M.escrow_reconciles);
      per_root "transport.retransmits_per_root" (fun t -> t.M.retransmits);
      per_root "transport.drops_per_root" (fun t -> t.M.drops);
      per_root "transport.timeouts_per_root" (fun t -> t.M.timeouts);
      ("transport.give_ups", "count", float_of_int (tot (fun t -> t.M.give_ups)));
      ("oracle.serializability_s", "s", ser);
      ("oracle.escrow_s", "s", esc);
      ("oracle.audit_s", "s", aud);
      ("oracle.share", "ratio", oracle_share);
      ("instr.trace_overhead_frac", "ratio", (run_traced /. run_plain) -. 1.0);
      ("instr.trace_events_per_root", "count/root", fc (lsum (fun l -> l.events) traced));
      ("instr.metrics_replay_ns_per_op", "ns", ns_per_op rp.metrics);
      ("gc.alloc_words_per_root", "words/root", per (sum (fun o -> o.host.alloc_words) s) c);
      ("gc.promoted_words_per_root", "words/root", per (sum (fun o -> o.host.promoted_words) s) c);
      ("gc.major_collections", "count", float_of_int (isum (fun o -> o.host.major_collections) s));
    ]
  in
  Printf.printf "%s traced: %d traced and %d untraced repetitions of %d runs; spans in %s\n"
    w.Workloads.name (List.length traced_reps)
    (List.length !plain_reps + 1)
    (List.length defs) spans;
  print_pct "gdo acquire latency" acq;
  Printf.printf
    "  lease recall latency: p99 %.1f us (largest run p99) over %d samples, %d beyond p99\n"
    recall_p99 recall_n recall_beyond;
  Printf.printf
    "  replays: gdo %d calls (%d events unplaced), local locks %d calls (%d unplaced), \
     metrics %d calls\n"
    rp.gdo.Replay.ops rp.gdo.Replay.skipped rp.locks.Replay.ops rp.locks.Replay.skipped
    rp.metrics.Replay.ops;
  Printf.printf "  replay time: gdo %.6f s, txn %.6f s\n" rp.gdo.Replay.seconds
    rp.locks.Replay.seconds;
  Printf.printf "  paper bands: OTEC vs COTEC 20-25%%, LOTEC vs OTEC 5-10%% fewer bytes\n";
  print_result ~attempted:(isum (fun o -> o.sim.submitted) s)
    ~failed:(isum (fun o -> o.sim.gave_up) s)
    metrics

let usage () =
  prerr_endline
    ("usage: perfbench WORKLOAD --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | w :: rest when not (List.mem_assoc "workload" acc) -> parse (("workload", w) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let w = match Workloads.find (get "workload") with Some w -> w | None -> usage () in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  try
    match int "trace" with
    | 0 -> end_to_end w ~seed ~seconds
    | 1 -> per_layer w ~seed ~seconds
    | _ -> usage ()
  with Check_failed msg ->
    prerr_endline ("perfbench: check failed: " ^ msg);
    exit 1
