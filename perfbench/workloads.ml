(* The four benchmark workloads. Each loads a different layer of the
   simulator and bypasses others; the [zero] / [loaded] lists are the
   counter groups a run must read as all-zero / non-zero, so a config
   change that quietly turns one workload into another fails the run. *)

type feed =
  | Upfront  (** every root submitted before [Core.Runtime.run] *)
  | Lazy  (** arrivals fed from the engine clock, as Experiments.Scale.run_point does *)

type run_def = {
  label : string;  (** scenario/protocol/pass — the tag of every span of the run *)
  scenario : string;
  protocol : Dsm.Protocol.t;
  spec : Workload.Spec.t;  (** the root stream's seed is derived from the benchmark seed *)
  catalog_seed : int option;
      (** [Some s]: the object catalog is the scenario's own, generated from
          seed [s], and the benchmark seed varies only the root stream *)
  config : Core.Config.t;
  feed : feed;
}

type t = {
  name : string;
  why : string;
  runs : seed:int -> run_def list;
  zero : string list;
  loaded : string list;
}

(* Derive the [k]-th input seed of a benchmark seed; generated inputs are
   the only thing the program receives. *)
let derive seed k = abs ((seed * 1_000_003) + (k * 7919) + 17)

let make_run ?catalog_seed ~label ~scenario ~protocol ~feed (spec : Workload.Spec.t)
    config =
  let config =
    { config with Core.Config.protocol; node_count = spec.Workload.Spec.node_count }
  in
  (match Core.Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "workload %s: invalid config: %s" label e));
  { label; scenario; protocol; spec; catalog_seed; config; feed }

(* Seeded passes of the four paper scenarios in one paper-figs run. A
   200-root run of a high-contention scenario swings widely with its root
   stream (deadlock storms), so a benchmark run reports medians over this
   many passes (see [over_cells] in perfbench.ml). *)
let paper_passes = 12

let paper_scenarios =
  Workload.Scenarios.
    [
      ("medium-high", medium_high);
      ("large-high", large_high);
      ("medium-moderate", medium_moderate);
      ("large-moderate", large_moderate);
    ]

let paper_protocols = Dsm.Protocol.[ Cotec; Otec; Lotec ]

let paper_figs =
  {
    name = "paper-figs";
    why =
      "the paper's four scenarios x COTEC/OTEC/LOTEC at 200 roots, levers off: the \
       section 5 reproduction and the bypass workload for every lever layer";
    runs =
      (fun ~seed ->
        List.concat_map
          (fun pass ->
            List.concat
              (List.mapi
                 (fun i (scenario, (spec : Workload.Spec.t)) ->
                   let catalog_seed = spec.Workload.Spec.seed in
                   let spec = { spec with Workload.Spec.seed = derive seed ((pass * 10) + i) } in
                   List.map
                     (fun protocol ->
                       make_run ~catalog_seed
                         ~label:
                           (Printf.sprintf "%s/%s/pass%d" scenario
                              (Dsm.Protocol.to_string protocol) pass)
                         ~scenario ~protocol ~feed:Upfront spec Core.Config.default)
                     paper_protocols)
                 paper_scenarios))
          (List.init paper_passes Fun.id));
    zero = [ "lease"; "cache"; "batching"; "shipping"; "transport"; "escrow" ];
    loaded = [];
  }

let stream_roots = 30_000
let stream_nodes = 64
let stream_passes = 3

let stream_scale =
  {
    name = "stream-scale";
    why =
      "long streaming LOTEC runs on 64 nodes fed lazily: the per-event runtime path \
       and Txn.Local_locks scans, nothing contending, oracle off";
    runs =
      (fun ~seed ->
        List.init stream_passes (fun pass ->
            make_run
              ~label:(Printf.sprintf "stream/lotec/pass%d" pass)
              ~scenario:"scale" ~protocol:Dsm.Protocol.Lotec ~feed:Lazy
              {
                (Experiments.Scale.spec_for ~roots:stream_roots ~nodes:stream_nodes) with
                Workload.Spec.seed = derive seed pass;
              }
              { Core.Config.default with Core.Config.streaming = true }));
    zero = [ "lease"; "cache"; "batching"; "shipping"; "transport"; "escrow" ];
    loaded = [];
  }

let web_roots = 20_000

(* The web run is overloaded (its hot objects queue behind 5% writers and
   5 ms retransmit timers), so its commit-latency tail swings with the root
   stream; three seeded passes keep the reported tail steady. *)
let web_passes = 3

let web_levers_lossy =
  {
    name = "web-levers-lossy";
    why =
      "long web-catalog LOTEC runs with lease, method cache, batching and shipping \
       under 3% loss: the read path and the reliable transport";
    runs =
      (fun ~seed ->
        List.init web_passes (fun pass ->
            make_run ~catalog_seed:Workload.Scenarios.web_catalog.Workload.Spec.seed
              ~label:(Printf.sprintf "web-catalog/lotec/pass%d" pass)
              ~scenario:"web-catalog" ~protocol:Dsm.Protocol.Lotec ~feed:Upfront
              {
                Workload.Scenarios.web_catalog with
                Workload.Spec.seed = derive seed pass;
                root_count = web_roots;
              }
              {
                Core.Config.default with
                Core.Config.lease = Experiments.Method_cache.default_lease;
                method_cache = Experiments.Method_cache.default_policy;
                batching = Dsm.Batching.all;
                shipping = Dsm.Shipping.On Dsm.Shipping.default_params;
                faults = Some Experiments.Batching.default_faults;
              }));
    zero = [ "escrow" ];
    loaded = [ "lease"; "cache"; "batching"; "shipping"; "transport" ];
  }

let bank_roots = 20_000
let bank_passes = 4

let bank_escrow =
  {
    name = "bank-escrow";
    why =
      "long hot-account bank runs on LOTEC with escrow commit: commuting deltas \
       beside exclusive writers whose GDO wait queues deepen";
    runs =
      (fun ~seed ->
        List.init bank_passes (fun pass ->
            make_run ~catalog_seed:Workload.Scenarios.bank.Workload.Spec.seed
              ~label:(Printf.sprintf "bank/lotec/pass%d" pass)
              ~scenario:"bank" ~protocol:Dsm.Protocol.Lotec ~feed:Upfront
              {
                Workload.Scenarios.bank with
                Workload.Spec.seed = derive seed pass;
                root_count = bank_roots;
              }
              {
                Core.Config.default with
                Core.Config.escrow = Dsm.Escrow.On Experiments.Escrow.default_params;
              }));
    zero = [ "lease"; "cache"; "batching"; "shipping"; "transport" ];
    loaded = [ "escrow" ];
  }

let all = [ paper_figs; stream_scale; web_levers_lossy; bank_escrow ]
let find name = List.find_opt (fun w -> w.name = name) all
