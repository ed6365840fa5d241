(* Cmdliner-based driver for the LOTEC simulator.

   Subcommands:
     run   — one scenario under one protocol (rich config flags)
     suite — one suite with its oracle and gates: the paper's evaluation
             (paper, protocols, ablation, per-class, granularity, sweep,
             scaling) or a feature suite (chaos, crash, partition, lease,
             cache, batch, ship, escrow)
     trace — run with protocol-event tracing and print the tail *)

open Cmdliner

let protocol_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Dsm.Protocol.of_string s) in
  let print fmt p = Dsm.Protocol.pp fmt p in
  Arg.conv (parse, print)

let scenario_conv =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) Workload.Scenarios.all with
    | Some spec -> Ok spec
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %S (expected one of: %s)" s
                (String.concat ", " (List.map fst Workload.Scenarios.all))))
  in
  let print fmt spec = Workload.Spec.pp fmt spec in
  Arg.conv (parse, print)

let scenario_arg =
  let doc =
    "Workload scenario: medium-high, large-high, medium-moderate, large-moderate, \
     web-sessions, web-catalog, web-diurnal or web-flash-crowd."
  in
  Arg.(value & opt scenario_conv Workload.Scenarios.medium_high & info [ "scenario" ] ~doc)

let protocol_arg =
  let doc = "Consistency protocol: cotec, otec, lotec or rc-nested." in
  Arg.(value & opt protocol_conv Dsm.Protocol.Lotec & info [ "protocol"; "p" ] ~doc)

let seed_arg =
  let doc = "Override the workload seed." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~doc)

let roots_arg =
  let doc = "Override the number of root transactions." in
  Arg.(value & opt (some int) None & info [ "roots" ] ~doc)

let apply_overrides spec seed roots =
  let spec = match seed with Some s -> { spec with Workload.Spec.seed = s } | None -> spec in
  match roots with Some r -> { spec with Workload.Spec.root_count = r } | None -> spec

(* A policy named on the command line, or exit 2 with the parser's message
   (which names the valid set). *)
let parse_policy of_string s =
  match of_string s with
  | Ok p -> p
  | Error e ->
      prerr_endline e;
      exit 2

(* Read-lease policy. *)
let lease_policy_arg =
  let doc = "Read-lease policy: off or ttl." in
  Arg.(value & opt string "off" & info [ "lease-policy" ] ~doc)

let lease_ttl_arg =
  let doc = "Lease TTL in simulated microseconds (with --lease-policy ttl)." in
  Arg.(value & opt (some float) None & info [ "lease-ttl-us" ] ~doc)

(* Build a policy from the flags: the string picks the shape, the optional
   TTL flag overrides its parameter. *)
let lease_policy ~policy ~ttl =
  match parse_policy Gdo.Lease.policy_of_string policy with
  | Gdo.Lease.Off -> Gdo.Lease.Off
  | Gdo.Lease.Fixed_ttl { ttl_us } ->
      Gdo.Lease.Fixed_ttl { ttl_us = Option.value ttl ~default:ttl_us }

(* Method-result cache policy. *)
let cache_arg =
  let doc =
    "Method-result cache policy: off, lru or lru:CAPACITY. Requires an enabled lease \
     policy (the lease is the cache's invalidation signal)."
  in
  Arg.(value & opt string "off" & info [ "cache" ] ~doc)

(* Message-combining policy. *)
let batching_arg =
  let doc = "Message-combining policy: off or all." in
  Arg.(value & opt string "off" & info [ "batching" ] ~doc)

(* Function shipping: the cost model takes its per-message and per-byte
   costs from the link. *)
let shipping_arg =
  let doc = "Function-shipping policy: off or on." in
  Arg.(value & opt string "off" & info [ "shipping" ] ~doc)

(* Escrow commit. *)
let escrow_arg =
  let doc = "Escrow-commit policy: off, on, or on:<local-quota>." in
  Arg.(value & opt string "off" & info [ "escrow" ] ~doc)

(* Interconnect fault injection. *)
let fault_drop_arg =
  let doc = "Per-message drop probability in [0,1]." in
  Arg.(value & opt float 0.0 & info [ "fault-drop" ] ~doc)

let fault_duplicate_arg =
  let doc = "Per-message duplication probability in [0,1]." in
  Arg.(value & opt float 0.0 & info [ "fault-duplicate" ] ~doc)

let fault_jitter_arg =
  let doc = "Max extra delivery delay in microseconds (uniform in [0, jitter])." in
  Arg.(value & opt float 0.0 & info [ "fault-jitter-us" ] ~doc)

let fault_seed_arg =
  let doc = "Seed of the fault injector's PRNG (independent of the workload seed)." in
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc)

let timeout_arg =
  let doc = "Retransmit timer for unacknowledged messages, in microseconds." in
  Arg.(
    value
    & opt float Core.Config.default.Core.Config.request_timeout_us
    & info [ "request-timeout-us" ] ~doc)

let retransmits_arg =
  let doc = "Retransmissions of one message before the transport gives up." in
  Arg.(
    value
    & opt int Core.Config.default.Core.Config.max_retransmits
    & info [ "max-retransmits" ] ~doc)

(* Crash windows: "NODE:FROM_US:UNTIL_US". *)
let crash_window_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ n; f; u ] -> (
        try Ok (int_of_string n, float_of_string f, float_of_string u)
        with Failure _ -> Error (`Msg ("bad crash window " ^ s)))
    | _ -> Error (`Msg ("expected NODE:FROM_US:UNTIL_US, got " ^ s))
  in
  let print fmt (n, f, u) = Format.fprintf fmt "%d:%g:%g" n f u in
  Arg.conv (parse, print)

let crash_windows_arg =
  let doc =
    "Fail-stop crash-restart window as NODE:FROM_US:UNTIL_US (repeatable). The node loses \
     its volatile state at FROM_US and rejoins with a fresh incarnation at UNTIL_US."
  in
  Arg.(value & opt_all crash_window_conv [] & info [ "crash-window" ] ~docv:"N:F:U" ~doc)

(* Partition windows: "N[,N...]:FROM_US:UNTIL_US" — the listed nodes form one
   side of the split; messages crossing the boundary are lost both ways. *)
let partition_window_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ g; f; u ] -> (
        try
          let group = List.map int_of_string (String.split_on_char ',' g) in
          Ok (group, float_of_string f, float_of_string u)
        with Failure _ -> Error (`Msg ("bad partition window " ^ s)))
    | _ -> Error (`Msg ("expected NODES:FROM_US:UNTIL_US, got " ^ s))
  in
  let print fmt (g, f, u) =
    Format.fprintf fmt "%s:%g:%g" (String.concat "," (List.map string_of_int g)) f u
  in
  Arg.conv (parse, print)

let partition_windows_arg =
  let doc =
    "Network partition window as NODES:FROM_US:UNTIL_US where NODES is a comma-separated \
     group forming one side of the split (repeatable). Messages crossing the boundary are \
     lost in both directions; the partition heals at UNTIL_US."
  in
  Arg.(
    value & opt_all partition_window_conv [] & info [ "partition-window" ] ~docv:"G:F:U" ~doc)

(* Slow links: "SRC>DST:EXTRA_US:FROM_US:UNTIL_US" (gray failure). *)
let slow_link_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ sd; e; f; u ] -> (
        match String.split_on_char '>' sd with
        | [ src; dst ] -> (
            try
              Ok
                ( int_of_string src,
                  int_of_string dst,
                  float_of_string e,
                  float_of_string f,
                  float_of_string u )
            with Failure _ -> Error (`Msg ("bad slow link " ^ s)))
        | _ -> Error (`Msg ("expected SRC>DST:EXTRA_US:FROM_US:UNTIL_US, got " ^ s)))
    | _ -> Error (`Msg ("expected SRC>DST:EXTRA_US:FROM_US:UNTIL_US, got " ^ s))
  in
  let print fmt (s, d, e, f, u) = Format.fprintf fmt "%d>%d:%g:%g:%g" s d e f u in
  Arg.conv (parse, print)

let slow_links_arg =
  let doc =
    "Gray-failure window as SRC>DST:EXTRA_US:FROM_US:UNTIL_US (repeatable): messages from \
     SRC to DST incur EXTRA_US additional latency during the window but are delivered."
  in
  Arg.(value & opt_all slow_link_conv [] & info [ "slow-link" ] ~docv:"S>D:E:F:U" ~doc)

let gdo_replicas_arg =
  let doc =
    "GDO replication factor: with crash windows, a crashed home's partition fails over to \
     its first live ring successor; 0 leaves it unavailable until the restart."
  in
  Arg.(
    value
    & opt int Core.Config.default.Core.Config.gdo_replicas
    & info [ "gdo-replicas" ] ~doc)

let dump_directory_arg =
  let doc = "Print the GDO dump (non-free entries) after the run, and on a stall." in
  Arg.(value & flag & info [ "dump-directory" ] ~doc)

let fault_config ~drop ~duplicate ~jitter ~fault_seed ~crash_windows ~partition_windows
    ~slow_links =
  if
    drop = 0.0 && duplicate = 0.0 && jitter = 0.0 && crash_windows = []
    && partition_windows = [] && slow_links = []
  then None
  else
    (* Any non-default value gets a config, even an out-of-range one, so it
       reaches Config.validate instead of being silently ignored. *)
    Some
      {
        Sim.Fault.seed = fault_seed;
        drop_probability = drop;
        duplicate_probability = duplicate;
        delay_jitter_us = jitter;
        windows =
          List.map
            (fun (n, f, u) ->
              {
                Sim.Fault.w_node = n;
                w_kind = Sim.Fault.Crash;
                w_from_us = f;
                w_until_us = u;
              })
            crash_windows;
        link_windows =
          List.map
            (fun (g, f, u) ->
              {
                Sim.Fault.lw_kind = Sim.Fault.Partition g;
                lw_from_us = f;
                lw_until_us = u;
              })
            partition_windows
          @ List.map
              (fun (s, d, e, f, u) ->
                {
                  Sim.Fault.lw_kind =
                    Sim.Fault.Slow { slow_src = s; slow_dst = d; extra_us = e };
                  lw_from_us = f;
                  lw_until_us = u;
                })
              slow_links;
      }

(* Shared by run (via the --trace- flags) and the trace subcommand. *)
let write_chrome_trace ~node_count tr file =
  let json = Dsm.Trace_export.to_chrome ~node_count (Sim.Trace.events tr) in
  (match Dsm.Trace_export.validate_json json with
  | Ok () -> ()
  | Error e ->
      Format.eprintf "internal error: chrome export is not valid JSON: %s@." e;
      exit 1);
  let oc = open_out file in
  output_string oc json;
  close_out oc;
  Format.printf "wrote %s (%d events, load in Perfetto or chrome://tracing)@." file
    (Sim.Trace.length tr)

let print_trace_tail tr n =
  if Sim.Trace.dropped tr > 0 then
    Format.printf "(%d early events dropped by the ring)@." (Sim.Trace.dropped tr);
  Format.printf "last %d event(s):@." (min n (Sim.Trace.length tr));
  List.iter
    (fun e -> Format.printf "%a@." (Sim.Trace.pp_entry Dsm.Event.pp) e)
    (Sim.Trace.latest tr n)

let run_cmd =
  let objects_arg =
    let doc = "Override the number of shared objects." in
    Arg.(value & opt (some int) None & info [ "objects" ] ~doc)
  in
  let skew_arg =
    let doc = "Zipf-like access skew over root targets (0 = uniform; default: the scenario's)." in
    Arg.(value & opt (some float) None & info [ "skew" ] ~doc)
  in
  let abort_arg =
    let doc = "Injected sub-transaction failure probability in [0,1]." in
    Arg.(value & opt float 0.0 & info [ "abort-probability" ] ~doc)
  in
  let prefetch_arg =
    let doc = "Enable optimistic pre-acquisition of sub-invocation locks." in
    Arg.(value & flag & info [ "prefetch" ] ~doc)
  in
  let cpu_arg =
    let doc = "Serialise statement execution on one CPU per node." in
    Arg.(value & flag & info [ "cpu-limited" ] ~doc)
  in
  let trace_capacity_arg =
    let doc = "Retain the last $(docv) protocol events (0 disables tracing)." in
    Arg.(value & opt int 0 & info [ "trace-capacity" ] ~docv:"N" ~doc)
  in
  let trace_tail_arg =
    let doc = "Print the last $(docv) traced events (needs --trace-capacity)." in
    Arg.(value & opt int 0 & info [ "trace-tail" ] ~docv:"N" ~doc)
  in
  let trace_chrome_arg =
    let doc = "Write the trace as Chrome trace-event JSON to $(docv) (needs --trace-capacity)." in
    Arg.(value & opt (some string) None & info [ "trace-chrome" ] ~docv:"FILE" ~doc)
  in
  let action spec protocol seed roots objects skew abort_probability prefetch cpu_limited drop
      duplicate jitter fault_seed crash_windows partition_windows slow_links gdo_replicas
      dump_directory request_timeout_us max_retransmits policy ttl cache batching shipping
      escrow trace_capacity trace_tail trace_chrome =
    let spec = apply_overrides spec seed roots in
    let spec =
      match objects with
      | Some n -> { spec with Workload.Spec.object_count = n }
      | None -> spec
    in
    let spec =
      match skew with
      | Some s -> { spec with Workload.Spec.access_skew = s }
      | None -> spec
    in
    let config =
      {
        Core.Config.default with
        Core.Config.abort_probability;
        prefetch;
        cpu_limited;
        faults =
          fault_config ~drop ~duplicate ~jitter ~fault_seed ~crash_windows
            ~partition_windows ~slow_links;
        gdo_replicas;
        request_timeout_us;
        max_retransmits;
        lease = lease_policy ~policy ~ttl;
        method_cache = parse_policy Dsm.Method_cache.policy_of_string cache;
        batching = parse_policy Dsm.Batching.of_string batching;
        shipping = parse_policy Dsm.Shipping.policy_of_string shipping;
        escrow = parse_policy Dsm.Escrow.policy_of_string escrow;
        trace_capacity;
      }
    in
    (match Core.Config.validate config with
    | Ok () -> ()
    | Error msg ->
        prerr_endline msg;
        exit 2);
    let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
    Format.printf "workload: %a@.@." Workload.Spec.pp spec;
    let dump_gdo rt =
      print_string "-- directory (non-free entries) --\n";
      print_string (Gdo.Directory.dump (Core.Runtime.directory rt))
    in
    let on_stall = if dump_directory then Some dump_gdo else None in
    let run = Experiments.Runner.execute ~config ?on_stall ~protocol wl in
    Format.printf "== %a ==@.%a@." Dsm.Protocol.pp protocol Dsm.Metrics.pp_summary
      (Experiments.Runner.metrics run);
    if dump_directory then dump_gdo run.Experiments.Runner.runtime;
    match Core.Runtime.trace run.Experiments.Runner.runtime with
    | None ->
        if trace_tail > 0 || trace_chrome <> None then
          prerr_endline "pass --trace-capacity N to enable tracing"
    | Some tr ->
        if trace_tail > 0 then begin
          Format.printf "@.";
          print_trace_tail tr trace_tail
        end;
        Option.iter
          (write_chrome_trace ~node_count:config.Core.Config.node_count tr)
          trace_chrome
  in
  let term =
    Term.(
      const action $ scenario_arg $ protocol_arg $ seed_arg $ roots_arg $ objects_arg
      $ skew_arg $ abort_arg $ prefetch_arg $ cpu_arg $ fault_drop_arg $ fault_duplicate_arg
      $ fault_jitter_arg $ fault_seed_arg $ crash_windows_arg $ partition_windows_arg
      $ slow_links_arg $ gdo_replicas_arg $ dump_directory_arg $ timeout_arg
      $ retransmits_arg $ lease_policy_arg $ lease_ttl_arg $ cache_arg $ batching_arg
      $ shipping_arg $ escrow_arg $ trace_capacity_arg $ trace_tail_arg $ trace_chrome_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one scenario under one protocol.") term

let suite_cmd =
  let suite_arg =
    let suites =
      List.map
        (fun (s : Experiments.Suite.t) -> (s.Experiments.Suite.name, s))
        Experiments.Suites.all
    in
    let doc = "The suite to run: " ^ String.concat ", " (List.map fst suites) ^ "." in
    Arg.(required & pos 0 (some (enum suites)) None & info [] ~docv:"NAME" ~doc)
  in
  let json_arg =
    let doc = "Also write the rows and gate verdicts as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let action suite json =
    let rows = Experiments.Suite.run suite in
    Format.printf "%a@." Experiments.Suite.pp_report (suite, rows);
    Option.iter
      (fun file ->
        let oc = open_out file in
        output_string oc (Experiments.Suite.to_json suite rows);
        close_out oc;
        Format.printf "wrote %s@." file)
      json;
    if not (Experiments.Suite.passed suite rows) then exit 1
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Run one suite (protocols x cases x arms): a section of the paper's evaluation or a \
          feature sweep, every run checked by the shared oracle; print the table and the gate \
          verdicts, and exit 1 on any error row or blocking gate miss.")
    Term.(const action $ suite_arg $ json_arg)

let trace_cmd =
  let count_arg =
    let doc = "Number of trailing events to print." in
    Arg.(value & opt int 40 & info [ "n"; "events"; "tail" ] ~doc)
  in
  let chrome_arg =
    let doc =
      "Write the full trace as Chrome trace-event JSON to $(docv), one track per simulated \
       node (load in Perfetto or chrome://tracing)."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let txn_arg =
    let doc = "Print the timeline of transaction family $(docv) instead of the event tail." in
    Arg.(value & opt (some int) None & info [ "txn" ] ~docv:"ID" ~doc)
  in
  let capacity_arg =
    let doc = "Retain the last $(docv) protocol events." in
    Arg.(value & opt int 100_000 & info [ "trace-capacity" ] ~docv:"N" ~doc)
  in
  let action spec protocol seed roots n chrome txn capacity =
    let spec = apply_overrides spec seed roots in
    let config = { Core.Config.default with Core.Config.trace_capacity = capacity } in
    let wl =
      Workload.Generator.generate spec ~page_size:config.Core.Config.page_size
    in
    let run = Experiments.Runner.execute ~config ~protocol wl in
    let metrics = Experiments.Runner.metrics run in
    match Core.Runtime.trace run.Experiments.Runner.runtime with
    | None -> prerr_endline "tracing was not enabled"
    | Some tr ->
        Format.printf "event counts:@.";
        List.iter
          (fun (c, k) -> Format.printf "  %-14s %d@." c k)
          (Sim.Trace.counts tr ~label:Dsm.Event.category);
        Format.printf "@.%a@." Dsm.Metrics.pp_wire_breakdown metrics;
        Format.printf "@.%a@." Dsm.Metrics.pp_latencies metrics;
        Format.printf "@.";
        (match txn with
        | Some id ->
            print_string
              (Dsm.Trace_export.timeline ~family:(Txn.Txn_id.of_int id) (Sim.Trace.events tr))
        | None -> print_trace_tail tr n);
        Option.iter (write_chrome_trace ~node_count:config.Core.Config.node_count tr) chrome
  in
  let term =
    Term.(
      const action $ scenario_arg $ protocol_arg $ seed_arg $ roots_arg $ count_arg
      $ chrome_arg $ txn_arg $ capacity_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a scenario with typed protocol-event tracing; print per-category counts, the \
          per-message-type wire breakdown, latency percentiles and the event tail (or one \
          family's timeline), optionally exporting Chrome trace JSON.")
    term

let main () =
  let doc = "LOTEC: nested object transactions over simulated DSM (PODC '99 reproduction)" in
  let info = Cmd.info "lotec_sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; trace_cmd; suite_cmd ]))
