(* Benchmark harness: writes every committed artefact of the paper's
   evaluation and the feature suites, and the wire-message breakdown.

   - every suite of Experiments.Suites (the feature suites, then the
     paper's §5 — Figures 2-8, the headline ratios, the §5.1/§6 ablations,
     the sweeps and cluster scaling), printed with its gate verdicts and
     written as BENCH_<name>.json;
   - the per-message-type traffic breakdown, as BENCH_trace.json.

   The simulator's own cost (wall clock, allocation, per-layer spans) is
   measured by perfbench/, not here. *)

(* Every sweep below persists its results as a BENCH_*.json artefact. An
   entry that silently writes nothing (or an empty array) would turn the
   perf trajectory into a gap nobody notices until a regression needs the
   history — so writing is fatal-on-empty, and main() re-checks that every
   expected artefact exists and is non-empty after the entries ran. *)
let write_artifact file contents =
  if String.trim contents = "" || String.trim contents = "[\n\n]" then begin
    Format.eprintf "FATAL: bench entry wrote no data for %s@." file;
    exit 1
  end;
  let oc = open_out file in
  output_string oc contents;
  close_out oc;
  Format.printf "wrote %s (%d bytes)@.@." file (String.length contents)

(* Per-message-type traffic breakdown (COTEC vs OTEC vs LOTEC on the
   default scenario), printed and written as BENCH_trace.json: the
   machine-readable record of the messages-vs-bytes tradeoff per wire
   message type (see OBSERVABILITY.md). *)
let trace_json_file = "BENCH_trace.json"

let msg_breakdown () =
  Format.printf "==================================================================@.";
  Format.printf "Wire-message breakdown: messages vs bytes per message type@.";
  Format.printf "==================================================================@.@.";
  let rows = Experiments.Msg_breakdown.run () in
  Format.printf "%a@." Experiments.Msg_breakdown.pp_report rows;
  write_artifact trace_json_file (Experiments.Msg_breakdown.to_json rows)

(* Every suite (see Experiments.Suites), printed with its gate verdicts and
   written as BENCH_<name>.json: the machine-readable record of the paper's
   numbers and of each lever against its baseline across revisions. Error
   rows and gate misses are reported, not fatal here — `lotec_sim suite
   NAME` is the gate. *)
let suite_json_file (suite : Experiments.Suite.t) =
  "BENCH_" ^ suite.Experiments.Suite.name ^ ".json"

let suites () =
  List.iter
    (fun (suite : Experiments.Suite.t) ->
      Format.printf "==================================================================@.";
      Format.printf "Suite %s@." suite.Experiments.Suite.name;
      Format.printf "==================================================================@.@.";
      let rows = Experiments.Suite.run suite in
      Format.printf "%a@." Experiments.Suite.pp_report (suite, rows);
      write_artifact (suite_json_file suite) (Experiments.Suite.to_json suite rows))
    Experiments.Suites.all

let () =
  suites ();
  msg_breakdown ();
  (* Belt and braces over write_artifact: every entry above must have left
     a non-empty artefact on disk. *)
  List.iter
    (fun file ->
      let size =
        try
          let ic = open_in file in
          let n = in_channel_length ic in
          close_in ic;
          n
        with Sys_error _ -> -1
      in
      if size <= 0 then begin
        Format.eprintf "FATAL: bench entry left %s missing or empty@." file;
        exit 1
      end)
    (List.map suite_json_file Experiments.Suites.all @ [ trace_json_file ])
