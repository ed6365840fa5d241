(* Crash-point enumeration: one run per (spec seed, protocol, GDO
   replicas, node, start), each under the crash suite's tightened timers
   with a single 4,000 us crash window on [node] opening at [start]. The
   shared oracle and the stall detector raise on a violation, so a case
   passes by returning. The crash points come from a traced baseline whose
   only window is late (node 0 at 90,000 us): every run with a window arms
   the same transport and heartbeats, so a crash-point run matches the
   baseline up to its window. *)

let spec = Experiments.Chaos.default_spec
let node_count = spec.Workload.Spec.node_count

let workload =
  let memo = Hashtbl.create 4 in
  fun spec_seed ->
    match Hashtbl.find_opt memo spec_seed with
    | Some wl -> wl
    | None ->
        let wl =
          Workload.Generator.generate
            { spec with Workload.Spec.seed = spec_seed }
            ~page_size:Core.Config.default.Core.Config.page_size
        in
        Hashtbl.add memo spec_seed wl;
        wl

(* One crash point. A failing enumeration case names its tuple; this call
   replays it (add [~trace_capacity] to read its trace). *)
let run ?(trace_capacity = 0) ~spec_seed ~protocol ~replicas ~node ~start () =
  let config =
    Experiments.Chaos.tight_timers
      {
        Core.Config.default with
        Core.Config.faults =
          Some
            (Experiments.Chaos.crash_faults ~fault_seed:1 [ (node, start, start +. 4_000.0) ]);
        gdo_replicas = replicas;
        trace_capacity;
      }
  in
  Experiments.Runner.execute ~config ~protocol (workload spec_seed)

(* Every traced event of the baseline run; fails if the ring dropped any,
   since a missing event would silently drop its crash points. *)
let baseline ~spec_seed ~protocol ~replicas =
  let r =
    run ~trace_capacity:200_000 ~spec_seed ~protocol ~replicas ~node:0 ~start:90_000.0 ()
  in
  match Core.Runtime.trace r.Experiments.Runner.runtime with
  | None -> failwith "Crash_point.baseline: tracing is off"
  | Some tr ->
      if Sim.Trace.dropped tr > 0 then
        failwith "Crash_point.baseline: the trace ring dropped events";
      Sim.Trace.events tr

(* After each root commit at t, every node crashes at t + 0.01 us, and the
   committing node at t + 5, 20 and 60 us. *)
let commit_points events =
  List.concat_map
    (fun (e : Dsm.Event.t Sim.Trace.entry) ->
      match e.Sim.Trace.data with
      | Dsm.Event.Root_commit { node = committer; _ } ->
          let tc = e.Sim.Trace.time in
          List.init node_count (fun node -> (node, tc +. 0.01))
          @ List.map (fun d -> (committer, tc +. d)) [ 5.0; 20.0; 60.0 ]
      | _ -> [])
    events

(* After every distinct event time t below 40,000 us, every node crashes
   at t + 0.01 us. *)
let every_event_points events =
  List.filter_map
    (fun (e : Dsm.Event.t Sim.Trace.entry) ->
      if e.Sim.Trace.time < 40_000.0 then Some e.Sim.Trace.time else None)
    events
  |> List.sort_uniq Float.compare
  |> List.concat_map (fun t -> List.init node_count (fun node -> (node, t +. 0.01)))

(* Run [points] of the baseline of every protocol (COTEC, OTEC, LOTEC)
   with 0 and 1 GDO replicas at each spec seed. Returns the run count and
   the failures, each naming its tuple with the start printed exactly, in
   enumeration order. *)
let enumerate ~spec_seeds points =
  let runs = ref 0 and failures = ref [] in
  List.iter
    (fun spec_seed ->
      List.iter
        (fun protocol ->
          List.iter
            (fun replicas ->
              List.iter
                (fun (node, start) ->
                  incr runs;
                  match run ~spec_seed ~protocol ~replicas ~node ~start () with
                  | _ -> ()
                  | exception e ->
                      failures :=
                        Format.asprintf "(spec seed %d, %a, replicas %d, node %d, start %.17g): %s"
                          spec_seed Dsm.Protocol.pp protocol replicas node start
                          (Printexc.to_string e)
                        :: !failures)
                (points (baseline ~spec_seed ~protocol ~replicas)))
            [ 0; 1 ])
        Dsm.Protocol.[ Cotec; Otec; Lotec ])
    spec_seeds;
  (!runs, List.rev !failures)

(* The first ten failures, under a line saying how to replay one. *)
let report ~runs failures =
  Format.asprintf
    "%d of %d crash points fail; replay one with Crash_point.run ~spec_seed ~protocol \
     ~replicas ~node ~start ():@.%s"
    (List.length failures) runs
    (String.concat "\n" (List.filteri (fun i _ -> i < 10) failures))
