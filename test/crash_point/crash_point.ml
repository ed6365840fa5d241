(* Crash-point enumeration: one run per (window kind, spec seed, protocol,
   GDO replicas, node, start), each under the crash suite's tightened
   timers with a single 4,000 us window on [node] opening at [start]. The
   shared oracle and the stall detector raise on a violation, so a case
   passes by returning. The points of each kind come from that kind's
   traced baseline, whose only window is late (node 0 at 90,000 us): every
   run with a window of the kind arms the same transport (and, for crash
   and link windows, the same heartbeats), so a run matches its baseline
   up to its window. *)

let spec = Experiments.Chaos.default_spec
let node_count = spec.Workload.Spec.node_count

(* What the window does to [node]: a fail-stop crash, a partition
   isolating it from every other node, a one-way cut of its link to
   node + 1 mod 4, or a pause deferring every delivery to it. *)
type kind = Crash | Partition | One_way | Pause

let kinds = [ Crash; Partition; One_way; Pause ]

let kind_name = function
  | Crash -> "crash"
  | Partition -> "partition"
  | One_way -> "one-way"
  | Pause -> "pause"

let faults kind ~node ~start =
  let until = start +. 4_000.0 in
  let link lw_kind =
    {
      Sim.Fault.none with
      Sim.Fault.seed = 1;
      link_windows = [ { Sim.Fault.lw_kind; lw_from_us = start; lw_until_us = until } ];
    }
  in
  match kind with
  | Crash -> Experiments.Chaos.crash_faults ~fault_seed:1 [ (node, start, until) ]
  | Partition -> link (Sim.Fault.Partition [ node ])
  | One_way -> link (Sim.Fault.One_way { cut_src = node; cut_dst = (node + 1) mod node_count })
  | Pause ->
      {
        Sim.Fault.none with
        Sim.Fault.seed = 1;
        windows =
          [
            {
              Sim.Fault.w_node = node;
              w_kind = Sim.Fault.Pause;
              w_from_us = start;
              w_until_us = until;
            };
          ];
      }

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
let run ?(kind = Crash) ?(trace_capacity = 0) ~spec_seed ~protocol ~replicas ~node ~start () =
  let config =
    Experiments.Chaos.tight_timers
      {
        Core.Config.default with
        Core.Config.faults = Some (faults kind ~node ~start);
        gdo_replicas = replicas;
        trace_capacity;
      }
  in
  Experiments.Runner.execute ~config ~protocol (workload spec_seed)

(* Every traced event of the kind's baseline run; fails if the ring
   dropped any, since a missing event would silently drop its points. *)
let baseline ~kind ~spec_seed ~protocol ~replicas =
  let r =
    run ~kind ~trace_capacity:200_000 ~spec_seed ~protocol ~replicas ~node:0 ~start:90_000.0 ()
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

(* After every distinct event time t below 40,000 us, every node gets a
   window at t + 0.01 us. *)
let every_event_points events =
  List.filter_map
    (fun (e : Dsm.Event.t Sim.Trace.entry) ->
      if e.Sim.Trace.time < 40_000.0 then Some e.Sim.Trace.time else None)
    events
  |> List.sort_uniq Float.compare
  |> List.concat_map (fun t -> List.init node_count (fun node -> (node, t +. 0.01)))

(* Run [points] of the kind's baseline of every protocol (COTEC, OTEC,
   LOTEC) with 0 and 1 GDO replicas at each spec seed, passing each run
   that returns to [observe]. Returns the run count and the failures, each
   naming its tuple with the start printed exactly, in enumeration
   order. *)
let enumerate ?(kind = Crash) ?(observe = ignore) ~spec_seeds points =
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
                  match run ~kind ~spec_seed ~protocol ~replicas ~node ~start () with
                  | r -> observe r
                  | exception e ->
                      failures :=
                        Format.asprintf
                          "(%s, spec seed %d, %a, replicas %d, node %d, start %.17g): %s"
                          (kind_name kind) spec_seed Dsm.Protocol.pp protocol replicas node start
                          (Printexc.to_string e)
                        :: !failures)
                (points (baseline ~kind ~spec_seed ~protocol ~replicas)))
            [ 0; 1 ])
        Dsm.Protocol.[ Cotec; Otec; Lotec ])
    spec_seeds;
  (!runs, List.rev !failures)

(* The first ten failures, under a line saying how to replay one. *)
let report ~runs failures =
  Format.asprintf
    "%d of %d crash points fail; replay one with Crash_point.run ~kind ~spec_seed ~protocol \
     ~replicas ~node ~start ():@.%s"
    (List.length failures) runs
    (String.concat "\n" (List.filteri (fun i _ -> i < 10) failures))
