(* The every-event slices at spec seeds 42, 1, 2 and 3: each node gets a
   4,000 us window 0.01 us after every distinct traced event time below
   40,000 us of its kind's baseline, under COTEC, OTEC and LOTEC with 0
   and 1 GDO replicas, for each window kind (crash, partition, one-way
   cut, pause) — 92,752 runs, a few minutes in a dev build. Tier-1 runs
   the crash and partition kinds at seed 1; this runs every kind at every
   seed. Each passing kind prints its membership totals over its runs.
   Exits 1 on any failure or a changed run count.

     dune exec test/crash_point/every_event.exe *)

let expected_runs = function
  | Crash_point.Crash | Partition | One_way -> 23_208
  | Pause -> 23_128

let () =
  let ok =
    List.fold_left
      (fun ok kind ->
        let name = Crash_point.kind_name kind in
        let declared = ref 0 and falsely = ref 0 and parks = ref 0 and readmitted = ref 0 in
        let messages = ref 0 in
        let observe r =
          let m = Experiments.Runner.metrics r in
          let c = Dsm.Metrics.counters m in
          declared := !declared + c.Dsm.Metrics.nodes_declared_dead;
          falsely := !falsely + c.Dsm.Metrics.false_suspicions;
          parks := !parks + c.Dsm.Metrics.node_parks;
          readmitted := !readmitted + c.Dsm.Metrics.node_readmissions;
          messages := !messages + Dsm.Metrics.total_messages m
        in
        let runs, failures =
          Crash_point.enumerate ~kind ~observe ~spec_seeds:[ 42; 1; 2; 3 ]
            Crash_point.every_event_points
        in
        match failures with
        | [] when runs = expected_runs kind ->
            Printf.printf
              "every-event %s slice: %d runs pass (%d declared dead, %d falsely; %d parks, %d \
               readmissions; %d messages)\n%!"
              name runs !declared !falsely !parks !readmitted !messages;
            ok
        | [] ->
            Printf.printf "every-event %s slice: %d runs, expected %d\n%!" name runs
              (expected_runs kind);
            false
        | fs ->
            print_endline (Crash_point.report ~runs fs);
            false)
      true Crash_point.kinds
  in
  if not ok then exit 1
