(* The every-event crash slice at spec seeds 42, 1, 2 and 3: each node
   crashes 0.01 us after every distinct traced event time below 40,000 us,
   under COTEC, OTEC and LOTEC with 0 and 1 GDO replicas — 23,208 runs,
   about a minute in a dev build. Tier-1 runs seed 1 alone; this runs the
   whole slice. Exits 1 on any failure or a changed run count.

     dune exec test/crash_point/every_event.exe *)

let expected_runs = 23_208

let () =
  let runs, failures =
    Crash_point.enumerate ~spec_seeds:[ 42; 1; 2; 3 ] Crash_point.every_event_points
  in
  match failures with
  | [] when runs = expected_runs -> Printf.printf "every-event crash slice: %d runs pass\n" runs
  | [] ->
      Printf.printf "every-event crash slice: %d runs, expected %d\n" runs expected_runs;
      exit 1
  | fs ->
      print_endline (Crash_point.report ~runs fs);
      exit 1
