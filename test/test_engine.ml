(* Tests for the discrete-event engine and its fiber primitives. *)

open Sim

let test_time_advances () =
  let e = Engine.create () in
  let trace = ref [] in
  Engine.schedule e ~delay:10.0 (fun () -> trace := (Engine.now e, "b") :: !trace);
  Engine.schedule e ~delay:5.0 (fun () -> trace := (Engine.now e, "a") :: !trace);
  Engine.run e;
  Alcotest.(check (list (pair (float 0.001) string)))
    "events in time order"
    [ (5.0, "a"); (10.0, "b") ]
    (List.rev !trace)

let test_same_time_fifo () =
  let e = Engine.create () in
  let trace = ref [] in
  for i = 0 to 4 do
    Engine.schedule e ~delay:1.0 (fun () -> trace := i :: !trace)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at same instant" [ 0; 1; 2; 3; 4 ] (List.rev !trace)

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()))

let test_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref 0.0 in
  Engine.schedule e ~delay:3.0 (fun () ->
      Engine.schedule e ~delay:4.0 (fun () -> fired := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 0.001)) "relative to firing time" 7.0 !fired

let test_fiber_wait () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      log := ("start", Engine.now e) :: !log;
      Engine.wait 10.0;
      log := ("mid", Engine.now e) :: !log;
      Engine.wait 2.5;
      log := ("end", Engine.now e) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.001))))
    "wait advances fiber time"
    [ ("start", 0.0); ("mid", 10.0); ("end", 12.5) ]
    (List.rev !log)

let test_fiber_count () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> Engine.wait 1.0);
  Engine.spawn e (fun () -> Engine.wait 2.0);
  Alcotest.(check int) "two live" 2 (Engine.fiber_count e);
  Engine.run e;
  Alcotest.(check int) "all done" 0 (Engine.fiber_count e)

let test_ivar_basic () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create () in
  Alcotest.(check bool) "empty" false (Engine.Ivar.is_filled iv);
  let got = ref 0 in
  Engine.spawn e (fun () -> got := Engine.Ivar.read iv);
  Engine.schedule e ~delay:5.0 (fun () -> Engine.Ivar.fill iv 42);
  Engine.run e;
  Alcotest.(check int) "value delivered" 42 !got;
  Alcotest.(check (option int)) "peek" (Some 42) (Engine.Ivar.peek iv)

let test_ivar_read_after_fill () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create () in
  Engine.Ivar.fill iv 7;
  let got = ref 0 in
  Engine.spawn e (fun () -> got := Engine.Ivar.read iv);
  Engine.run e;
  Alcotest.(check int) "immediate read" 7 !got

let test_ivar_double_fill () =
  let iv = Engine.Ivar.create () in
  Engine.Ivar.fill iv 1;
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Engine.Ivar.fill iv 2)

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () -> sum := !sum + Engine.Ivar.read iv)
  done;
  Engine.schedule e ~delay:1.0 (fun () -> Engine.Ivar.fill iv 5);
  Engine.run e;
  Alcotest.(check int) "all readers woken" 15 !sum

let test_mailbox () =
  let e = Engine.create () in
  let mb = Engine.Mailbox.create () in
  let got = ref [] in
  Engine.spawn e (fun () ->
      got := Engine.Mailbox.take mb :: !got;
      got := Engine.Mailbox.take mb :: !got);
  Engine.schedule e ~delay:1.0 (fun () -> Engine.Mailbox.put mb "a");
  Engine.schedule e ~delay:2.0 (fun () -> Engine.Mailbox.put mb "b");
  Engine.run e;
  Alcotest.(check (list string)) "fifo delivery" [ "a"; "b" ] (List.rev !got)

let test_mailbox_buffered () =
  let e = Engine.create () in
  let mb = Engine.Mailbox.create () in
  Engine.Mailbox.put mb 1;
  Engine.Mailbox.put mb 2;
  Alcotest.(check int) "buffered" 2 (Engine.Mailbox.length mb);
  let got = ref [] in
  Engine.spawn e (fun () ->
      got := Engine.Mailbox.take mb :: !got;
      got := Engine.Mailbox.take mb :: !got);
  Engine.run e;
  Alcotest.(check (list int)) "drained in order" [ 1; 2 ] (List.rev !got)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

let test_stall_detection () =
  let e = Engine.create () in
  let iv : unit Engine.Ivar.t = Engine.Ivar.create () in
  Engine.spawn e ~name:(fun () -> "stuck") (fun () -> Engine.Ivar.read iv);
  match Engine.run e with
  | () -> Alcotest.fail "expected Stalled"
  | exception Engine.Stalled msg ->
      Alcotest.(check bool) "mentions fiber" true (contains ~sub:"stuck" msg)

(* Fiber names are thunks that only the stall report calls: a clean run
   with fibers that wait and suspend builds none, and a stall builds
   exactly the names of the fibers still suspended, each once. *)
let test_names_on_demand () =
  let forced = ref [] in
  let name label () =
    forced := label :: !forced;
    label
  in
  let e = Engine.create () in
  let iv : unit Engine.Ivar.t = Engine.Ivar.create () in
  Engine.spawn e ~name:(name "reader") (fun () -> Engine.Ivar.read iv);
  Engine.spawn e ~name:(name "waiter") (fun () -> Engine.wait 5.0);
  Engine.spawn e ~name:(name "filler") (fun () ->
      Engine.wait 1.0;
      Engine.Ivar.fill iv ());
  Engine.run e;
  Alcotest.(check (list string)) "clean run builds no name" [] !forced;
  let e = Engine.create () in
  let never : unit Engine.Ivar.t = Engine.Ivar.create () in
  let later : unit Engine.Ivar.t = Engine.Ivar.create () in
  Engine.spawn e ~name:(name "stuck-a") (fun () -> Engine.Ivar.read never);
  Engine.spawn e ~name:(name "woken") (fun () -> Engine.Ivar.read later);
  Engine.spawn e ~name:(name "stuck-b") (fun () ->
      Engine.wait 2.0;
      Engine.Ivar.fill later ();
      Engine.Ivar.read never);
  Engine.spawn e ~name:(name "done") (fun () -> Engine.wait 3.0);
  match Engine.run e with
  | () -> Alcotest.fail "expected Stalled"
  | exception Engine.Stalled msg ->
      Alcotest.(check (list string)) "stall builds the suspended names once"
        [ "stuck-a"; "stuck-b" ] (List.sort compare !forced);
      List.iter
        (fun label ->
          Alcotest.(check bool) ("report names " ^ label) true (contains ~sub:label msg))
        [ "stuck-a"; "stuck-b" ]

let test_run_for_partial () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:5.0 (fun () -> fired := 5 :: !fired);
  Engine.schedule e ~delay:15.0 (fun () -> fired := 15 :: !fired);
  Engine.run_for e 10.0;
  Alcotest.(check (list int)) "only first fired" [ 5 ] !fired;
  Alcotest.(check (float 0.001)) "clock at deadline" 10.0 (Engine.now e);
  Engine.run_for e 10.0;
  Alcotest.(check (list int)) "second fired" [ 15; 5 ] !fired

let test_two_fibers_interleave () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      log := "a1" :: !log;
      Engine.wait 10.0;
      log := "a2" :: !log);
  Engine.spawn e (fun () ->
      log := "b1" :: !log;
      Engine.wait 5.0;
      log := "b2" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "interleaving by time" [ "a1"; "b1"; "b2"; "a2" ]
    (List.rev !log)

let tests =
  [
    ( "engine",
      [
        Alcotest.test_case "time advances" `Quick test_time_advances;
        Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
        Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
        Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
        Alcotest.test_case "fiber wait" `Quick test_fiber_wait;
        Alcotest.test_case "fiber count" `Quick test_fiber_count;
        Alcotest.test_case "ivar basic" `Quick test_ivar_basic;
        Alcotest.test_case "ivar read after fill" `Quick test_ivar_read_after_fill;
        Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
        Alcotest.test_case "ivar multiple readers" `Quick test_ivar_multiple_readers;
        Alcotest.test_case "mailbox blocking take" `Quick test_mailbox;
        Alcotest.test_case "mailbox buffered" `Quick test_mailbox_buffered;
        Alcotest.test_case "stall detection" `Quick test_stall_detection;
        Alcotest.test_case "names built only on a stall" `Quick test_names_on_demand;
        Alcotest.test_case "run_for partial" `Quick test_run_for_partial;
        Alcotest.test_case "fibers interleave" `Quick test_two_fibers_interleave;
      ] );
  ]
