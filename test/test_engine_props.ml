(* Property tests pinning the simulator core's contracts through the
   event-pool refactor: dispatch order, Ivar/Semaphore/Mailbox waiter
   semantics, run_for clock bounds, and the double-resume guard. Plus the
   10k-waiter regression: the waiter structures used to be accidentally
   quadratic (list appends, linear suspended-mark scans), which turned
   these shapes from milliseconds into tens of seconds. *)

open Sim

(* Delays drawn from a small grid so duplicate times are common — the
   FIFO-at-equal-time (seq) ordering is the part worth stressing. *)
let delays_gen = QCheck.Gen.(list_size (int_range 1 60) (int_range 0 10))

let arb_delays =
  QCheck.make
    ~print:(fun ds -> String.concat "," (List.map string_of_int ds))
    delays_gen

(* Dispatch order is exactly the stable sort of the schedule by time:
   earlier times first, insertion order at equal times. *)
let prop_dispatch_order =
  QCheck.Test.make ~name:"dispatch order = stable sort by time" ~count:200 arb_delays
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i d ->
          Engine.schedule e ~delay:(float_of_int d /. 2.0) (fun () -> fired := i :: !fired))
        delays;
      Engine.run e;
      let indexed = List.mapi (fun i d -> (d, i)) delays in
      let expected =
        List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) indexed)
      in
      List.rev !fired = expected)

(* Ivar: every reader sees the filled value exactly once, wakes in
   suspend order, and a read after the fill completes immediately. *)
let prop_ivar_waiters =
  QCheck.Test.make ~name:"ivar: readers wake in suspend order, read-after-fill"
    ~count:100
    QCheck.(pair (int_range 0 30) small_int)
    (fun (readers, v) ->
      let e = Engine.create () in
      let iv = Engine.Ivar.create () in
      let woken = ref [] in
      for i = 1 to readers do
        Engine.spawn e (fun () ->
            let got = Engine.Ivar.read iv in
            woken := (i, got) :: !woken)
      done;
      Engine.schedule e ~delay:5.0 (fun () -> Engine.Ivar.fill iv v);
      (* A late reader starts after the fill: immediate read. *)
      Engine.schedule e ~delay:6.0 (fun () ->
          Engine.spawn e (fun () -> woken := (readers + 1, Engine.Ivar.read iv) :: !woken));
      Engine.run e;
      List.rev !woken = List.init (readers + 1) (fun i -> (i + 1, v)))

let prop_ivar_fill_once =
  QCheck.Test.make ~name:"ivar: second fill always raises" ~count:50
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let iv = Engine.Ivar.create () in
      Engine.Ivar.fill iv a;
      match Engine.Ivar.fill iv b with
      | () -> false
      | exception Invalid_argument _ -> Engine.Ivar.peek iv = Some a)

(* Semaphore: the number of concurrently held permits never exceeds the
   permit count, and grants go to waiters in FIFO (block) order. *)
let prop_semaphore =
  QCheck.Test.make ~name:"semaphore: permits respected, FIFO grants" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 1 40))
    (fun (permits, fibers) ->
      let e = Engine.create () in
      let s = Engine.Semaphore.create ~permits in
      let held = ref 0 and peak = ref 0 and grants = ref [] in
      for i = 1 to fibers do
        Engine.spawn e (fun () ->
            Engine.Semaphore.acquire s;
            grants := i :: !grants;
            incr held;
            if !held > !peak then peak := !held;
            Engine.wait 1.0;
            decr held;
            Engine.Semaphore.release s)
      done;
      Engine.run e;
      !peak <= permits
      && List.rev !grants = List.init fibers (fun i -> i + 1)
      && Engine.Semaphore.available s = permits
      && Engine.Semaphore.waiting s = 0)

(* Mailbox: values come out in put order however puts and the consumer's
   takes interleave in time — sometimes the consumer blocks, sometimes
   items buffer while it sleeps. (The mailbox is single-consumer, as the
   runtime uses it: put wakes one taker, and a looping consumer may
   drain items ahead of another taker's retry.) *)
let prop_mailbox_fifo =
  QCheck.Test.make ~name:"mailbox: FIFO under interleaved put/take" ~count:100
    QCheck.(pair arb_delays arb_delays)
    (fun (put_delays, gaps) ->
      let n = List.length put_delays in
      let e = Engine.create () in
      let mb = Engine.Mailbox.create () in
      let taken = ref [] in
      (* Values are assigned in time order of the puts, so the expected
         take order is simply 0, 1, 2, ... *)
      let next = ref 0 in
      List.iter
        (fun d ->
          Engine.schedule e ~delay:(float_of_int d) (fun () ->
              Engine.Mailbox.put mb !next;
              incr next))
        put_delays;
      let gap i =
        match List.nth_opt gaps (i mod max 1 (List.length gaps)) with
        | Some g -> float_of_int g
        | None -> 0.0
      in
      Engine.spawn e (fun () ->
          for i = 1 to n do
            taken := Engine.Mailbox.take mb :: !taken;
            if i land 1 = 0 then Engine.wait (gap i)
          done);
      Engine.run e;
      List.rev !taken = List.init n (fun i -> i) && Engine.Mailbox.length mb = 0)

(* run_for: the clock lands exactly on the deadline and only events due
   by then (inclusive) fire; a second segment picks up the rest. *)
let prop_run_for_deadline =
  QCheck.Test.make ~name:"run_for: now never passes the deadline" ~count:200
    QCheck.(triple arb_delays (int_range 0 10) (int_range 0 15))
    (fun (delays, d1, d2) ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          let d = float_of_int d in
          Engine.schedule e ~delay:d (fun () -> fired := d :: !fired))
        delays;
      let d1 = float_of_int d1 and d2 = float_of_int d2 in
      Engine.run_for e d1;
      let due_first = List.filter (fun d -> float_of_int d <= d1) delays in
      let ok1 =
        Engine.now e = d1
        && List.length !fired = List.length due_first
        && List.for_all (fun t -> t <= d1) !fired
      in
      Engine.run_for e d2;
      let due_both = List.filter (fun d -> float_of_int d <= d1 +. d2) delays in
      ok1
      && Engine.now e = d1 +. d2
      && List.length !fired = List.length due_both
      && List.for_all (fun t -> t <= d1 +. d2) !fired)

(* Resuming the same suspension twice always raises, whatever the delay
   between the two calls. *)
let prop_double_resume =
  QCheck.Test.make ~name:"double resume always raises" ~count:50
    QCheck.(int_range 0 10)
    (fun gap ->
      let e = Engine.create () in
      let resume = ref (fun () -> ()) in
      let outcome = ref `Unset in
      Engine.spawn e (fun () -> Engine.suspend (fun k -> resume := k));
      Engine.schedule e ~delay:1.0 (fun () -> !resume ());
      Engine.schedule e ~delay:(1.0 +. float_of_int gap) (fun () ->
          match !resume () with
          | () -> outcome := `No_raise
          | exception Invalid_argument _ -> outcome := `Raised);
      Engine.run e;
      !outcome = `Raised)

(* Regression for the quadratic waiter structures: 10k contenders on one
   semaphore, 10k suspended readers on one ivar, and 10k takers blocked
   on one mailbox (two takes each) before a storm of puts wakes them. The
   pre-refactor engine (waiter-list appends, linear suspended-mark scans)
   needed tens of seconds of CPU for this; the bound stays far above the
   fixed engine's cost yet well below the quadratic one. *)
let test_waiter_regression () =
  let budget_s = 5.0 in
  let t0 = Sys.time () in
  let e = Engine.create () in
  let s = Engine.Semaphore.create ~permits:1 in
  let completed = ref 0 in
  for _ = 1 to 10_000 do
    Engine.spawn e (fun () ->
        Engine.Semaphore.acquire s;
        Engine.wait 1.0;
        Engine.Semaphore.release s;
        incr completed)
  done;
  Engine.run e;
  let iv = Engine.Ivar.create () in
  for _ = 1 to 10_000 do
    Engine.spawn e (fun () ->
        ignore (Engine.Ivar.read iv);
        incr completed)
  done;
  Engine.schedule e ~delay:1.0 (fun () -> Engine.Ivar.fill iv ());
  Engine.run e;
  let mb = Engine.Mailbox.create () in
  for _ = 1 to 10_000 do
    Engine.spawn e (fun () ->
        ignore (Engine.Mailbox.take mb);
        ignore (Engine.Mailbox.take mb);
        incr completed)
  done;
  Engine.schedule e ~delay:1.0 (fun () ->
      for i = 1 to 20_000 do
        Engine.Mailbox.put mb i
      done);
  Engine.run e;
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "all fibers completed" 30_000 !completed;
  if elapsed > budget_s then
    Alcotest.failf "10k-waiter workload took %.1fs CPU (budget %.1fs): waiter paths are no \
                    longer linear"
      elapsed budget_s

let tests =
  [
    ( "engine-props",
      [
        QCheck_alcotest.to_alcotest prop_dispatch_order;
        QCheck_alcotest.to_alcotest prop_ivar_waiters;
        QCheck_alcotest.to_alcotest prop_ivar_fill_once;
        QCheck_alcotest.to_alcotest prop_semaphore;
        QCheck_alcotest.to_alcotest prop_mailbox_fifo;
        QCheck_alcotest.to_alcotest prop_run_for_deadline;
        QCheck_alcotest.to_alcotest prop_double_resume;
        Alcotest.test_case "10k-waiter regression" `Quick test_waiter_regression;
      ] );
  ]
