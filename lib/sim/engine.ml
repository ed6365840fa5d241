(* Event storage is a flat, preallocated pool: three parallel arrays
   (absolute time, schedule sequence, callback) indexed by integer slot,
   a stack of free slots, and a binary min-heap of slot indices ordered
   by (time, seq). Compared to a heap of {time; seq; run} records this
   removes the per-event record and option allocations and the
   comparison-closure indirection: ordering is two inlined array reads
   and a float compare. A slot is occupied exactly while its event is
   pending, so the pool, the heap array and the free stack share one
   capacity and grow together (never shrink).

   Determinism is carried entirely by the (time, seq) order — seq is
   unique and monotonic, so any correct min-heap pops the same sequence
   the old record heap did, and same-instant events still fire in
   scheduling order. *)

type t = {
  mutable now : float;
  mutable seq : int;
  mutable ev_time : float array; (* slot -> absolute due time *)
  mutable ev_seq : int array; (* slot -> scheduling sequence number *)
  mutable ev_run : (unit -> unit) array; (* slot -> callback; [nop] when free *)
  mutable heap : int array; (* slot indices, min-heap by (time, seq) *)
  mutable size : int; (* pending events = occupied slots *)
  mutable free : int array; (* stack of free slots *)
  mutable free_top : int;
  mutable fibers : int;
  susp : mark; (* sentinel of the suspended-mark ring *)
  (* profiling counters, surfaced via [stats] *)
  mutable events_dispatched : int;
  mutable events_scheduled : int;
  mutable max_queue_depth : int;
}

(* Suspended-fiber diagnostics: a doubly-linked ring through a sentinel,
   so registering and removing a mark are O(1) (the old list was scanned
   linearly on every resume). [m_fired] doubles as the double-resume
   guard. *)
and mark = {
  mutable m_name : unit -> string; (* forced only by the [Stalled] report *)
  mutable m_since : float;
  mutable m_fired : bool;
  mutable m_prev : mark;
  mutable m_next : mark;
}

exception Stalled of string

let nop () = ()

let default_name () = "fiber"

let make_sentinel () =
  let rec s = { m_name = default_name; m_since = 0.0; m_fired = false; m_prev = s; m_next = s } in
  s

let create () =
  {
    now = 0.0;
    seq = 0;
    ev_time = [||];
    ev_seq = [||];
    ev_run = [||];
    heap = [||];
    size = 0;
    free = [||];
    free_top = 0;
    fibers = 0;
    susp = make_sentinel ();
    events_dispatched = 0;
    events_scheduled = 0;
    max_queue_depth = 0;
  }

let now t = t.now

type stats = {
  dispatched : int;
  scheduled : int;
  pending : int;
  max_queue : int;
}

let stats t =
  {
    dispatched = t.events_dispatched;
    scheduled = t.events_scheduled;
    pending = t.size;
    max_queue = t.max_queue_depth;
  }

(* (time, seq) order over slots. seq is unique, so this is a strict
   total order and the equal-time case never needs a third key. *)
let[@inline] ev_lt t a b =
  let ta = Array.unsafe_get t.ev_time a and tb = Array.unsafe_get t.ev_time b in
  ta < tb || (ta = tb && Array.unsafe_get t.ev_seq a < Array.unsafe_get t.ev_seq b)

let grow t =
  let cap = Array.length t.ev_time in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let ev_time = Array.make ncap 0.0 in
  let ev_seq = Array.make ncap 0 in
  let ev_run = Array.make ncap nop in
  let heap = Array.make ncap 0 in
  Array.blit t.ev_time 0 ev_time 0 cap;
  Array.blit t.ev_seq 0 ev_seq 0 cap;
  Array.blit t.ev_run 0 ev_run 0 cap;
  Array.blit t.heap 0 heap 0 t.size;
  (* grow only runs with the free stack empty, so the new stack holds
     exactly the newly minted slots *)
  let free = Array.make ncap 0 in
  for i = cap to ncap - 1 do
    free.(i - cap) <- i
  done;
  t.ev_time <- ev_time;
  t.ev_seq <- ev_seq;
  t.ev_run <- ev_run;
  t.heap <- heap;
  t.free <- free;
  t.free_top <- ncap - cap

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let si = t.heap.(i) and sp = t.heap.(parent) in
    if ev_lt t si sp then begin
      t.heap.(i) <- sp;
      t.heap.(parent) <- si;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && ev_lt t t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && ev_lt t t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let schedule t ~delay run =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  let slot = t.free.(t.free_top) in
  t.seq <- t.seq + 1;
  t.ev_time.(slot) <- t.now +. delay;
  t.ev_seq.(slot) <- t.seq;
  t.ev_run.(slot) <- run;
  let i = t.size in
  t.size <- i + 1;
  if t.size > t.max_queue_depth then t.max_queue_depth <- t.size;
  t.heap.(i) <- slot;
  sift_up t i;
  t.events_scheduled <- t.events_scheduled + 1

(* The single peek-and-pop both run loops share: one root comparison
   decides whether the minimum event is due. On a hit the clock advances
   to the event time, the slot is recycled, and the callback is
   returned. *)
let pop_if t ~before =
  if t.size = 0 then None
  else begin
    let slot = t.heap.(0) in
    let time = t.ev_time.(slot) in
    if time > before then None
    else begin
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.heap.(0) <- t.heap.(t.size);
        sift_down t 0
      end;
      let run = t.ev_run.(slot) in
      t.ev_run.(slot) <- nop;
      t.free.(t.free_top) <- slot;
      t.free_top <- t.free_top + 1;
      t.now <- time;
      t.events_dispatched <- t.events_dispatched + 1;
      Some run
    end
  end

(* Effects performed by fibers. [Suspend register] hands the handler a
   resume-callback registration function: the fiber is continued when the
   callback is invoked. *)
type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let wait d = Effect.perform (Wait d)
let suspend register = Effect.perform (Suspend register)

let fiber_count t = t.fibers

let spawn t ?(name = default_name) f =
  t.fibers <- t.fibers + 1;
  let body () =
    let open Effect.Deep in
    match_with f ()
      {
        retc = (fun () -> t.fibers <- t.fibers - 1);
        exnc = (fun e -> raise e);
        effc =
          (fun (type b) (eff : b Effect.t) ->
            match eff with
            | Wait d ->
                Some
                  (fun (k : (b, _) continuation) ->
                    schedule t ~delay:(max 0.0 d) (fun () -> continue k ()))
            | Suspend register ->
                Some
                  (fun (k : (b, _) continuation) ->
                    let s = t.susp in
                    let mark =
                      { m_name = name; m_since = t.now; m_fired = false;
                        m_prev = s; m_next = s.m_next }
                    in
                    s.m_next.m_prev <- mark;
                    s.m_next <- mark;
                    register (fun () ->
                        if mark.m_fired then invalid_arg "Engine: fiber resumed twice";
                        mark.m_fired <- true;
                        mark.m_prev.m_next <- mark.m_next;
                        mark.m_next.m_prev <- mark.m_prev;
                        schedule t ~delay:0.0 (fun () -> continue k ())))
            | _ -> None);
      }
  in
  schedule t ~delay:0.0 body

(* The stall report, newest suspension first: the only place a fiber's
   name is built. *)
let describe_suspended t =
  let rec collect m acc =
    if m == t.susp then acc
    else
      collect m.m_next (Printf.sprintf "%s (suspended at %.1fus)" (m.m_name ()) m.m_since :: acc)
  in
  String.concat ", " (List.rev (collect t.susp.m_next []))

let run t =
  let rec loop () =
    match pop_if t ~before:infinity with
    | Some run ->
        run ();
        loop ()
    | None -> ()
  in
  loop ();
  if t.fibers > 0 && t.susp.m_next != t.susp then
    raise
      (Stalled
         (Printf.sprintf "simulation stalled with %d blocked fiber(s): %s" t.fibers
            (describe_suspended t)))

let run_for t d =
  let deadline = t.now +. d in
  let rec loop () =
    match pop_if t ~before:deadline with
    | Some run ->
        run ();
        loop ()
    | None -> t.now <- deadline
  in
  loop ()

module Ivar = struct
  type 'a state = Empty of (unit -> unit) list | Full of 'a
  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false

  let peek iv = match iv.state with Full v -> Some v | Empty _ -> None

  let fill iv v =
    match iv.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
        iv.state <- Full v;
        (* Resume callbacks schedule the fiber continuations themselves. *)
        List.iter (fun wake -> wake ()) (List.rev waiters)

  let read iv =
    match iv.state with
    | Full v -> v
    | Empty _ ->
        Effect.perform
          (Suspend
             (fun wake ->
               match iv.state with
               | Full _ -> wake ()
               | Empty waiters -> iv.state <- Empty (wake :: waiters)));
        (match iv.state with
        | Full v -> v
        | Empty _ -> assert false)
end

module Semaphore = struct
  type t = { permits : int; mutable free : int; waiters : (unit -> unit) Queue.t }

  let create ~permits =
    if permits <= 0 then invalid_arg "Semaphore.create: permits must be positive";
    { permits; free = permits; waiters = Queue.create () }

  let acquire s =
    if s.free > 0 then s.free <- s.free - 1
    else Effect.perform (Suspend (fun wake -> Queue.push wake s.waiters))
  (* The releaser hands its permit directly to the woken waiter, so [free]
     is not incremented on that path. *)

  let release s =
    if Queue.is_empty s.waiters then begin
      if s.free >= s.permits then invalid_arg "Semaphore.release: too many releases";
      s.free <- s.free + 1
    end
    else (Queue.pop s.waiters) ()

  let with_permit s f =
    acquire s;
    match f () with
    | v ->
        release s;
        v
    | exception e ->
        release s;
        raise e

  let available s = s.free
  let waiting s = Queue.length s.waiters
end

module Mailbox = struct
  type 'a t = { items : 'a Queue.t; takers : (unit -> unit) Queue.t }

  let create () = { items = Queue.create (); takers = Queue.create () }

  let put mb v =
    Queue.push v mb.items;
    if not (Queue.is_empty mb.takers) then (Queue.pop mb.takers) ()

  let rec take mb =
    if Queue.is_empty mb.items then begin
      Effect.perform (Suspend (fun wake -> Queue.push wake mb.takers));
      take mb
    end
    else Queue.pop mb.items

  let length mb = Queue.length mb.items
end
