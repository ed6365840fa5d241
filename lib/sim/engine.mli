(** Discrete-event simulation engine with lightweight processes.

    Time is simulated and measured in microseconds (float). Processes
    ("fibers") are written as ordinary sequential OCaml code; blocking
    operations ([wait], [Ivar.read], [Mailbox.take]) are implemented with
    OCaml 5 effect handlers, so a fiber suspends without tying up the host
    thread and is resumed by the engine when its wake-up condition fires.

    The engine is single-threaded and deterministic: events scheduled for the
    same instant fire in scheduling order. *)

type t

exception Stalled of string
(** Raised by {!run} when fibers remain suspended but no event can ever wake
    them — a simulation-level deadlock (distinct from the transaction-level
    deadlocks the DSM layer detects and resolves). *)

val create : unit -> t

val now : t -> float
(** Current simulated time in microseconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    non-negative. [f] runs as a plain callback, not a fiber: it must not
    block. *)

val spawn : t -> ?name:(unit -> string) -> (unit -> unit) -> unit
(** [spawn t f] starts a new fiber executing [f] at the current time. The
    fiber may call the blocking operations below. An exception escaping a
    fiber aborts the whole simulation run.

    [name] (default ["fiber"]) labels the fiber in the {!Stalled} report,
    and only that report calls it: a run that does not stall never builds
    a name, so it can be as costly to format as the caller likes. *)

val wait : float -> unit
(** Suspend the calling fiber for the given number of microseconds.
    Must be called from within a fiber. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] blocks the calling fiber and passes its wake-up
    callback to [register]; invoking the callback schedules the fiber to
    resume at the then-current time. The low-level primitive beneath
    {!Ivar.read}, {!Semaphore.acquire} and {!Mailbox.take}. Must be called
    from within a fiber.
    @raise Invalid_argument if the wake-up callback is invoked twice. *)

val fiber_count : t -> int
(** Number of fibers spawned and not yet finished. *)

val run : t -> unit
(** Process events until the queue is empty. If fibers are still suspended
    when the queue drains, raises {!Stalled} with a description of the stuck
    fibers.

    @raise Stalled see above. *)

val run_for : t -> float -> unit
(** [run_for t d] processes events up to time [now t +. d], then stops
    (suspended fibers are left suspended; no stall check). *)

(** Profiling counters, maintained unconditionally (they are a handful of
    integer stores per event). *)
type stats = {
  dispatched : int;  (** events executed since {!create} *)
  scheduled : int;  (** events enqueued since {!create} *)
  pending : int;  (** events currently in the queue *)
  max_queue : int;  (** high-water mark of the event queue *)
}

val stats : t -> stats

(** Write-once cells: the unit of fiber synchronisation. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val is_filled : 'a t -> bool

  val peek : 'a t -> 'a option

  val fill : 'a t -> 'a -> unit
  (** Fill the cell and schedule every waiting fiber to resume at the current
      time. @raise Invalid_argument if already filled. *)

  val read : 'a t -> 'a
  (** Return the value, suspending the calling fiber until the cell is
      filled. Must be called from within a fiber. *)
end

(** Counting semaphores over fibers — model shared resources such as a
    node's CPU. FIFO handoff: permits go to waiters in arrival order. *)
module Semaphore : sig
  type t

  val create : permits:int -> t
  (** @raise Invalid_argument if [permits <= 0]. *)

  val acquire : t -> unit
  (** Take a permit, suspending the calling fiber while none is free. Must
      be called from within a fiber. *)

  val release : t -> unit
  (** Return a permit; wakes the longest-waiting fiber if any.
      @raise Invalid_argument when releasing above the initial permit
      count. *)

  val with_permit : t -> (unit -> 'a) -> 'a
  (** [with_permit s f] brackets [f] with acquire/release, releasing on
      exceptions too. *)

  val available : t -> int
  val waiting : t -> int
end

(** Unbounded FIFO queues with blocking take. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t

  val put : 'a t -> 'a -> unit
  (** Enqueue a value; wakes one blocked taker if any. *)

  val take : 'a t -> 'a
  (** Dequeue, suspending the calling fiber while the mailbox is empty. *)

  val length : 'a t -> int
end
