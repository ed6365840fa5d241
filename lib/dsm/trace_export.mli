(** Exporters over a recorded event trace.

    Two renderings of an [{!Event.t} Sim.Trace.t]'s entries (oldest first,
    as [Sim.Trace.events] returns them):

    - {!timeline}: a human-readable per-transaction timeline — the entries
      mentioning one transaction family, with offsets from the family's
      first event;
    - {!to_chrome}: Chrome trace-event JSON (the format Perfetto and
      [chrome://tracing] load), with one track (thread) per simulated node.
      Paired events — lock request→grant/refusal, lease recall→clear/expiry,
      root begin→commit/abort — become duration ("X") slices; everything
      else becomes an instant event on its node's track.

    A minimal {!validate_json} checker is included so the CLI and CI can
    assert the emitted JSON parses without external dependencies. See
    OBSERVABILITY.md for how to read both outputs. *)

val timeline :
  family:Txn.Txn_id.t -> Event.t Sim.Trace.entry list -> string
(** The entries whose {!Event.family} is [family], one per line, with the
    absolute simulated timestamp and the offset from the family's first
    event. Empty-trace and unknown-family cases yield an explanatory
    single-line string. *)

val to_chrome : node_count:int -> Event.t Sim.Trace.entry list -> string
(** Chrome trace-event JSON: an object with a [traceEvents] array.
    Timestamps are simulated microseconds (the format's native unit);
    [pid] is 0 with per-node [tid]s named by metadata events. Span-opening
    events left unmatched at the end of the trace (e.g. the ring evicted
    the close, or a request was still in flight) degrade to instants. *)

val escape_json : string -> string
(** The body of a JSON string literal for [s] (without the quotes): quote,
    backslash and control characters escaped, every other byte — UTF-8
    included — passed through. *)

val validate_json : string -> (unit, string) result
(** Strict well-formedness check of one JSON document (objects, arrays,
    strings with escapes, numbers, [true]/[false]/[null]); trailing
    non-whitespace is an error. Not a general-purpose parser — it builds no
    value — but sufficient to gate the Chrome export in tests and CI. *)
