(** One declarative driver for every feature sweep.

    A suite is plain data: a workload and its protocols, a list of
    {e cases} (labelled deltas on the workload spec and on
    {!Core.Config.default}), a list of {e arms} (config deltas applied
    after the case; the first arm is the baseline the others are judged
    against), the {e columns} read from each finished run, and the
    {e gates} — fixed bounds on a metric over selected rows — that must
    hold.

    {!run} executes protocols × cases × arms through {!Runner.execute},
    so every row passes the one shared oracle ({!Runner.oracle}); a case
    that raises becomes an error row carrying the exception's text, and
    the remaining rows are still produced. One table printer, one JSON
    emitter and one gate evaluator serve every suite. *)

type value = Int of int | Float of float

type case = {
  labels : (string * string) list;
      (** printed case parameters, e.g. [[("skew", "1.5")]]; every case of
          a suite carries the same keys in the same order *)
  workload : Workload.Spec.t -> Workload.Spec.t;  (** delta on the suite's spec *)
  config : Core.Config.t -> Core.Config.t;  (** delta on {!Core.Config.default} *)
}

type arm = string * (Core.Config.t -> Core.Config.t)
type column = string * (Runner.run -> value)

type row = {
  protocol : Dsm.Protocol.t;
  case : case;
  arm : string;
  values : ((string * value) list, string) result;
      (** one value per column, or the text of the exception the case raised *)
}

type bound = At_least of float | At_most of float

type gate = {
  claim : string;  (** what the gate asserts, printed with its measurement *)
  select : row -> bool;
  metric : base:row -> row -> float;
      (** [base] is the row's first-arm row (same protocol and case) *)
  bound : bound;
  every : bool;  (** every selected row must meet the bound; otherwise the best one *)
}

type t = {
  name : string;
  protocols : Dsm.Protocol.t list;
  spec : Workload.Spec.t;
  cases : case list;
  arms : arm list;
  columns : column list;
  gates : gate list;
}

val case :
  ?workload:(Workload.Spec.t -> Workload.Spec.t) ->
  ?config:(Core.Config.t -> Core.Config.t) ->
  (string * string) list ->
  case
(** A case; both deltas default to the identity. *)

val default_arm : arm list
(** The single identity arm of a suite whose axes are all in its cases. *)

val run : t -> row list
(** Protocols × cases × arms, in that nesting order. A stalled case dumps
    {!Core.Runtime.dump_directory} to stderr before becoming an error row. *)

val label : row -> string -> string
(** The row's case label under the given key. *)

val get : row -> string -> float
(** The row's value in the named column.
    @raise Failure on an error row. *)

(** {1 Column helpers} *)

val counter : string -> (Dsm.Metrics.totals -> int) -> column
(** A column reading one {!Dsm.Metrics.totals} field; name it after the
    field. *)

val roots_committed : column
val roots_aborted : column
val total_messages : column
val total_bytes : column
val completion_time_us : column

val percentile : string -> (Dsm.Metrics.t -> Dsm.Histogram.t) -> float -> column
(** [percentile name histogram p]: the [p]th percentile of one of the
    run's latency histograms. *)

(** {1 Gates and output} *)

val passed : t -> row list -> bool
(** No error row and every gate met. A gate with no selected row that
    produced values is missed. *)

val pp_report : Format.formatter -> t * row list -> unit
(** The workload, one table row per run (errors listed below the table),
    then one line per gate. *)

val to_json : t -> row list -> string
(** [{"suite", "rows", "gates"}]: one object per row — protocol, case
    labels, arm, then every column (or ["error"]) — and one per gate. *)
