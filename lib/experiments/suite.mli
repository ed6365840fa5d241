(** One declarative driver for every experiment: the feature sweeps and
    the paper's §5 evaluation alike.

    A suite is plain data: a workload and its protocols, a list of
    {e cases} (labelled deltas on the workload spec and on
    {!Core.Config.default}), a list of {e arms} (config deltas applied
    after the case; the first arm is the baseline), the {e columns} read
    from each finished run, and the {e gates} — fixed bounds on a metric
    over selected rows. A blocking gate must hold; a report-only gate is
    printed and written with its in/out verdict but never fails the suite.

    {!run} executes protocols × cases × arms through {!Runner.execute},
    so every row passes the one shared oracle ({!Runner.oracle}); a case
    that raises becomes an error row carrying the exception's text, and
    the remaining rows are still produced. One table printer, one JSON
    emitter and one gate evaluator serve every suite. *)

type value =
  | Int of int
  | Float of float
  | Per_object of (Objmodel.Oid.t * int) list
      (** one integer per catalog object, ascending by oid *)

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

type bound = At_least of float | At_most of float | Between of float * float

type peer =
  ?protocol:Dsm.Protocol.t -> ?arm:string -> ?case:(string * string) list -> unit -> row
(** [peer ?protocol ?arm ?case ()], inside a gate's metric: the suite's row
    at the selected row's coordinates with the given ones replaced — the
    protocol, the arm, and the case labels listed in [case] (the others
    kept). [peer ()] is the selected row itself.
    @raise Not_found if no such row ran or it is an error row. *)

type gate = {
  claim : string;  (** what the gate asserts, printed with its measurement *)
  select : row -> bool;
  metric : peer:peer -> row -> float;
      (** a selected row's measurement; a row whose peers are missing or
          errored is not measured *)
  bound : bound;
  every : bool;  (** every selected row must meet the bound; otherwise the best one *)
  report_only : bool;  (** printed and written, never fails the suite *)
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

val gate :
  ?every:bool ->
  ?report_only:bool ->
  string ->
  select:(row -> bool) ->
  metric:(peer:peer -> row -> float) ->
  bound ->
  gate
(** A gate; [every] defaults to [true], [report_only] to [false]. *)

val run : t -> row list
(** Protocols × cases × arms, in that nesting order. A stalled case dumps
    {!Core.Runtime.dump_directory} to stderr before becoming an error row. *)

val label : row -> string -> string
(** The row's case label under the given key. *)

val matches :
  ?protocol:Dsm.Protocol.t -> ?arm:string -> ?case:(string * string) list -> row -> bool
(** The row has the given protocol, arm and case labels (each optional) —
    a gate selector. *)

val get : row -> string -> float
(** The row's value in the named scalar column.
    @raise Failure on an error row.
    @raise Invalid_argument on a per-object column. *)

(** {1 Column helpers} *)

val counter : string -> (Dsm.Metrics.totals -> int) -> column
(** A column reading one {!Dsm.Metrics.totals} field; name it after the
    field. *)

val roots_committed : column
val roots_aborted : column
val total_messages : column
val total_bytes : column
val completion_time_us : column

val time_replay : bandwidth_bps:float -> float -> column
(** [time_replay ~bandwidth_bps software_cost_us]: the run's ledgers replayed
    through {!Dsm.Metrics.total_time_us} —
    [messages * software_cost_us + bytes * 8 / bandwidth_bps] — named
    [total_time_us_<Mbps>Mbps_sw<software_cost_us>]. *)

val bytes_per_object : column
(** A {!Per_object} column: control plus data bytes of every object of the
    run's catalog ({!Dsm.Metrics.per_object}). *)

val messages_per_object : column
(** A {!Per_object} column: messages of every object of the run's catalog. *)

val percentile : string -> (Dsm.Metrics.t -> Dsm.Histogram.t) -> float -> column
(** [percentile name histogram p]: the [p]th percentile of one of the
    run's latency histograms. *)

val root_latency : string -> (float list -> float) -> column
(** A statistic ({!Stats}) over the committed roots' latencies
    ({!Stats.root_latencies}). *)

val mean_root_latency_us : column

(** {1 Gates and output} *)

val passed : t -> row list -> bool
(** No error row and every blocking gate met. A gate with no selected row
    whose metric could be computed is missed. *)

val pp_report : Format.formatter -> t * row list -> unit
(** The workload, one table row per run over the scalar columns (errors
    listed below the table), one table per case and per-object column,
    then one line per gate. *)

val to_json : t -> row list -> string
(** [{"suite", "rows", "gates"}]: one object per row — protocol, case
    labels, arm, then every column (a per-object column as an object keyed
    by oid), or ["error"] — and one per gate. *)
