(** Conservative attribute-access analysis — "the compiler".

    LOTEC's page-transfer optimisation rests on the compiler predicting, for
    each method, which attributes the method *may* read or write. The
    prediction must be conservative: whatever control path execution takes,
    every attribute actually accessed must appear in the predicted set
    (predicted ⊇ actual). We compute this by unioning accesses over both
    branches of every [If] and treating loop bodies as executing at least
    once in the summary.

    The result is a per-method summary in both attribute terms and, given a
    layout, page terms — the latter is what the LOTEC protocol consumes. *)

type summary = {
  read_attrs : Attribute.id list;  (** ascending, deduped; includes writes *)
  write_attrs : Attribute.id list;  (** ascending, deduped *)
  invoked : (Method_ir.slot * string) list;
      (** reference slots (with method names) the method may invoke on —
          drives the optional prefetch extension *)
  updates : bool;  (** true iff [write_attrs] is non-empty: lock mode W *)
}

val analyse : attr_count:int -> Method_ir.t -> summary
(** The summary of a method of a class with [attr_count] attributes: one
    walk of the body, linear in its statements plus [attr_count].
    {!Obj_class.define} runs it once per method and keeps the result.
    @raise Invalid_argument if the body names an attribute [a] with
    [a < 0] or [a >= attr_count]. *)

type page_summary = {
  access_pages : int list;  (** pages any predicted access (R or W) touches *)
}

val pages : Layout.t -> summary -> page_summary

val pp_summary : Format.formatter -> summary -> unit
