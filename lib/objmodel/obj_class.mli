(** Class definitions and their compiled form.

    A class bundles attributes and methods. Defining a class runs the
    conservative access analysis once per method; "compiling" it fixes the
    attribute layout for a page size and turns each summary into page terms
    — the prediction behind the lock-acquisition and lock-release
    bracketing the paper's compiler inserts (represented here by the runtime
    consulting these summaries at method entry/exit). *)

type t

type compiled_method = {
  ir : Method_ir.t;
  summary : Access_analysis.summary;
  page_summary : Access_analysis.page_summary;
}

val define :
  name:string -> attrs:Attribute.t array -> methods:Method_ir.t list -> ref_slots:int -> t
(** Declare a class and analyse each method ({!Access_analysis.analyse});
    the summaries are kept for {!compile}. [ref_slots] is the number of
    outgoing reference slots instances carry; every [Invoke] in every method
    must use a slot below it. Methods declared with a non-trivial
    {!Method_ir.commutativity} must be self-contained updates: a body that
    writes and contains no [Invoke].
    @raise Invalid_argument on duplicate method names, an [Invoke] slot out
    of range, an attribute id out of range, or a commutative method that is
    read-only or nests an [Invoke]. *)

val compile : page_size:int -> t -> t
(** Fix the layout and map each method's summary, computed by {!define},
    to pages; no method is analysed again. Idempotent. *)

val name : t -> string
val attrs : t -> Attribute.t array
val ref_slots : t -> int

val layout : t -> Layout.t
(** @raise Invalid_argument if the class has not been compiled. *)

val page_count : t -> int
(** Pages an instance spans. @raise Invalid_argument if not compiled. *)

val find_method : t -> string -> compiled_method
(** @raise Not_found if the method does not exist.
    @raise Invalid_argument if the class has not been compiled. *)

val methods : t -> compiled_method list
val method_names : t -> string list

val pp : Format.formatter -> t -> unit
