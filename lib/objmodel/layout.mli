(** Attribute-to-page placement — the compiler's representation decision.

    The paper's LOTEC optimisation requires the compiler to know "where, in
    an object's representation in memory, each attribute is stored". This
    module performs that placement: attributes are laid out sequentially at
    byte offsets, and each attribute maps to the set of pages its extent
    touches. *)

type t

val create : page_size:int -> Attribute.t array -> t
(** Sequential placement of the attributes starting at offset 0.
    @raise Invalid_argument if [page_size <= 0]. *)

val page_size : t -> int

val page_count : t -> int
(** Number of pages the object representation spans (at least 1 even for an
    empty attribute list, since an object occupies at least a header page). *)

val total_bytes : t -> int

val offset : t -> Attribute.id -> int
(** Byte offset of the attribute. *)

val pages_of_attr : t -> Attribute.id -> int list
(** Ascending list of page indices the attribute's extent touches. *)

val pages_of_attrs : t -> Attribute.id list -> int list
(** Union of {!pages_of_attr} over strictly ascending attribute ids (as
    {!Access_analysis.summary} lists them), ascending and deduped, in one
    pass over their page lists.
    @raise Invalid_argument if the ids are not strictly ascending. *)

val attr_count : t -> int

val pp : Format.formatter -> t -> unit
