(** Plain-text table rendering for experiment output. *)

type align = Left | Right

val render : header:string list -> ?align:align list -> string list list -> string
(** Fixed-width table with a header rule. [align] defaults to Right for every
    column. *)
