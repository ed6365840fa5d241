open Objmodel

type record = { oid : Oid.t; page : int; prev_version : int }

type t = { mutable records : record list (* newest first *) }

let create () = { records = [] }

let record t ~oid ~page ~prev_version = t.records <- { oid; page; prev_version } :: t.records

let merge_into_parent ~child ~parent =
  parent.records <- child.records @ parent.records;
  child.records <- []

let entries_newest_first t = t.records

let dirty_pages t =
  let module PS = Set.Make (struct
    type t = Oid.t * int

    let compare (o1, p1) (o2, p2) =
      let c = Oid.compare o1 o2 in
      if c <> 0 then c else Int.compare p1 p2
  end) in
  let set = List.fold_left (fun acc r -> PS.add (r.oid, r.page) acc) PS.empty t.records in
  PS.elements set

let is_empty t = t.records = []
let length t = List.length t.records
