type summary = {
  read_attrs : Attribute.id list;
  write_attrs : Attribute.id list;
  invoked : (Method_ir.slot * string) list;
  updates : bool;
}

(* One walk marks each accessed attribute in a byte per attribute (bit 0:
   read or written, bit 1: written); one scan from the top then conses the
   ascending lists. Either side of an [If] may execute, so both are walked;
   accesses are idempotent for set purposes, so one pass over a [Loop] body
   suffices. *)
let analyse ~attr_count (m : Method_ir.t) =
  let marks = Bytes.make attr_count '\000' in
  let invoked = ref [] in
  let mark a bits =
    if a < 0 || a >= attr_count then
      invalid_arg
        (Printf.sprintf "Access_analysis.analyse: method %s references attribute %d out of range"
           m.Method_ir.name a);
    Bytes.unsafe_set marks a (Char.unsafe_chr (Char.code (Bytes.unsafe_get marks a) lor bits))
  in
  let rec walk body =
    List.iter
      (function
        | Method_ir.Read a -> mark a 1
        | Method_ir.Write a -> mark a 3
        | Method_ir.Invoke { slot; meth } -> invoked := (slot, meth) :: !invoked
        | Method_ir.If { then_; else_; _ } ->
            walk then_;
            walk else_
        | Method_ir.Loop { body; _ } -> walk body)
      body
  in
  walk m.Method_ir.body;
  let reads = ref [] and writes = ref [] in
  for a = attr_count - 1 downto 0 do
    let bits = Char.code (Bytes.unsafe_get marks a) in
    if bits land 1 <> 0 then reads := a :: !reads;
    if bits land 2 <> 0 then writes := a :: !writes
  done;
  {
    read_attrs = !reads;
    write_attrs = !writes;
    invoked = List.sort_uniq compare !invoked;
    updates = !writes <> [];
  }

type page_summary = { access_pages : int list }

let pages layout s = { access_pages = Layout.pages_of_attrs layout s.read_attrs }

let pp_summary fmt s =
  let pp_ints fmt l =
    Format.fprintf fmt "[%s]" (String.concat ";" (List.map string_of_int l))
  in
  Format.fprintf fmt "reads=%a writes=%a updates=%b" pp_ints s.read_attrs pp_ints s.write_attrs
    s.updates
