type compiled_method = {
  ir : Method_ir.t;
  summary : Access_analysis.summary;
  page_summary : Access_analysis.page_summary;
}

type t = {
  name : string;
  attrs : Attribute.t array;
  ref_slots : int;
  analysed : (Method_ir.t * Access_analysis.summary) list;
      (* the methods in declaration order, each with the summary [define]
         computed *)
  compiled : compiled option;
}

and compiled = { layout : Layout.t; table : (string, compiled_method) Hashtbl.t }

let define ~name ~attrs ~methods ~ref_slots =
  if ref_slots < 0 then invalid_arg "Obj_class.define: negative ref_slots";
  let seen = Hashtbl.create 8 in
  let analysed =
    List.map
      (fun (m : Method_ir.t) ->
        if Hashtbl.mem seen m.Method_ir.name then
          invalid_arg (Printf.sprintf "Obj_class.define: duplicate method %s" m.Method_ir.name);
        Hashtbl.add seen m.Method_ir.name ();
        if Method_ir.max_slot m >= ref_slots then
          invalid_arg
            (Printf.sprintf "Obj_class.define: method %s uses slot beyond ref_slots"
               m.Method_ir.name);
        let summary = Access_analysis.analyse ~attr_count:(Array.length attrs) m in
        if Method_ir.commutes m then begin
          (* Escrow-classed methods must be self-contained updates: the escrow
             protocol replaces their page locks with a delta reservation on one
             object, so a nested Invoke (a sub-transaction on another object)
             or a read-only body would escape that model. *)
          if summary.Access_analysis.invoked <> [] then
            invalid_arg
              (Printf.sprintf "Obj_class.define: commutative method %s contains Invoke"
                 m.Method_ir.name);
          if not summary.Access_analysis.updates then
            invalid_arg
              (Printf.sprintf "Obj_class.define: commutative method %s never writes"
                 m.Method_ir.name)
        end;
        (m, summary))
      methods
  in
  { name; attrs; ref_slots; analysed; compiled = None }

let compile ~page_size t =
  let layout = Layout.create ~page_size t.attrs in
  let table = Hashtbl.create 8 in
  List.iter
    (fun (ir, summary) ->
      Hashtbl.replace table ir.Method_ir.name
        { ir; summary; page_summary = Access_analysis.pages layout summary })
    t.analysed;
  { t with compiled = Some { layout; table } }

let name t = t.name
let attrs t = t.attrs
let ref_slots t = t.ref_slots

let compiled_exn t =
  match t.compiled with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Obj_class: class %s not compiled" t.name)

let layout t = (compiled_exn t).layout
let page_count t = Layout.page_count (layout t)

let find_method t m_name =
  let c = compiled_exn t in
  match Hashtbl.find_opt c.table m_name with
  | Some m -> m
  | None -> raise Not_found

let methods t =
  let c = compiled_exn t in
  Hashtbl.fold (fun _ m acc -> m :: acc) c.table []
  |> List.sort (fun a b -> compare a.ir.Method_ir.name b.ir.Method_ir.name)

let method_names t = List.map (fun m -> m.ir.Method_ir.name) (methods t)

let pp fmt t =
  Format.fprintf fmt "class %s (%d attrs, %d slots, %d methods)" t.name (Array.length t.attrs)
    t.ref_slots (List.length t.analysed)
