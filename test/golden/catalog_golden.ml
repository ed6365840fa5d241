(* One digest over every generated catalog and root stream of a fixed grid:
   class names, attribute names and sizes, layout offsets and page lists,
   each method's IR, access summary and access pages, reference slots, and
   the roots with their arrival times in hex. The grid is every preset of
   [Workload.Scenarios.all] at its own seed and at seeds 1 and 7, the
   64-node stream-scale shape at 30,000 roots, and large-high at page sizes
   where attributes span pages (100, 300, 1000) or pack densely (8192). *)

open Objmodel

let expected = "6a20379e49b2cf43bb7f4122a05608a2"

let default_page_size = Core.Config.default.Core.Config.page_size

let grid =
  List.concat_map
    (fun (name, (spec : Workload.Spec.t)) ->
      List.map
        (fun seed -> (Printf.sprintf "%s seed %d" name seed, { spec with seed }, default_page_size))
        [ spec.seed; 1; 7 ])
    Workload.Scenarios.all
  @ [ ("stream-scale", Experiments.Scale.spec_for ~roots:30_000 ~nodes:64, default_page_size) ]
  @ List.map
      (fun page_size ->
        (Printf.sprintf "large-high page %d" page_size, Workload.Scenarios.large_high, page_size))
      [ 100; 300; 1000; 8192 ]

let ints b l = List.iter (Printf.bprintf b " %d") l

let rec stmt b = function
  | Method_ir.Read a -> Printf.bprintf b " r%d" a
  | Method_ir.Write a -> Printf.bprintf b " w%d" a
  | Method_ir.Invoke { slot; meth } -> Printf.bprintf b " i%d.%s" slot meth
  | Method_ir.If { prob_then; then_; else_ } ->
      Printf.bprintf b " if %h (" prob_then;
      List.iter (stmt b) then_;
      Buffer.add_string b " ) (";
      List.iter (stmt b) else_;
      Buffer.add_string b " )"
  | Method_ir.Loop { count; body } ->
      Printf.bprintf b " loop %d (" count;
      List.iter (stmt b) body;
      Buffer.add_string b " )"

let add_method b (m : Obj_class.compiled_method) =
  let s = m.Obj_class.summary in
  Printf.bprintf b "  %s %s:" m.ir.Method_ir.name
    (Format.asprintf "%a" Method_ir.pp_commutativity m.ir.Method_ir.commutativity);
  List.iter (stmt b) m.ir.Method_ir.body;
  Buffer.add_string b "\n   reads";
  ints b s.Access_analysis.read_attrs;
  Buffer.add_string b " writes";
  ints b s.Access_analysis.write_attrs;
  Buffer.add_string b " invoked";
  List.iter (fun (slot, meth) -> Printf.bprintf b " %d.%s" slot meth) s.Access_analysis.invoked;
  Printf.bprintf b " updates %b pages" s.Access_analysis.updates;
  ints b m.Obj_class.page_summary.Access_analysis.access_pages;
  Buffer.add_char b '\n'

let add_instance b (inst : Catalog.instance) =
  let cls = inst.Catalog.cls in
  let layout = Obj_class.layout cls in
  Printf.bprintf b "%d %s slots %d refs" (Oid.to_int inst.Catalog.oid) (Obj_class.name cls)
    (Obj_class.ref_slots cls);
  Array.iter (fun r -> Printf.bprintf b " %d" (Oid.to_int r)) inst.Catalog.refs;
  Printf.bprintf b " layout %d %d %d\n" (Layout.page_size layout) (Layout.total_bytes layout)
    (Layout.page_count layout);
  Array.iteri
    (fun a (attr : Attribute.t) ->
      Printf.bprintf b "  %s %d @%d pages" attr.Attribute.name attr.Attribute.size_bytes
        (Layout.offset layout a);
      ints b (Layout.pages_of_attr layout a);
      Buffer.add_char b '\n')
    (Obj_class.attrs cls);
  List.iter (add_method b) (Obj_class.methods cls)

let workload_digest (name, spec, page_size) =
  let wl = Workload.Generator.generate spec ~page_size in
  let b = Buffer.create (1 lsl 16) in
  Printf.bprintf b "%s\n" name;
  List.iter
    (fun oid -> add_instance b (Catalog.find wl.Workload.Generator.catalog oid))
    (Catalog.oids wl.Workload.Generator.catalog);
  List.iter
    (fun (r : Workload.Generator.root_spec) ->
      Printf.bprintf b "%h %d %d %s %d\n" r.at r.node (Oid.to_int r.oid) r.meth r.seed)
    wl.Workload.Generator.roots;
  Digest.string (Buffer.contents b)

let digest () =
  Digest.to_hex (Digest.string (String.concat "" (List.map workload_digest grid)))
