(* Quickstart: a counter object shared by four nodes under LOTEC.

   Shows the core workflow:
     1. define a class (attributes + methods in the tiny IR),
     2. compile it (fixes the layout, runs the access analysis),
     3. build a catalog of object instances,
     4. create a runtime, submit root transactions, run,
     5. inspect metrics and verify serializability.

   Run with: dune exec examples/quickstart.exe *)

open Objmodel

let () =
  (* 1. A counter with a hot field and a rarely-read log field. *)
  let counter_class =
    Obj_class.define ~name:"Counter"
      ~attrs:
        [|
          Attribute.make ~name:"value" ~size_bytes:64;
          Attribute.make ~name:"history" ~size_bytes:8000 (* spills onto later pages *);
        |]
      ~methods:
        [
          Method_ir.make ~name:"increment" ~body:[ Method_ir.Read 0; Method_ir.Write 0 ];
          Method_ir.make ~name:"read" ~body:[ Method_ir.Read 0 ];
          Method_ir.make ~name:"archive" ~body:[ Method_ir.Read 0; Method_ir.Write 1 ];
        ]
      ~ref_slots:0
  in
  (* 2. Compile: 4096-byte pages — 'value' lands on page 0, 'history' spans
     pages 0-1. The analysis records that 'increment' touches page 0 only,
     which is exactly what LOTEC will transfer. *)
  let counter_class = Obj_class.compile ~page_size:4096 counter_class in
  Format.printf "Counter spans %d pages@." (Obj_class.page_count counter_class);
  let incr_method = Obj_class.find_method counter_class "increment" in
  Format.printf "increment predicted pages: %s@."
    (String.concat ","
       (List.map string_of_int
          incr_method.Obj_class.page_summary.Access_analysis.access_pages));

  (* 3. One shared counter instance. *)
  let catalog =
    Catalog.create [ { Catalog.oid = Oid.of_int 0; cls = counter_class; refs = [||] } ]
  in

  (* 4. Four nodes hammering the counter. *)
  let config =
    { Core.Config.default with Core.Config.node_count = 4; protocol = Dsm.Protocol.Lotec }
  in
  let rt = Core.Runtime.create ~config ~catalog in
  for i = 0 to 19 do
    let meth = if i mod 5 = 4 then "archive" else "increment" in
    Core.Runtime.submit rt ~at:(float_of_int (i * 40)) ~node:(i mod 4) ~oid:(Oid.of_int 0)
      ~meth ~seed:(1000 + i)
  done;
  Core.Runtime.run rt;

  (* 5. Results. *)
  let m = Core.Runtime.metrics rt in
  Format.printf "@.%a@." Dsm.Metrics.pp_summary m;
  (match Core.Runtime.check_serializable rt with
  | Core.Serializability.Serializable order ->
      Format.printf "@.serializable; equivalent serial order of %d families@."
        (List.length order)
  | Core.Serializability.Cyclic _ ->
      Format.printf "@.NOT serializable (bug!)@.";
      exit 1);
  let e = Dsm.Metrics.per_object m (Oid.of_int 0) in
  Format.printf "counter object: %d msgs, %d data bytes, %d demand fetches@."
    e.Dsm.Metrics.messages e.Dsm.Metrics.data_bytes e.Dsm.Metrics.demand_fetches
