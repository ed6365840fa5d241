type row = {
  protocol : Dsm.Protocol.t;
  breakdown : (Dsm.Wire.t * int * int) list;
  messages : int;
  bytes : int;
  completion_us : float;
}

let default_protocols = [ Dsm.Protocol.Cotec; Dsm.Protocol.Otec; Dsm.Protocol.Lotec ]

let run ?(spec = Workload.Scenarios.medium_high) ?(protocols = default_protocols) () =
  let wl = Workload.Generator.generate spec ~page_size:Core.Config.default.Core.Config.page_size in
  List.map
    (fun protocol ->
      let r = Runner.execute ~protocol wl in
      let m = Runner.metrics r in
      {
        protocol;
        breakdown = Dsm.Metrics.wire_breakdown m;
        messages = Dsm.Metrics.wire_messages_total m;
        bytes = Dsm.Metrics.wire_bytes_total m;
        completion_us = Dsm.Metrics.completion_time_us m;
      })
    protocols

let pp_report fmt rows =
  Format.fprintf fmt "per-message-type traffic breakdown@.";
  Format.fprintf fmt "%-16s" "message type";
  List.iter
    (fun r ->
      Format.fprintf fmt " | %22s"
        (Format.asprintf "%a (msgs / bytes)" Dsm.Protocol.pp r.protocol))
    rows;
  Format.fprintf fmt "@.";
  List.iter
    (fun w ->
      let cells =
        List.map
          (fun r ->
            match List.find_opt (fun (w', _, _) -> w' = w) r.breakdown with
            | Some (_, m, b) -> (m, b)
            | None -> (0, 0))
          rows
      in
      if List.exists (fun (m, _) -> m > 0) cells then begin
        Format.fprintf fmt "%-16s" (Dsm.Wire.to_string w);
        List.iter (fun (m, b) -> Format.fprintf fmt " | %8d %13d" m b) cells;
        Format.fprintf fmt "@."
      end)
    Dsm.Wire.all;
  Format.fprintf fmt "%-16s" "total";
  List.iter (fun r -> Format.fprintf fmt " | %8d %13d" r.messages r.bytes) rows;
  Format.fprintf fmt "@.%-16s" "completion (us)";
  List.iter (fun r -> Format.fprintf fmt " | %22.1f" r.completion_us) rows;
  Format.fprintf fmt "@."

let to_json rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "  {\"protocol\": \"%s\", \"messages\": %d, \"bytes\": %d, \
                         \"completion_us\": %.3f, \"by_type\": {"
           (Dsm.Trace_export.escape_json (Format.asprintf "%a" Dsm.Protocol.pp r.protocol))
           r.messages r.bytes r.completion_us);
      List.iteri
        (fun j (w, m, b) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "\"%s\": {\"messages\": %d, \"bytes\": %d}"
               (Dsm.Trace_export.escape_json (Dsm.Wire.to_string w)) m b))
        r.breakdown;
      Buffer.add_string buf "}}")
    rows;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
