type value = Int of int | Float of float | Per_object of (Objmodel.Oid.t * int) list

type case = {
  labels : (string * string) list;
  workload : Workload.Spec.t -> Workload.Spec.t;
  config : Core.Config.t -> Core.Config.t;
}

type arm = string * (Core.Config.t -> Core.Config.t)
type column = string * (Runner.run -> value)

type row = {
  protocol : Dsm.Protocol.t;
  case : case;
  arm : string;
  values : ((string * value) list, string) result;
}

type bound = At_least of float | At_most of float | Between of float * float

type peer =
  ?protocol:Dsm.Protocol.t -> ?arm:string -> ?case:(string * string) list -> unit -> row

type gate = {
  claim : string;
  select : row -> bool;
  metric : peer:peer -> row -> float;
  bound : bound;
  every : bool;
  report_only : bool;
}

type t = {
  name : string;
  protocols : Dsm.Protocol.t list;
  spec : Workload.Spec.t;
  cases : case list;
  arms : arm list;
  columns : column list;
  gates : gate list;
}

let case ?(workload = Fun.id) ?(config = Fun.id) labels = { labels; workload; config }
let default_arm = [ ("default", Fun.id) ]

let gate ?(every = true) ?(report_only = false) claim ~select ~metric bound =
  { claim; select; metric; bound; every; report_only }

let run_row suite protocol case (arm, tweak) =
  let config = tweak (case.config Core.Config.default) in
  let on_stall rt =
    prerr_endline "--- directory at stall ---";
    prerr_endline (Core.Runtime.dump_directory rt)
  in
  let values =
    match
      let spec = case.workload suite.spec in
      let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
      Runner.execute ~config ~on_stall ~protocol wl
    with
    | run -> Ok (List.map (fun (name, read) -> (name, read run)) suite.columns)
    | exception Failure msg -> Error msg
    | exception e -> Error (Printexc.to_string e)
  in
  { protocol; case; arm; values }

let run suite =
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun case -> List.map (run_row suite protocol case) suite.arms)
        suite.cases)
    suite.protocols

let label row key = List.assoc key row.case.labels

let matches ?protocol ?arm ?(case = []) row =
  Option.fold ~none:true ~some:(( = ) row.protocol) protocol
  && Option.fold ~none:true ~some:(( = ) row.arm) arm
  && List.for_all (fun (k, v) -> List.assoc_opt k row.case.labels = Some v) case

let get row name =
  match row.values with
  | Error msg -> failwith msg
  | Ok values -> (
      match List.assoc name values with
      | Int i -> float_of_int i
      | Float f -> f
      | Per_object _ -> invalid_arg ("Suite.get: " ^ name ^ " is a per-object column"))

let counter name read = (name, fun run -> Int (read (Dsm.Metrics.totals (Runner.metrics run))))
let roots_committed = counter "roots_committed" (fun t -> t.roots_committed)
let roots_aborted = counter "roots_aborted" (fun t -> t.roots_aborted)

let total_messages =
  ("total_messages", fun run -> Int (Dsm.Metrics.total_messages (Runner.metrics run)))

let total_bytes = ("total_bytes", fun run -> Int (Dsm.Metrics.total_bytes (Runner.metrics run)))

let completion_time_us =
  ("completion_time_us", fun run -> Float (Dsm.Metrics.completion_time_us (Runner.metrics run)))

let time_replay ~bandwidth_bps software_cost_us =
  ( Printf.sprintf "total_time_us_%gMbps_sw%g" (bandwidth_bps /. 1e6) software_cost_us,
    fun run ->
      Float
        (Dsm.Metrics.total_time_us (Runner.metrics run)
           ~link:{ Sim.Network.bandwidth_bps; software_cost_us }) )

let per_object name read =
  ( name,
    fun run ->
      let m = Runner.metrics run in
      Per_object
        (List.map
           (fun oid -> (oid, read (Dsm.Metrics.per_object m oid)))
           (Objmodel.Catalog.oids run.Runner.workload.Workload.Generator.catalog)) )

let bytes_per_object =
  per_object "bytes_per_object" (fun e -> e.Dsm.Metrics.control_bytes + e.Dsm.Metrics.data_bytes)

let messages_per_object = per_object "messages_per_object" (fun e -> e.Dsm.Metrics.messages)

let percentile name histogram p =
  (name, fun run -> Float (Dsm.Histogram.percentile (histogram (Runner.metrics run)) p))

let root_latency name stat =
  (name, fun run -> Float (stat (Stats.root_latencies run.Runner.runtime)))

let mean_root_latency_us = root_latency "mean_root_latency_us" Stats.mean

type verdict = { gate : gate; measured : float option; pass : bool }

(* How far inside its bound a measurement sits; negative (or NaN) is out. *)
let slack bound v =
  match bound with
  | At_least b -> v -. b
  | At_most b -> b -. v
  | Between (lo, hi) -> Float.min (v -. lo) (hi -. v)

let verdict rows gate =
  (* Every case carries the same label keys, so matching all of them is an
     exact match. An errored row is no peer: reading it raises [Not_found],
     as for a row that never ran. *)
  let peer r ?(protocol = r.protocol) ?(arm = r.arm) ?(case = []) () =
    let labels =
      List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k case) ~default:v)) r.case.labels
    in
    List.find (fun p -> Result.is_ok p.values && matches ~protocol ~arm ~case:labels p) rows
  in
  let measured =
    List.filter_map
      (fun r ->
        if Result.is_error r.values || not (gate.select r) then None
        else
          (* A row whose peers are missing or errored cannot be measured. *)
          match gate.metric ~peer:(peer r) r with
          | v -> Some v
          | exception Not_found -> None)
      rows
  in
  (* Best-row gates keep the best measurement, every-row gates the worst. *)
  let keep a b = if slack gate.bound a >= slack gate.bound b <> gate.every then a else b in
  match measured with
  | [] -> { gate; measured = None; pass = false }
  | m :: ms ->
      let v = List.fold_left keep m ms in
      { gate; measured = Some v; pass = slack gate.bound v >= 0.0 }

let verdicts suite rows = List.map (verdict rows) suite.gates

let passed suite rows =
  List.for_all (fun r -> Result.is_ok r.values) rows
  && List.for_all (fun v -> v.pass || v.gate.report_only) (verdicts suite rows)

let protocol_name p = Format.asprintf "%a" Dsm.Protocol.pp p
let oid_name oid = Format.asprintf "%a" Objmodel.Oid.pp oid
let format_float f = Printf.sprintf "%.3f" f
let json_string s = "\"" ^ Dsm.Trace_export.escape_json s ^ "\""

let format_value = function
  | Int i -> string_of_int i
  | Float f -> format_float f
  | Per_object counts ->
      "{"
      ^ String.concat ", "
          (List.map (fun (oid, n) -> json_string (oid_name oid) ^ ": " ^ string_of_int n) counts)
      ^ "}"

let bound_text = function
  | At_least b -> Printf.sprintf ">= %g" b
  | At_most b -> Printf.sprintf "<= %g" b
  | Between (lo, hi) -> Printf.sprintf "in [%g, %g]" lo hi

let labels_text labels = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

(* The per-object columns, judged by the first row that produced values. *)
let per_object_columns rows =
  match List.find_map (fun r -> Result.to_option r.values) rows with
  | None -> []
  | Some values -> List.filter_map (function k, Per_object _ -> Some k | _ -> None) values

let pp_per_object fmt suite rows column =
  let who r =
    protocol_name r.protocol ^ if List.length suite.arms > 1 then "/" ^ r.arm else ""
  in
  List.iter
    (fun (case : case) ->
      let series =
        List.filter_map
          (fun r ->
            match r.values with
            | Ok values when r.case.labels = case.labels -> (
                match List.assoc column values with
                | Per_object counts -> Some (who r, counts)
                | _ -> None)
            | _ -> None)
          rows
      in
      match series with
      | [] -> ()
      | (_, first) :: _ ->
          let table =
            List.map
              (fun (oid, _) ->
                oid_name oid :: List.map (fun (_, c) -> string_of_int (List.assoc oid c)) series)
              first
          in
          Format.fprintf fmt "@.%s %s@.%s@." column (labels_text case.labels)
            (Report.render ~header:("object" :: List.map fst series) table))
    suite.cases

let pp_report fmt (suite, rows) =
  let label_keys = match suite.cases with c :: _ -> List.map fst c.labels | [] -> [] in
  let per_object = per_object_columns rows in
  let scalar = List.filter (fun (k, _) -> not (List.mem k per_object)) suite.columns in
  let header = ("protocol" :: label_keys) @ ("arm" :: List.map fst scalar) in
  let cells r =
    (protocol_name r.protocol :: List.map snd r.case.labels)
    @ r.arm
      :: (match r.values with
         | Ok values -> List.map (fun (k, _) -> format_value (List.assoc k values)) scalar
         | Error _ -> List.map (fun _ -> "-") scalar)
  in
  let align =
    List.init (List.length label_keys + 2) (fun _ -> Report.Left)
    @ List.map (fun _ -> Report.Right) scalar
  in
  Format.fprintf fmt "suite %s, workload: %a@.@.%s@." suite.name Workload.Spec.pp suite.spec
    (Report.render ~header ~align (List.map cells rows));
  List.iter
    (fun r ->
      match r.values with
      | Ok _ -> ()
      | Error msg ->
          Format.fprintf fmt "ERROR %s %s %s: %s@." (protocol_name r.protocol)
            (labels_text r.case.labels) r.arm msg)
    rows;
  List.iter (pp_per_object fmt suite rows) per_object;
  if per_object <> [] then Format.fprintf fmt "@.";
  List.iter
    (fun v ->
      Format.fprintf fmt "%s %s: %s (bound %s) %s@."
        (if v.gate.report_only then "report" else "gate")
        v.gate.claim
        (match v.measured with Some m -> format_float m | None -> "no row")
        (bound_text v.gate.bound)
        (match (v.pass, v.gate.report_only) with
        | true, false -> "ok"
        | false, false -> "MISS"
        | true, true -> "in"
        | false, true -> "out"))
    (verdicts suite rows)

let to_json suite rows =
  let field k v = json_string k ^ ": " ^ v in
  let row r =
    let fields =
      (field "protocol" (json_string (protocol_name r.protocol))
      :: List.map (fun (k, v) -> field k (json_string v)) r.case.labels)
      @ field "arm" (json_string r.arm)
        :: (match r.values with
           | Ok values -> List.map (fun (k, v) -> field k (format_value v)) values
           | Error msg -> [ field "error" (json_string msg) ])
    in
    "    {" ^ String.concat ", " fields ^ "}"
  in
  let gate v =
    Printf.sprintf "    {%s, %s, %s, %s, %s}"
      (field "gate" (json_string v.gate.claim))
      (field "measured" (match v.measured with Some m -> format_float m | None -> "null"))
      (field "bound" (json_string (bound_text v.gate.bound)))
      (field "blocking" (string_of_bool (not v.gate.report_only)))
      (field "pass" (string_of_bool v.pass))
  in
  Printf.sprintf "{\n  \"suite\": %s,\n  \"rows\": [\n%s\n  ],\n  \"gates\": [\n%s\n  ]\n}\n"
    (json_string suite.name)
    (String.concat ",\n" (List.map row rows))
    (String.concat ",\n" (List.map gate (verdicts suite rows)))
