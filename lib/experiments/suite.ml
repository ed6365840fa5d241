type value = Int of int | Float of float

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

type bound = At_least of float | At_most of float

type gate = {
  claim : string;
  select : row -> bool;
  metric : base:row -> row -> float;
  bound : bound;
  every : bool;
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

let get row name =
  match row.values with
  | Error msg -> failwith msg
  | Ok values -> (
      match List.assoc name values with Int i -> float_of_int i | Float f -> f)

let counter name read = (name, fun run -> Int (read (Dsm.Metrics.totals (Runner.metrics run))))
let roots_committed = counter "roots_committed" (fun t -> t.roots_committed)
let roots_aborted = counter "roots_aborted" (fun t -> t.roots_aborted)

let total_messages =
  ("total_messages", fun run -> Int (Dsm.Metrics.total_messages (Runner.metrics run)))

let total_bytes = ("total_bytes", fun run -> Int (Dsm.Metrics.total_bytes (Runner.metrics run)))

let completion_time_us =
  ("completion_time_us", fun run -> Float (Dsm.Metrics.completion_time_us (Runner.metrics run)))

let percentile name histogram p =
  (name, fun run -> Float (Dsm.Histogram.percentile (histogram (Runner.metrics run)) p))

type verdict = { gate : gate; measured : float option; pass : bool }

let meets bound v = match bound with At_least b -> v >= b | At_most b -> v <= b

let verdict suite rows gate =
  let base_of r =
    List.find_opt
      (fun b ->
        b.protocol = r.protocol
        && b.case.labels = r.case.labels
        && b.arm = fst (List.hd suite.arms))
      rows
  in
  let measured =
    List.filter_map
      (fun r ->
        match (r.values, base_of r) with
        | Ok _, Some ({ values = Ok _; _ } as base) when gate.select r ->
            Some (gate.metric ~base r)
        | _ -> None)
      rows
  in
  (* Best-row gates keep the best measurement, every-row gates the worst. *)
  let better a b = match gate.bound with At_least _ -> a >= b | At_most _ -> a <= b in
  let keep a b = if better a b <> gate.every then a else b in
  match measured with
  | [] -> { gate; measured = None; pass = false }
  | m :: ms ->
      let v = List.fold_left keep m ms in
      { gate; measured = Some v; pass = meets gate.bound v }

let verdicts suite rows = List.map (verdict suite rows) suite.gates

let passed suite rows =
  List.for_all (fun r -> Result.is_ok r.values) rows
  && List.for_all (fun v -> v.pass) (verdicts suite rows)

let protocol_name p = Format.asprintf "%a" Dsm.Protocol.pp p

let format_value = function Int i -> string_of_int i | Float f -> Printf.sprintf "%.3f" f

let bound_text = function
  | At_least b -> Printf.sprintf ">= %g" b
  | At_most b -> Printf.sprintf "<= %g" b

let pp_report fmt (suite, rows) =
  let label_keys = match suite.cases with c :: _ -> List.map fst c.labels | [] -> [] in
  let header = ("protocol" :: label_keys) @ ("arm" :: List.map fst suite.columns) in
  let cells r =
    (protocol_name r.protocol :: List.map snd r.case.labels)
    @ r.arm
      :: (match r.values with
         | Ok values -> List.map (fun (_, v) -> format_value v) values
         | Error _ -> List.map (fun _ -> "-") suite.columns)
  in
  let align =
    List.init (List.length label_keys + 2) (fun _ -> Report.Left)
    @ List.map (fun _ -> Report.Right) suite.columns
  in
  Format.fprintf fmt "suite %s, workload: %a@.@.%s@." suite.name Workload.Spec.pp suite.spec
    (Report.render ~header ~align (List.map cells rows));
  List.iter
    (fun r ->
      match r.values with
      | Ok _ -> ()
      | Error msg ->
          Format.fprintf fmt "ERROR %s %s %s: %s@." (protocol_name r.protocol)
            (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) r.case.labels))
            r.arm msg)
    rows;
  List.iter
    (fun v ->
      Format.fprintf fmt "gate %s: %s (bound %s) %s@." v.gate.claim
        (match v.measured with Some m -> Printf.sprintf "%.3f" m | None -> "no row")
        (bound_text v.gate.bound)
        (if v.pass then "ok" else "MISS"))
    (verdicts suite rows)

let to_json suite rows =
  let str = Printf.sprintf "%S" in
  let field k v = str k ^ ": " ^ v in
  let row r =
    let fields =
      (field "protocol" (str (protocol_name r.protocol))
      :: List.map (fun (k, v) -> field k (str v)) r.case.labels)
      @ field "arm" (str r.arm)
        :: (match r.values with
           | Ok values -> List.map (fun (k, v) -> field k (format_value v)) values
           | Error msg -> [ field "error" (str msg) ])
    in
    "    {" ^ String.concat ", " fields ^ "}"
  in
  let gate v =
    Printf.sprintf "    {%s, %s, %s, %s}"
      (field "gate" (str v.gate.claim))
      (field "measured"
         (match v.measured with Some m -> Printf.sprintf "%.3f" m | None -> "null"))
      (field "bound" (str (bound_text v.gate.bound)))
      (field "pass" (string_of_bool v.pass))
  in
  Printf.sprintf "{\n  \"suite\": %S,\n  \"rows\": [\n%s\n  ],\n  \"gates\": [\n%s\n  ]\n}\n"
    suite.name
    (String.concat ",\n" (List.map row rows))
    (String.concat ",\n" (List.map gate (verdicts suite rows)))
