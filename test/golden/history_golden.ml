(* One digest over the committed histories of a fixed grid of runs: every
   root's deduplicated reads and writes in commit order, the checker's
   verdict with its witness order, and the conflict edges. The grid is
   every preset of [Workload.Scenarios.all] under COTEC, OTEC and LOTEC,
   plus one run whose sub-transactions abort (their access logs must be
   dropped, not merged into the parent) and one with the method cache on
   (a cache fill reads the leaf's log; a hit logs the cached reads). *)

open Core.Serializability

let expected = "4aff36d3d3467e0ba6ca4cbfb731b4a2"

let runs =
  let open Core.Config in
  List.concat_map
    (fun (name, spec) ->
      List.map (fun p -> (name, spec, p, default)) Dsm.Protocol.[ Cotec; Otec; Lotec ])
    Workload.Scenarios.all
  @ [
      ( "medium-high aborts",
        Workload.Scenarios.medium_high,
        Dsm.Protocol.Lotec,
        { default with abort_probability = 0.2 } );
      ( "web-catalog cached",
        Workload.Scenarios.web_catalog,
        Dsm.Protocol.Lotec,
        {
          default with
          lease = Experiments.Method_cache.default_lease;
          method_cache = Experiments.Method_cache.default_policy;
        } );
    ]

let add_run b (name, spec, protocol, config) =
  let wl = Workload.Generator.generate spec ~page_size:config.Core.Config.page_size in
  let run = Experiments.Runner.execute ~config ~protocol wl in
  let history = Core.Runtime.committed_history run.Experiments.Runner.runtime in
  let id t = string_of_int (Txn.Txn_id.to_int t) in
  let ids ts = String.concat " " (List.map id ts) in
  let accesses l =
    String.concat " "
      (List.map
         (fun a -> Printf.sprintf "%d.%d.%d" (Objmodel.Oid.to_int a.oid) a.page a.version)
         l)
  in
  Printf.bprintf b "%s %s\n" name (Dsm.Protocol.to_string protocol);
  List.iter
    (fun r -> Printf.bprintf b "%s r %s w %s\n" (id r.root) (accesses r.reads) (accesses r.writes))
    history;
  (match check history with
  | Serializable order -> Printf.bprintf b "serializable %s\n" (ids order)
  | Cyclic cycle -> Printf.bprintf b "cyclic %s\n" (ids cycle));
  List.iter (fun (x, y) -> Printf.bprintf b "%s>%s " (id x) (id y)) (edges history);
  Buffer.add_char b '\n'

let digest () =
  let b = Buffer.create (1 lsl 20) in
  List.iter (add_run b) runs;
  Digest.to_hex (Digest.string (Buffer.contents b))
