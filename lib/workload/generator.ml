open Objmodel

type root_spec = { at : float; node : int; oid : Oid.t; meth : string; seed : int }

type t = { spec : Spec.t; catalog : Catalog.t; roots : root_spec list }

let method_name i = Printf.sprintf "m%d" i

(* Attribute and method names, built once per [generate] call and shared by
   every class, invoke and root that uses them. *)
type names = { attr_names : string array; method_names : string array }

(* Statements of one generated method body: a subset of the object's
   attributes is accessed (some behind data-dependent branches, so the
   conservative prediction over-approximates the actual footprint), and some
   reference slots are invoked through (sub-transactions). *)
let gen_method rng (spec : Spec.t) ~names ~attr_count ~slot_count ~name ~read_only =
  let accessed =
    (* A contiguous window of the layout (related fields live together),
       thinned by the access density, plus an occasional scattered access
       elsewhere in the object. *)
    let span =
      max 1 (int_of_float (Float.round (spec.access_fraction *. float_of_int attr_count)))
    in
    let span = min span attr_count in
    let start = Sim.Prng.int rng (attr_count - span + 1) in
    let windowed =
      List.filter
        (fun _a -> Sim.Prng.bernoulli rng spec.access_density)
        (List.init span (fun i -> start + i))
    in
    let windowed = if windowed = [] then [ start ] else windowed in
    if Sim.Prng.bernoulli rng spec.scatter_probability then
      Sim.Prng.int rng attr_count :: windowed
    else windowed
  in
  let access_stmts =
    List.map
      (fun a ->
        let stmt =
          if (not read_only) && Sim.Prng.bernoulli rng spec.write_fraction then
            Method_ir.Write a
          else Method_ir.Read a
        in
        if Sim.Prng.bernoulli rng spec.branch_probability then
          Method_ir.If
            { prob_then = spec.branch_taken_probability; then_ = [ stmt ]; else_ = [] }
        else stmt)
      accessed
  in
  let invoke_stmts =
    List.filter_map
      (fun slot ->
        if Sim.Prng.bernoulli rng spec.invoke_probability then
          Some
            (Method_ir.Invoke
               { slot; meth = names.method_names.(Sim.Prng.int rng spec.methods_per_class) })
        else None)
      (List.init slot_count (fun s -> s))
  in
  let stmts = Array.of_list (access_stmts @ invoke_stmts) in
  Sim.Prng.shuffle rng stmts;
  Method_ir.make ~name ~body:(Array.to_list stmts)

let attrs_per_page (spec : Spec.t) ~page_size = max 1 (page_size / spec.attr_size_bytes)

let gen_class rng (spec : Spec.t) ~names ~page_size ~index ~slot_count =
  let pages = Sim.Prng.int_in rng spec.min_pages spec.max_pages in
  let attr_count = pages * attrs_per_page spec ~page_size in
  let attrs =
    Array.init attr_count (fun a ->
        Attribute.make ~name:names.attr_names.(a) ~size_bytes:spec.attr_size_bytes)
  in
  let methods =
    List.init spec.methods_per_class (fun m ->
        (* Method m0 always updates, so every class has a writer; others may
           be read-only — or, when the spec asks for them, declared-
           commutative unit updates (deposits/withdrawals). The 0.0 guard
           keeps knob-free specs draw-identical to the pre-knob
           generator. *)
        if
          m > 0
          && spec.commuting_fraction > 0.0
          && Sim.Prng.bernoulli rng spec.commuting_fraction
        then
          let commutativity =
            if m land 1 = 1 then Method_ir.Increment else Method_ir.Decrement
          in
          Method_ir.make_commuting ~name:names.method_names.(m) ~commutativity
            ~body:[ Method_ir.Write 0 ]
        else
          let read_only = m > 0 && Sim.Prng.bernoulli rng spec.read_only_method_fraction in
          gen_method rng spec ~names ~attr_count ~slot_count ~name:names.method_names.(m)
            ~read_only)
  in
  Obj_class.compile ~page_size
    (Obj_class.define
       ~name:(Printf.sprintf "C%d" index)
       ~attrs ~methods ~ref_slots:slot_count)

let generate spec ~page_size =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Generator.generate: " ^ msg));
  let master = Sim.Prng.create ~seed:spec.Spec.seed in
  let rng_shape = Sim.Prng.split master in
  let rng_methods = Sim.Prng.split master in
  let rng_roots = Sim.Prng.split master in
  let names =
    {
      attr_names =
        Array.init (spec.Spec.max_pages * attrs_per_page spec ~page_size) (Printf.sprintf "a%d");
      method_names = Array.init spec.Spec.methods_per_class method_name;
    }
  in
  let n = spec.Spec.object_count in
  (* Reference DAG: object i points only to higher-numbered objects. *)
  let slots_of =
    Array.init n (fun i ->
        let avail = n - 1 - i in
        if avail = 0 || spec.Spec.max_ref_slots = 0 then [||]
        else begin
          let k = Sim.Prng.int_in rng_shape 0 (min spec.Spec.max_ref_slots avail) in
          let picks = Sim.Prng.sample_without_replacement rng_shape k avail in
          Array.of_list (List.map (fun d -> Oid.of_int (i + 1 + d)) picks)
        end)
  in
  let instances =
    List.init n (fun i ->
        let refs = slots_of.(i) in
        let cls =
          gen_class rng_methods spec ~names ~page_size ~index:i ~slot_count:(Array.length refs)
        in
        { Catalog.oid = Oid.of_int i; cls; refs })
  in
  let catalog = Catalog.create instances in
  (match Catalog.validate_acyclic catalog with
  | Ok () -> ()
  | Error _ -> assert false (* construction guarantees a DAG *));
  (* Root targets: uniform, or Zipf-like when the spec asks for skew. The
     uniform path keeps its original single integer draw so skew-free specs
     generate byte-identical workloads across versions. *)
  let pick_target =
    if spec.Spec.access_skew <= 0.0 then fun () -> Sim.Prng.int rng_roots n
    else begin
      let weights =
        Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) spec.Spec.access_skew)
      in
      let cumulative = Array.make n 0.0 in
      let total =
        Array.fold_left
          (fun acc w -> acc +. w)
          0.0 weights
      in
      let running = ref 0.0 in
      Array.iteri
        (fun i w ->
          running := !running +. w;
          cumulative.(i) <- !running)
        weights;
      fun () ->
        let u = Sim.Prng.float rng_roots total in
        let rec search lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if cumulative.(mid) < u then search (mid + 1) hi else search lo mid
        in
        search 0 (n - 1)
    end
  in
  (* Load shaping scales the mean inter-arrival time as a function of the
     root's phase x = r / (root_count - 1) in [0,1]. [Steady] returns
     [arrival_mean_us] itself (not a computed copy), so steady specs
     generate byte-identical arrival times across versions. *)
  let shaped_mean r =
    match spec.Spec.load_shape with
    | Spec.Steady -> spec.Spec.arrival_mean_us
    | shape ->
        let x = float_of_int r /. float_of_int (max 1 (spec.Spec.root_count - 1)) in
        let rate_scale =
          match shape with
          | Spec.Steady -> 1.0
          | Spec.Diurnal { trough } ->
              (* Cosine day: full rate at the start/end, [trough] of it at
                 midday. *)
              trough +. ((1.0 -. trough) *. 0.5 *. (1.0 +. cos (2.0 *. Float.pi *. x)))
          | Spec.Flash_crowd { at; width; boost } ->
              if Float.abs (x -. at) <= width /. 2.0 then boost else 1.0
        in
        spec.Spec.arrival_mean_us /. rate_scale
  in
  let roots =
    (* Built with explicit in-order recursion, not [List.init]: the list
       must be ascending by [at] (the .mli contract), and the clock is a
       side effect — [List.init] switches to a reverse-evaluation
       tail-recursive scheme above ~10k elements, which silently handed
       the *last* root the *first* arrival time at exactly the scales the
       streaming runs use. *)
    let clock = ref 0.0 in
    let rec build r acc =
      if r >= spec.Spec.root_count then List.rev acc
      else begin
        clock := !clock +. Sim.Prng.exponential rng_roots ~mean:(shaped_mean r);
        let pick_method () =
          (* [None] keeps the original single uniform draw, so specs without
             the knob generate byte-identical roots across versions. *)
          match spec.Spec.root_update_fraction with
          | None -> Sim.Prng.int rng_roots spec.Spec.methods_per_class
          | Some p ->
              if Sim.Prng.bernoulli rng_roots p then 0 (* m0: the class's writer *)
              else 1 + Sim.Prng.int rng_roots (spec.Spec.methods_per_class - 1)
        in
        let root =
          {
            at = !clock;
            node = r mod spec.Spec.node_count;
            oid = Oid.of_int (pick_target ());
            meth = names.method_names.(pick_method ());
            seed = (spec.Spec.seed * 1_000_003) + (r * 7919) + 17;
          }
        in
        build (r + 1) (root :: acc)
      end
    in
    build 0 []
  in
  (* Enforce the .mli arrival-order contract before anyone consumes the
     list: the runtime's streaming feeder submits roots lazily and trusts
     ascending [at] (see PR 6), so an out-of-order list must fail here, at
     the source, with a message naming the offending index. *)
  let _ =
    List.fold_left
      (fun (i, prev) root ->
        if root.at < prev then
          invalid_arg
            (Printf.sprintf
               "Generator.generate: root %d arrives at %.3f, before root %d at %.3f — \
                roots must be ascending by [at]"
               i root.at (i - 1) prev);
        (i + 1, root.at))
      (0, Float.neg_infinity) roots
  in
  { spec; catalog; roots }
