(* Tests for Sim.Prng: determinism, ranges, splitting, sampling. *)

open Sim

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let test_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_different_seeds () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  check bool_c "streams differ" true (!same < 4)

let test_copy () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_split_independence () =
  let a = Prng.create ~seed:99 in
  let b = Prng.split a in
  (* Drawing from the parent after the split must not change the child's
     stream relative to a fresh identical split. *)
  let a2 = Prng.create ~seed:99 in
  let b2 = Prng.split a2 in
  ignore (Prng.bits64 a2);
  check Alcotest.int64 "child stream is self-contained" (Prng.bits64 b) (Prng.bits64 b2)

let test_int_range () =
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check bool_c "in range" true (v >= 0 && v < 17)
  done

let test_int_rejects_nonpositive () =
  let rng = Prng.create ~seed:5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_int_in () =
  let rng = Prng.create ~seed:6 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let v = Prng.int_in rng 3 7 in
    check bool_c "in [3,7]" true (v >= 3 && v <= 7);
    seen.(v - 3) <- true
  done;
  check bool_c "all values hit" true (Array.for_all Fun.id seen)

let test_float_range () =
  let rng = Prng.create ~seed:8 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    check bool_c "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bernoulli_extremes () =
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 100 do
    check bool_c "p=0 never" false (Prng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    check bool_c "p=1 always" true (Prng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Prng.create ~seed:10 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check bool_c "rate near 0.3" true (rate > 0.25 && rate < 0.35)

let test_pick () =
  let rng = Prng.create ~seed:11 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check bool_c "member" true (Array.exists (( = ) (Prng.pick rng arr)) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick rng [||]))

let test_shuffle_is_permutation () =
  let rng = Prng.create ~seed:12 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array int_c) "same elements" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Prng.create ~seed:13 in
  let s = Prng.sample_without_replacement rng 10 30 in
  check int_c "size" 10 (List.length s);
  check int_c "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> check bool_c "in range" true (v >= 0 && v < 30)) s;
  Alcotest.check_raises "k > n" (Invalid_argument "Prng.sample_without_replacement: k > n")
    (fun () -> ignore (Prng.sample_without_replacement rng 5 3))

let test_exponential () =
  let rng = Prng.create ~seed:14 in
  let n = 10_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.exponential rng ~mean:50.0 in
    Alcotest.check bool_c "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  check bool_c "mean near 50" true (mean > 45.0 && mean < 55.0)

let test_geometric () =
  let rng = Prng.create ~seed:15 in
  check int_c "p=1 is 0" 0 (Prng.geometric rng ~p:1.0);
  for _ = 1 to 100 do
    check bool_c "non-negative" true (Prng.geometric rng ~p:0.3 >= 0)
  done

let test_geometric_edge_cases () =
  (* Malformed parameters must neither raise nor go negative: NaN and
     p >= 1 are the point mass at 0, p <= 0 clamps to a tiny success
     probability instead of dividing by log 1.0 = 0. *)
  let rng = Prng.create ~seed:16 in
  check int_c "NaN is 0" 0 (Prng.geometric rng ~p:Float.nan);
  check int_c "p=2 is 0" 0 (Prng.geometric rng ~p:2.0);
  check int_c "p=+inf is 0" 0 (Prng.geometric rng ~p:Float.infinity);
  check bool_c "p=0 finite non-negative" true (Prng.geometric rng ~p:0.0 >= 0);
  check bool_c "p<0 finite non-negative" true (Prng.geometric rng ~p:(-5.0) >= 0);
  check bool_c "p=-inf finite non-negative" true
    (Prng.geometric rng ~p:Float.neg_infinity >= 0)

let test_geometric_consumes_one_draw () =
  (* Every call — degenerate parameters included — consumes exactly one
     uniform draw, so a bad p cannot desynchronise the stream relative to
     a run that drew a sane p at the same point. *)
  List.iter
    (fun p ->
      let a = Prng.create ~seed:17 and b = Prng.create ~seed:17 in
      ignore (Prng.geometric a ~p);
      ignore (Prng.float b 1.0);
      check int_c
        (Printf.sprintf "stream in sync after p=%h" p)
        (Prng.int a 1_000_000) (Prng.int b 1_000_000))
    [ 0.3; 1.0; 0.0; -1.0; 2.0; Float.nan; Float.infinity ]

(* Outputs of every draw function at three seeds, as the boxed-state
   generator produced them: a change of representation must keep the
   stream. *)
let pinned_draws seed =
  let rng = Prng.create ~seed in
  let draws n f = String.concat " " (List.init n (fun _ -> f ())) in
  let bits64 = draws 3 (fun () -> Printf.sprintf "%Ld" (Prng.bits64 rng)) in
  let int = draws 3 (fun () -> string_of_int (Prng.int rng 1_000_000)) in
  let float = draws 2 (fun () -> Printf.sprintf "%h" (Prng.float rng 1.0)) in
  let bernoulli = draws 8 (fun () -> if Prng.bernoulli rng 0.5 then "1" else "0") in
  let child = Prng.split rng in
  let split = draws 2 (fun () -> Printf.sprintf "%Ld" (Prng.bits64 child)) in
  let twin = Prng.copy rng in
  let copy = Printf.sprintf "%Ld %Ld" (Prng.bits64 twin) (Prng.bits64 rng) in
  let exponential = Printf.sprintf "%h" (Prng.exponential rng ~mean:100.0) in
  let geometric = string_of_int (Prng.geometric rng ~p:0.3) in
  let arr = Array.init 10 Fun.id in
  Prng.shuffle rng arr;
  let shuffle = String.concat " " (Array.to_list (Array.map string_of_int arr)) in
  let sample =
    String.concat " " (List.map string_of_int (Prng.sample_without_replacement rng 4 20))
  in
  [
    ("bits64", bits64);
    ("int", int);
    ("float", float);
    ("bernoulli", bernoulli);
    ("split", split);
    ("copy", copy);
    ("exponential", exponential);
    ("geometric", geometric);
    ("shuffle", shuffle);
    ("sample", sample);
  ]

let pinned =
  [
    ( 0,
      [
        ("bits64", "-2152535657050944081 7960286522194355700 487617019471545679");
        ("int", "378732 94747 774186");
        ("float", "0x1.6414d5f0fa298p-3 0x1.8b082675922d5p-1");
        ("bernoulli", "1 0 1 0 0 0 0 0");
        ("split", "7266113453845220302 5930091704649712196");
        ("copy", "-4337222557917806714 -4337222557917806714");
        ("exponential", "0x1.6e72af91309ebp+4");
        ("geometric", "5");
        ("shuffle", "4 8 5 0 1 6 3 2 9 7");
        ("sample", "0 4 1 5");
      ] );
    ( 42,
      [
        ("bits64", "-4767286540954276203 2949826092126892291 5139283748462763858");
        ("int", "867860 963250 825350");
        ("float", "0x1.bf4b38e229bb4p-3 0x1.99ec6bdd3d3c5p-1");
        ("bernoulli", "1 0 1 1 0 0 0 1");
        ("split", "4108534368892151294 4166677098546370367");
        ("copy", "9140336935745592861 9140336935745592861");
        ("exponential", "0x1.39dec7161a5bcp+3");
        ("geometric", "3");
        ("shuffle", "9 7 6 8 1 2 3 5 4 0");
        ("sample", "13 5 9 8");
      ] );
    ( -1,
      [
        ("bits64", "-1956407806741107680 -1612297016619662647 4048727598324417001");
        ("int", "89938 58798 845363");
        ("float", "0x1.e29e59f004107p-1 0x1.017690e28e7ap-2");
        ("bernoulli", "0 1 1 0 1 0 1 0");
        ("split", "-2397529112756350234 4212120959269194867");
        ("copy", "3543018601992087762 3543018601992087762");
        ("exponential", "0x1.d764e4e185177p+3");
        ("geometric", "1");
        ("shuffle", "2 6 1 5 4 0 8 3 7 9");
        ("sample", "0 3 4 14");
      ] );
  ]

let test_pinned_stream () =
  List.iter
    (fun (seed, expected) ->
      List.iter2
        (fun (name, want) (_, got) -> check Alcotest.string (Printf.sprintf "seed %d %s" seed name) want got)
        expected (pinned_draws seed))
    pinned

(* Minor words per draw over 100,000 draws. Boxing the state would cost
   6 words per [int] and 8 per [float] or [bernoulli]. A draw that returns
   an [int] or a [bool] allocates nothing; [float] keeps the 2-word box of
   its result unless the caller inlines it, which the optimising (release)
   build does and the dev build's [-opaque] forbids. *)
let test_draws_do_not_allocate () =
  let rng = Prng.create ~seed:42 in
  let n = 100_000 in
  let per_draw name bound f =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    let w = (Gc.minor_words () -. before) /. float_of_int n in
    if w >= bound then Alcotest.failf "%s: %.2f minor words per draw" name w
  in
  let sink = ref 0 in
  per_draw "int" 1.0 (fun () -> sink := !sink + Prng.int rng 1000);
  per_draw "bernoulli" 1.0 (fun () -> if Prng.bernoulli rng 0.5 then incr sink);
  per_draw "float" 3.0 (fun () -> if Prng.float rng 1.0 < 0.5 then incr sink);
  check bool_c "draws consumed" true (!sink > 0)

let qcheck_geometric_total =
  QCheck.Test.make ~name:"geometric is total and non-negative for every p" ~count:500
    QCheck.(pair small_int float)
    (fun (seed, p) ->
      let rng = Prng.create ~seed in
      Prng.geometric rng ~p >= 0)

let qcheck_int_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let tests =
  [
    ( "prng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "different seeds" `Quick test_different_seeds;
        Alcotest.test_case "copy" `Quick test_copy;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "int range" `Quick test_int_range;
        Alcotest.test_case "int rejects non-positive" `Quick test_int_rejects_nonpositive;
        Alcotest.test_case "int_in" `Quick test_int_in;
        Alcotest.test_case "float range" `Quick test_float_range;
        Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        Alcotest.test_case "pick" `Quick test_pick;
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
        Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
        Alcotest.test_case "exponential mean" `Quick test_exponential;
        Alcotest.test_case "geometric" `Quick test_geometric;
        Alcotest.test_case "geometric edge cases" `Quick test_geometric_edge_cases;
        Alcotest.test_case "geometric consumes one draw" `Quick
          test_geometric_consumes_one_draw;
        Alcotest.test_case "pinned stream" `Quick test_pinned_stream;
        Alcotest.test_case "draws do not allocate" `Quick test_draws_do_not_allocate;
        QCheck_alcotest.to_alcotest qcheck_int_bounds;
        QCheck_alcotest.to_alcotest qcheck_geometric_total;
      ] );
  ]
