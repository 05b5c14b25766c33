(* Tests for decomposition, FlowMap and equivalence checking. *)

open Netlist

(* Random DAG generator for property tests: [n_inputs] inputs and
   [n_gates] gates with random truth tables over random earlier signals. *)
let random_network rng ~n_inputs ~n_gates =
  let net = Logic.create ~model:"rand" () in
  let pool = ref [] in
  for i = 0 to n_inputs - 1 do
    pool := Logic.add_input net (Printf.sprintf "i%d" i) :: !pool
  done;
  for g = 0 to n_gates - 1 do
    let arity = 1 + Util.Prng.int rng 3 in
    let pool_arr = Array.of_list !pool in
    let fanins = Array.init arity (fun _ -> Util.Prng.pick rng pool_arr) in
    (* distinct truth table bits; avoid triviality is not required *)
    let bits = Util.Prng.int rng (1 lsl (1 lsl arity)) in
    let id = Logic.add_gate net (Printf.sprintf "g%d" g) (Tt.create arity bits) fanins in
    pool := id :: !pool
  done;
  (* a few outputs *)
  let pool_arr = Array.of_list !pool in
  for _ = 0 to 2 do
    Logic.set_output net (Util.Prng.pick rng pool_arr)
  done;
  net

let prop_decompose_preserves =
  QCheck.Test.make ~count:40 ~name:"decompose2 preserves function"
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Util.Prng.create (seed + 1) in
      let net = random_network rng ~n_inputs:5 ~n_gates:15 in
      let reference = Logic.copy net in
      let two = Techmap.Decompose.decompose2 net in
      Techmap.Decompose.is_two_bounded two
      && Techmap.Simcheck.is_equivalent reference two)

let prop_flowmap_preserves =
  QCheck.Test.make ~count:40 ~name:"FlowMap preserves function"
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Util.Prng.create (seed + 101) in
      let net = random_network rng ~n_inputs:6 ~n_gates:20 in
      let reference = Logic.copy net in
      let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
      Techmap.Simcheck.is_equivalent reference mapped)

let prop_flowmap_k_bound =
  QCheck.Test.make ~count:40 ~name:"FlowMap respects the K bound"
    QCheck.(pair (int_bound 10000) (int_range 2 5))
    (fun (seed, k) ->
      let rng = Util.Prng.create (seed + 201) in
      let net = random_network rng ~n_inputs:6 ~n_gates:20 in
      let mapped, _ = Techmap.Mapper.map_network ~k ~verify:false net in
      List.for_all
        (fun g ->
          match Logic.driver mapped g with
          | Logic.Gate { fanins; _ } -> Array.length fanins <= k
          | _ -> true)
        (Logic.gates mapped))

let test_flowmap_depth_optimal_chain () =
  (* a chain of 8 two-input ANDs maps into ceil(7/3)+... at K=4 a chain of
     n 2-input gates has depth ceil(n / 3)?  Instead check against the
     reported bound: mapped depth equals the FlowMap label bound. *)
  let net = Logic.create () in
  let a = Logic.add_input net "a" in
  let prev = ref a in
  for i = 0 to 7 do
    let b = Logic.add_input net (Printf.sprintf "b%d" i) in
    prev := Logic.add_gate net (Printf.sprintf "g%d" i) (Tt.and_n 2) [| !prev; b |]
  done;
  Logic.set_output net !prev;
  let reference = Logic.copy net in
  let mapped, report = Techmap.Mapper.map_network ~k:4 net in
  Alcotest.(check int) "depth equals FlowMap bound"
    report.Techmap.Mapper.predicted_depth
    (Logic.depth mapped);
  (* 8 cascaded 2-input gates = a 9-input AND: needs depth >= 2 at K = 4
     and FlowMap must find depth exactly ceil over the optimal structure *)
  Alcotest.(check bool) "nontrivial depth" true (Logic.depth mapped >= 2);
  Alcotest.(check bool) "still equivalent" true
    (Techmap.Simcheck.is_equivalent reference mapped)

let test_flowmap_single_lut_fits () =
  (* any 4-input function must map to exactly one LUT *)
  let net = Logic.create () in
  let ins = Array.init 4 (fun i -> Logic.add_input net (Printf.sprintf "i%d" i)) in
  let x1 = Logic.add_gate net "x1" (Tt.xor_n 2) [| ins.(0); ins.(1) |] in
  let x2 = Logic.add_gate net "x2" (Tt.xor_n 2) [| ins.(2); ins.(3) |] in
  let o = Logic.add_gate net "o" (Tt.and_n 2) [| x1; x2 |] in
  Logic.set_output net o;
  let mapped, _ = Techmap.Mapper.map_network ~k:4 net in
  Alcotest.(check int) "one LUT" 1 (List.length (Logic.gates mapped));
  Alcotest.(check int) "depth one" 1 (Logic.depth mapped)

let test_simcheck_detects_difference () =
  let mk flip =
    let net = Logic.create () in
    let a = Logic.add_input net "a" in
    let b = Logic.add_input net "b" in
    let tt = if flip then Tt.or_n 2 else Tt.and_n 2 in
    let g = Logic.add_gate net "y" tt [| a; b |] in
    Logic.set_output net g;
    net
  in
  Alcotest.(check bool) "same equivalent" true
    (Techmap.Simcheck.is_equivalent (mk false) (mk false));
  Alcotest.(check bool) "different detected" false
    (Techmap.Simcheck.is_equivalent (mk false) (mk true))

let test_simcheck_sequential () =
  (* two counters with different initial values differ *)
  let mk init =
    let net = Logic.create () in
    let q = Logic.add_input net "q" in
    ignore q;
    let qid = Logic.find_exn net "q" in
    let d = Logic.add_gate net "d" Tt.inv [| qid |] in
    Logic.set_driver net qid (Logic.Latch { data = d; init });
    Logic.set_output net qid;
    net
  in
  Alcotest.(check bool) "same init" true
    (Techmap.Simcheck.is_equivalent (mk false) (mk false));
  Alcotest.(check bool) "different init detected" false
    (Techmap.Simcheck.is_equivalent (mk false) (mk true))

let test_mapper_reduces_suite () =
  (* mapping the synthesized suite always succeeds with verification on *)
  List.iter
    (fun (name, vhdl) ->
      let net = Synth.Diviner.synthesize vhdl in
      let mapped, report = Techmap.Mapper.map_network ~k:4 net in
      Alcotest.(check bool) (name ^ " mapped depth sane") true
        (Logic.depth mapped <= report.Techmap.Mapper.before.Logic.levels
         || report.Techmap.Mapper.before.Logic.levels = 0);
      ignore mapped)
    Core.Bench_circuits.quick_suite

(* FlowMap's min-cut tie-break.  v = NOT z, z = y AND q, y = NOT x,
   x = x1 AND c, x1 = a AND b, q = d AND e.  z gets label 2, so v's low
   cuts (labels below 2) of size two are {y, q} and {x, q}.  Max-flow
   FlowMap returns the min cut nearest the sources, {x, q}: fewer cone
   signals lie on its source side (y does not).  y is created before x,
   as a placeholder input rewired later, so {y, q} comes first in sorted
   order and a first-smallest-cut rule would pick it. *)
let test_flowmap_min_cut_tie_break () =
  let net = Logic.create () in
  let input name = Logic.add_input net name in
  let a = input "a" and b = input "b" and c = input "c" in
  let d = input "d" and e = input "e" in
  let and2 name x y = Logic.add_gate net name (Tt.and_n 2) [| x; y |] in
  let x1 = and2 "x1" a b in
  let y = input "y" in
  let x = and2 "x" x1 c in
  Logic.set_driver net y (Logic.Gate { tt = Tt.inv; fanins = [| x |] });
  let q = and2 "q" d e in
  let z = and2 "z" y q in
  let v = Logic.add_gate net "v" Tt.inv [| z |] in
  Logic.set_output net v;
  let reference = Logic.copy net in
  let mapped, depth = Techmap.Flowmap.map ~k:4 net in
  Alcotest.(check int) "three LUTs" 3 (List.length (Logic.gates mapped));
  Alcotest.(check int) "depth" 2 depth;
  Alcotest.(check (list string)) "LUT v reads x and q" [ "x"; "q" ]
    (List.map (Logic.name mapped)
       (Logic.fanins mapped (Logic.find_exn mapped "v")));
  Alcotest.(check bool) "equivalent" true
    (Techmap.Simcheck.is_equivalent reference mapped)

(* Techmap identity pin.  FlowMap's labelling was rewritten from a
   per-gate max-flow network to a sweep over enumerated cuts, which had
   to reproduce the old mapping bit for bit.  The values were recorded
   with the max-flow labelling: the MD5 of the mapped BLIF, the LUT count
   and the depth of the standalone DIVINER -> SIS chain. *)
let test_techmap_identity_pin () =
  List.iter
    (fun (name, vhdl, md5, luts, depth) ->
      let mapped, report =
        Techmap.Mapper.map_network ~k:4 (Synth.Diviner.synthesize vhdl)
      in
      Alcotest.(check string) (name ^ " BLIF MD5") md5
        (Digest.to_hex (Digest.string (Blif.to_string mapped)));
      Alcotest.(check int) (name ^ " LUTs") luts
        (List.length (Logic.gates mapped));
      Alcotest.(check int) (name ^ " depth") depth
        report.Techmap.Mapper.predicted_depth;
      Alcotest.(check int) (name ^ " mapped depth") depth (Logic.depth mapped))
    [
      ( "alu16", Core.Bench_circuits.alu 16,
        "8b2376269b753fbfd9ae1fd581fe3589", 144, 12 );
      ( "decoder4", Core.Bench_circuits.decoder 4,
        "d9196ccb1a123dc7459c7a6be00d6b7b", 16, 1 );
      ( "mult12", Core.Bench_circuits.multiplier 12,
        "723c4c9eb562005a31e33cea37bc55bb", 477, 28 );
      ( "alu32", Core.Bench_circuits.alu 32,
        "8c345e158201df89d31d2ca9c8e57e9f", 294, 23 );
    ]

(* FlowMap on dense networks.  Each network has 8 inputs and 108 gates,
   each gate a random AND, OR, XOR, NAND, NOR or XNOR of two distinct
   signals among the previous 8; the outputs are the last three signals.
   Such networks have few undominated 4-feasible cuts and very many
   dominated ones: keeping every cut took 14 s on seed 68, pruning the
   dominated ones takes a fraction of a second.  The values were recorded
   with every cut kept: the MD5 of the mapped BLIF, the LUT count and the
   depth bound.  Seed 68's outputs map to constants; seed 95's to LUTs. *)
let dense_network seed =
  let rng = Util.Prng.create seed in
  let net = Logic.create ~model:"dense" () in
  let ops =
    [| Tt.and_n 2; Tt.or_n 2; Tt.xor_n 2; Tt.nand_n 2; Tt.nor_n 2; Tt.xnor_n 2 |]
  in
  let sigs = Array.make 116 0 in
  for i = 0 to 7 do
    sigs.(i) <- Logic.add_input net (Printf.sprintf "i%d" i)
  done;
  for n = 8 to 115 do
    let op = ops.(Util.Prng.int rng 6) in
    let a = Util.Prng.int rng 8 in
    let rec other () =
      let b = Util.Prng.int rng 8 in
      if b = a then other () else b
    in
    let b = other () in
    sigs.(n) <-
      Logic.add_gate net (Printf.sprintf "g%d" (n - 8)) op
        [| sigs.(n - 8 + a); sigs.(n - 8 + b) |]
  done;
  List.iter (fun n -> Logic.set_output net sigs.(n)) [ 113; 114; 115 ];
  net

let test_flowmap_dense_pin () =
  List.iter
    (fun (seed, md5, luts, depth) ->
      let net = dense_network seed in
      let reference = Logic.copy net in
      let mapped, bound = Techmap.Flowmap.map ~k:4 net in
      let name = Printf.sprintf "seed %d" seed in
      Alcotest.(check string) (name ^ " BLIF MD5") md5
        (Digest.to_hex (Digest.string (Blif.to_string mapped)));
      Alcotest.(check int) (name ^ " LUTs") luts
        (List.length (Logic.gates mapped));
      Alcotest.(check int) (name ^ " depth") depth bound;
      Alcotest.(check bool) (name ^ " equivalent") true
        (Techmap.Simcheck.is_equivalent reference mapped))
    [
      (68, "9fb62f6e9dddf1dcf9e1dd1a202d1afb", 0, 2);
      (95, "c77fbbb1ec5367aa67ea09a890cb7b0f", 3, 2);
    ]

(* ---------- Quine-McCluskey ---------- *)

let tt_arb =
  QCheck.make
    ~print:(fun (n, bits) -> Printf.sprintf "Tt(%d, %x)" n bits)
    QCheck.Gen.(
      int_range 1 5 >>= fun n ->
      int_bound ((1 lsl (1 lsl n)) - 1) >>= fun bits -> return (n, bits))

let prop_qm_cover_exact =
  QCheck.Test.make ~count:300 ~name:"QM: min cover computes the function"
    tt_arb
    (fun (n, bits) ->
      let tt = Tt.create n bits in
      let cover = Qm.min_cover tt in
      Tt.equal tt (Qm.cover_function n cover))

let prop_qm_not_larger_than_greedy =
  QCheck.Test.make ~count:300 ~name:"QM: never larger than the greedy cover"
    tt_arb
    (fun (n, bits) ->
      let tt = Tt.create n bits in
      List.length (Qm.min_cover tt) <= List.length (Tt.to_cubes tt))

let prop_qm_primes_cover =
  QCheck.Test.make ~count:300 ~name:"QM: primes cover exactly the on-set"
    tt_arb
    (fun (n, bits) ->
      let tt = Tt.create n bits in
      let ps = Qm.primes tt in
      List.for_all
        (fun row ->
          Tt.eval tt row = List.exists (fun c -> Qm.cube_covers c row) ps)
        (List.init (1 lsl n) (fun r -> r)))

let test_qm_known_minimum () =
  (* f = a'b + ab' + ab = a + b: minimum cover has 2 cubes? a + b = 2 cubes *)
  let tt = Tt.or_n 2 in
  Alcotest.(check int) "a+b needs 2 cubes" 2
    (List.length (Qm.min_cover tt));
  (* 2-input xor is not mergeable: 2 minterm cubes *)
  Alcotest.(check int) "xor needs 2 cubes" 2
    (List.length (Qm.min_cover (Tt.xor_n 2)));
  (* 3-input majority: 3 cubes of 2 literals *)
  let maj =
    Tt.create 3 0b11101000
  in
  let cover = Qm.min_cover maj in
  Alcotest.(check int) "majority needs 3 cubes" 3 (List.length cover);
  Alcotest.(check int) "majority literal count" 6
    (Qm.literal_count cover)

let suite =
  [
    ("qm known minima", `Quick, test_qm_known_minimum);
    ("flowmap depth-optimal chain", `Quick, test_flowmap_depth_optimal_chain);
    ("flowmap single lut", `Quick, test_flowmap_single_lut_fits);
    ("simcheck detects difference", `Quick, test_simcheck_detects_difference);
    ("simcheck sequential", `Quick, test_simcheck_sequential);
    ("mapper on suite", `Quick, test_mapper_reduces_suite);
    ("flowmap min-cut tie-break", `Quick, test_flowmap_min_cut_tie_break);
    ("techmap identity pin", `Quick, test_techmap_identity_pin);
    ("flowmap dense network pin", `Quick, test_flowmap_dense_pin);
    QCheck_alcotest.to_alcotest prop_decompose_preserves;
    QCheck_alcotest.to_alcotest prop_flowmap_preserves;
    QCheck_alcotest.to_alcotest prop_flowmap_k_bound;
    QCheck_alcotest.to_alcotest prop_qm_cover_exact;
    QCheck_alcotest.to_alcotest prop_qm_not_larger_than_greedy;
    QCheck_alcotest.to_alcotest prop_qm_primes_cover;
  ]
