(* Cross-cutting property tests: random circuits pushed through the
   format round-trips and the flow's invariants. *)

open Netlist

(* Random sequential network generator (gates + latches). *)
let random_seq_network rng ~n_inputs ~n_gates ~n_latches =
  let net = Logic.create ~model:"prop" () in
  let pool = ref [] in
  for i = 0 to n_inputs - 1 do
    pool := Logic.add_input net (Printf.sprintf "pi%d" i) :: !pool
  done;
  (* latch placeholders first so gates can read registers *)
  let latch_ids =
    List.init n_latches (fun i -> Logic.add_input net (Printf.sprintf "r%d" i))
  in
  pool := latch_ids @ !pool;
  for g = 0 to n_gates - 1 do
    let arity = 1 + Util.Prng.int rng (min 4 (List.length !pool)) in
    let pool_arr = Array.of_list !pool in
    let fanins = Array.init arity (fun _ -> Util.Prng.pick rng pool_arr) in
    let bits = Util.Prng.int rng (1 lsl (1 lsl arity)) in
    let id =
      Logic.add_gate net (Printf.sprintf "g%d" g) (Tt.create arity bits) fanins
    in
    pool := id :: !pool
  done;
  let pool_arr = Array.of_list !pool in
  (* resolve latches: data from anywhere *)
  List.iter
    (fun l ->
      let data = Util.Prng.pick rng pool_arr in
      Logic.set_driver net l
        (Logic.Latch { data; init = Util.Prng.bool rng }))
    latch_ids;
  for _ = 0 to 3 do
    Logic.set_output net (Util.Prng.pick rng pool_arr)
  done;
  net

let seed_arb = QCheck.int_bound 100000

let prop_blif_roundtrip_random =
  QCheck.Test.make ~count:60 ~name:"BLIF round trip on random networks"
    seed_arb
    (fun seed ->
      let rng = Util.Prng.create (seed + 11) in
      let net = random_seq_network rng ~n_inputs:5 ~n_gates:12 ~n_latches:3 in
      let net2 = Blif.of_string (Blif.to_string net) in
      Techmap.Simcheck.is_equivalent net net2)

let prop_blif_double_roundtrip_stable =
  (* parsing assigns fresh ids in reference order, so statement order can
     permute across a trip; the CONTENT must be a fixed point *)
  QCheck.Test.make ~count:40
    ~name:"BLIF content is a fixed point after one trip" seed_arb
    (fun seed ->
      let rng = Util.Prng.create (seed + 23) in
      let net = random_seq_network rng ~n_inputs:4 ~n_gates:10 ~n_latches:2 in
      let canon text =
        String.split_on_char '\n' text |> List.sort compare
      in
      let once = Blif.to_string (Blif.of_string (Blif.to_string net)) in
      let twice = Blif.to_string (Blif.of_string once) in
      canon once = canon twice)

let prop_netfile_roundtrip_random =
  QCheck.Test.make ~count:40 ~name:"netfile round trip on random packings"
    seed_arb
    (fun seed ->
      let rng = Util.Prng.create (seed + 31) in
      let net = random_seq_network rng ~n_inputs:5 ~n_gates:15 ~n_latches:3 in
      let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
      let p = Pack.Cluster.pack ~n:5 ~i:12 mapped in
      let p2 = Pack.Netfile.of_string mapped (Pack.Netfile.to_string p) in
      Pack.Cluster.check p2
      && Pack.Cluster.ble_count p = Pack.Cluster.ble_count p2)

let prop_fabric_equivalent_random =
  QCheck.Test.make ~count:15 ~name:"fabric emulation equivalent on random circuits"
    seed_arb
    (fun seed ->
      let rng = Util.Prng.create (seed + 41) in
      let net = random_seq_network rng ~n_inputs:5 ~n_gates:15 ~n_latches:3 in
      let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
      let packing = Pack.Cluster.pack ~n:5 ~i:12 mapped in
      let problem = Place.Problem.build packing in
      let anneal =
        Place.Anneal.run
          ~options:{ Place.Anneal.seed = seed + 1; inner_num = 0.3 }
          problem
      in
      let routed =
        Route.Router.route_min_width Fpga_arch.Params.amdrel
          anneal.Place.Anneal.placement
      in
      let g = Bitstream.Dagger.generate routed in
      Bitstream.Dagger.verify routed g.Bitstream.Dagger.bytes
        = Bitstream.Dagger.Verified
      && Bitstream.Dagger.verify_functional routed g.Bitstream.Dagger.bytes)

let prop_anneal_cost_consistent =
  QCheck.Test.make ~count:20 ~name:"annealer incremental cost = full recount"
    seed_arb
    (fun seed ->
      let rng = Util.Prng.create (seed + 53) in
      let net = random_seq_network rng ~n_inputs:6 ~n_gates:20 ~n_latches:4 in
      let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
      let packing = Pack.Cluster.pack ~n:5 ~i:12 mapped in
      let problem = Place.Problem.build packing in
      let r =
        Place.Anneal.run
          ~options:{ Place.Anneal.seed = seed + 2; inner_num = 0.5 }
          problem
      in
      (* exact: the exit cost is resummed from per-net costs that are
         bit-identical to net_cost, in total_cost's summation order *)
      Place.Placement.legal r.Place.Anneal.placement
      && Place.Placement.total_cost r.Place.Anneal.placement
         = r.Place.Anneal.final_cost)

(* random mixed-length segment declarations at any Fc in (0, 1]: the
   file must carry every digit a value needs *)
let segments_gen =
  let fc = QCheck.Gen.(float_bound_exclusive 1.0 >|= fun x -> 1.0 -. x) in
  QCheck.Gen.(
    list_size (int_range 1 3)
      (map
         (fun (((count, length), (fc_in, fc_out)), metal) ->
           {
             Fpga_arch.Params.s_length = length;
             s_count = count;
             s_fc_in = fc_in;
             s_fc_out = fc_out;
             s_metal = metal;
           })
         (pair
            (pair
               (pair (int_range 1 3) (int_range 1 8))
               (pair fc fc))
            (oneofl
               [
                 Fpga_arch.Params.Metal_min_min;
                 Fpga_arch.Params.Metal_min_double;
                 Fpga_arch.Params.Metal_double_double;
               ]))))

let prop_archfile_roundtrip =
  QCheck.Test.make ~count:100 ~name:"architecture file round trip"
    QCheck.(
      triple
        (triple (int_range 2 5) (int_range 1 8) (int_range 1 3))
        (make segments_gen) (float_range 1.0 20.0))
    (fun ((k, n, io_rat), segments, switch_width) ->
      let p =
        {
          Fpga_arch.Params.amdrel with
          Fpga_arch.Params.k;
          n;
          i = max k (Fpga_arch.Params.recommended_inputs ~k ~n);
          segments;
          switch_width;
          io_rat;
        }
      in
      match Fpga_arch.Params.validate p with
      | p ->
          Fpga_arch.Archfile.of_string (Fpga_arch.Archfile.to_string p) = p
      | exception Fpga_arch.Params.Invalid_params _ -> true)

(* Mutants of a valid mixed-segment arch file, as a hostile client could
   send one: a truncation, or three bytes each XOR-ed with a non-zero
   mask.  The parser must answer with parameters or a typed error. *)
let archfile_mutant_arb =
  let text =
    Fpga_arch.Archfile.to_string
      (Fpga_arch.Params.validate
         {
           Fpga_arch.Params.amdrel with
           Fpga_arch.Params.segments =
             Fpga_arch.Params.segments_of_string "2xL1+1xL2+1xL4";
         })
  in
  let n = String.length text in
  let open QCheck.Gen in
  let truncation = int_bound (n - 1) >|= fun len -> String.sub text 0 len in
  let flips =
    list_repeat 3 (pair (int_bound (n - 1)) (int_range 1 255)) >|= fun fs ->
    let b = Bytes.of_string text in
    List.iter
      (fun (i, mask) ->
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
      fs;
    Bytes.to_string b
  in
  QCheck.make ~print:String.escaped (oneof [ truncation; flips ])

let prop_archfile_mutants_typed_errors =
  QCheck.Test.make ~count:2000
    ~name:"architecture file mutants: params or a typed error"
    archfile_mutant_arb
    (fun text ->
      match Fpga_arch.Archfile.of_string text with
      | _ -> true
      | exception
          (Fpga_arch.Archfile.Parse_error _ | Fpga_arch.Params.Invalid_params _)
        ->
          true)

(* Mutants of a real bitstream (counter8's) as a damaged file could
   reach the decoder: the body truncated, or three bytes of it each
   XOR-ed with a non-zero mask, then a fresh CRC appended so the decoder
   reads the damage instead of stopping at the checksum.  Half the flips
   land in the first 64 bytes, where the header's counts and array size
   live.  Each mutant is loaded into the fabric model, which must return
   a netlist or refuse the stream with a typed error. *)
let bitstream_mutant_arb =
  let body =
    lazy
      (let r =
         Core.Flow.run_vhdl
           ~config:
             {
               Core.Flow.default_config with
               Core.Flow.jobs = Some 1;
               verify_mapping = false;
             }
           (Core.Bench_circuits.counter 8)
       in
       let s = r.Core.Flow.bitstream.Bitstream.Dagger.bytes in
       String.sub s 0 (String.length s - 4))
  in
  let with_crc body =
    let crc = Int32.to_int (Bitstream.Crc.of_string body) land 0xFFFFFFFF in
    body ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xFF))
  in
  let mutant st =
    let open QCheck.Gen in
    let body = Lazy.force body in
    let n = String.length body in
    if bool st then with_crc (String.sub body 0 (int_bound (n - 1) st))
    else begin
      let b = Bytes.of_string body in
      for _ = 1 to 3 do
        let i = int_bound (if bool st then 63 else n - 1) st in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor int_range 1 255 st))
      done;
      with_crc (Bytes.to_string b)
    end
  in
  QCheck.make ~print:String.escaped mutant

let prop_bitstream_mutants_typed_errors =
  QCheck.Test.make ~count:2000
    ~name:"bitstream mutants: emulated or refused"
    bitstream_mutant_arb
    (fun data ->
      match Bitstream.Dagger.emulate Fpga_arch.Params.amdrel data with
      | _ -> true
      | exception
          (Bitstream.Frames.Corrupt _ | Bitstream.Fabric.Invalid_configuration _)
        ->
          true)

let prop_edif_sanitize_idempotent =
  QCheck.Test.make ~count:200 ~name:"EDIF identifier sanitisation idempotent"
    QCheck.(string_of_size (QCheck.Gen.int_range 1 20))
    (fun s ->
      let once = Edif.sanitize_ident s in
      Edif.sanitize_ident once = once)

let prop_qm_matches_greedy_function =
  QCheck.Test.make ~count:200 ~name:"QM and greedy covers compute the same function"
    QCheck.(pair (int_range 1 4) (int_bound 65535))
    (fun (n, bits) ->
      let tt = Tt.create n bits in
      Tt.equal (Qm.cover_function n (Qm.min_cover tt))
        (Tt.of_cubes n (Tt.to_cubes tt)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_blif_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_blif_double_roundtrip_stable;
    QCheck_alcotest.to_alcotest prop_netfile_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_fabric_equivalent_random;
    QCheck_alcotest.to_alcotest prop_anneal_cost_consistent;
    QCheck_alcotest.to_alcotest prop_archfile_roundtrip;
    QCheck_alcotest.to_alcotest prop_archfile_mutants_typed_errors;
    QCheck_alcotest.to_alcotest prop_bitstream_mutants_typed_errors;
    QCheck_alcotest.to_alcotest prop_edif_sanitize_idempotent;
    QCheck_alcotest.to_alcotest prop_qm_matches_greedy_function;
  ]
