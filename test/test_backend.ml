(* Tests for packing, architecture, placement, routing, power and the
   bitstream — the back half of the flow. *)

open Netlist

let mapped_of vhdl =
  let net = Synth.Diviner.synthesize vhdl in
  fst (Techmap.Mapper.map_network ~k:4 ~verify:false net)

let counter_mapped = lazy (mapped_of (Core.Bench_circuits.counter 8))
let alu_mapped = lazy (mapped_of (Core.Bench_circuits.alu 8))

(* ---------- T-VPack ---------- *)

let test_ble_formation_fuses () =
  let net = Lazy.force counter_mapped in
  let bles = Pack.Ble.form net in
  (* every latch fed by a single-fanout LUT fuses: LUT count + FF count
     >= BLE count, and every latch appears in exactly one BLE *)
  let ff_bles =
    Array.to_list bles |> List.filter (fun b -> Pack.Ble.uses_ff b)
  in
  Alcotest.(check int) "all FFs in BLEs"
    (List.length (Logic.latches net))
    (List.length ff_bles);
  (* fused BLEs use both halves *)
  Alcotest.(check bool) "some fused BLEs" true
    (List.exists (fun (b : Pack.Ble.t) -> b.Pack.Ble.lut <> None) ff_bles)

let test_pack_respects_limits () =
  List.iter
    (fun (name, vhdl) ->
      let net = mapped_of vhdl in
      List.iter
        (fun (n, i) ->
          let p = Pack.Cluster.pack ~n ~i net in
          Alcotest.(check bool)
            (Printf.sprintf "%s N=%d I=%d valid" name n i)
            true (Pack.Cluster.check p);
          Alcotest.(check int)
            (Printf.sprintf "%s BLEs preserved" name)
            (Array.length (Pack.Ble.form net))
            (Pack.Cluster.ble_count p))
        [ (5, 12); (2, 6); (8, 18); (1, 4) ])
    Core.Bench_circuits.quick_suite

let test_pack_infeasible_reported () =
  let net = Lazy.force alu_mapped in
  (* a 4-LUT may need 4 inputs; I = 3 cannot host it *)
  match Pack.Cluster.pack ~n:5 ~i:3 net with
  | exception Pack.Cluster.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_netfile_roundtrip () =
  let net = Lazy.force counter_mapped in
  let p = Pack.Cluster.pack ~n:5 ~i:12 net in
  let text = Pack.Netfile.to_string p in
  let p2 = Pack.Netfile.of_string net text in
  Alcotest.(check int) "cluster count"
    (Pack.Cluster.cluster_count p)
    (Pack.Cluster.cluster_count p2);
  Alcotest.(check int) "ble count"
    (Pack.Cluster.ble_count p)
    (Pack.Cluster.ble_count p2);
  Alcotest.(check bool) "valid" true (Pack.Cluster.check p2);
  (* cluster contents match (same BLE output signals per cluster) *)
  let signature p =
    Array.to_list p.Pack.Cluster.clusters
    |> List.map (fun (c : Pack.Cluster.t) ->
           List.map (fun (b : Pack.Ble.t) -> b.Pack.Ble.output) c.Pack.Cluster.bles
           |> List.sort compare)
  in
  Alcotest.(check (list (list int))) "contents" (signature p) (signature p2)

(* ---------- architecture ---------- *)

let test_params_rule () =
  Alcotest.(check int) "I=(K/2)(N+1)" 12
    (Fpga_arch.Params.recommended_inputs ~k:4 ~n:5);
  Alcotest.(check bool) "amdrel follows rule" true
    (Fpga_arch.Params.follows_input_rule Fpga_arch.Params.amdrel)

let test_params_validation () =
  let bad = { Fpga_arch.Params.amdrel with Fpga_arch.Params.k = 9 } in
  (match Fpga_arch.Params.validate bad with
  | exception Fpga_arch.Params.Invalid_params _ -> ()
  | _ -> Alcotest.fail "expected invalid params");
  (* non-finite numbers fail validation rather than the compile *)
  let a = Fpga_arch.Params.amdrel in
  List.iter
    (fun (name, p) ->
      match Fpga_arch.Params.validate p with
      | exception Fpga_arch.Params.Invalid_params _ -> ()
      | _ -> Alcotest.failf "%s accepted" name)
    [
      ( "fc_in nan",
        {
          a with
          Fpga_arch.Params.segments =
            Fpga_arch.Params.segments_of_string ~fc_in:Float.nan "L1";
        } );
      ( "fc_out nan",
        {
          a with
          Fpga_arch.Params.segments =
            Fpga_arch.Params.segments_of_string ~fc_out:Float.nan "L1";
        } );
      ("empty segment mix", { a with Fpga_arch.Params.segments = [] });
      ("switch_width nan", { a with Fpga_arch.Params.switch_width = Float.nan });
      ("switch_width inf", { a with Fpga_arch.Params.switch_width = Float.infinity });
    ]

let test_archfile_roundtrip () =
  let p =
    {
      Fpga_arch.Params.amdrel with
      Fpga_arch.Params.n = 4;
      i = 10;
      segments = Fpga_arch.Params.segments_of_string "L2";
      switch_width = 16.0;
    }
  in
  let p2 = Fpga_arch.Archfile.of_string (Fpga_arch.Archfile.to_string p) in
  Alcotest.(check bool) "round trip" true (p = p2);
  (* values six significant digits cannot carry *)
  let seg = List.hd Fpga_arch.Params.amdrel.Fpga_arch.Params.segments in
  List.iter
    (fun (what, p) ->
      Alcotest.(check bool) (what ^ " round trips") true
        (Fpga_arch.Archfile.of_string (Fpga_arch.Archfile.to_string p) = p))
    [
      ( "switch_width 10.123456789",
        { Fpga_arch.Params.amdrel with Fpga_arch.Params.switch_width = 10.123456789 } );
      ( "Fc 1/3",
        {
          Fpga_arch.Params.amdrel with
          Fpga_arch.Params.segments =
            [
              {
                seg with
                Fpga_arch.Params.s_fc_in = 1.0 /. 3.0;
                s_fc_out = 1.0 /. 3.0;
              };
            ];
        } );
    ]

let test_grid_sizing () =
  let g = Fpga_arch.Grid.size_for ~n_clbs:10 ~n_ios:20 ~io_rat:2 in
  Alcotest.(check bool) "fits clbs" true
    (Fpga_arch.Grid.n_clb_slots g >= 10);
  Alcotest.(check bool) "fits ios" true (Fpga_arch.Grid.n_pad_slots g >= 20);
  Alcotest.(check int) "pad positions distinct"
    (Fpga_arch.Grid.n_pad_slots g)
    (List.length
       (List.sort_uniq compare (Fpga_arch.Grid.pad_positions g)))

(* ---------- placement ---------- *)

let placed_counter =
  lazy
    (let net = Lazy.force counter_mapped in
     let p = Pack.Cluster.pack ~n:5 ~i:12 net in
     let problem = Place.Problem.build p in
     let r = Place.Anneal.run problem in
     (problem, r))

let test_placement_legal () =
  let _, r = Lazy.force placed_counter in
  Alcotest.(check bool) "legal" true (Place.Placement.legal r.Place.Anneal.placement)

let test_placement_improves () =
  let _, r = Lazy.force placed_counter in
  Alcotest.(check bool) "cost reduced" true
    (r.Place.Anneal.final_cost <= r.Place.Anneal.initial_cost);
  (* the exit cost is resummed from exact per-net costs in total_cost's
     order, so the match is bit-exact, not approximate *)
  Alcotest.(check (float 0.0)) "incremental cost consistent"
    (Place.Placement.total_cost r.Place.Anneal.placement)
    r.Place.Anneal.final_cost

let test_placement_deterministic () =
  let net = Lazy.force counter_mapped in
  let p = Pack.Cluster.pack ~n:5 ~i:12 net in
  let run () =
    let problem = Place.Problem.build p in
    (Place.Anneal.run ~options:{ Place.Anneal.seed = 42; inner_num = 1.0 }
       problem)
      .Place.Anneal.final_cost
  in
  Alcotest.(check (float 1e-9)) "same seed, same cost" (run ()) (run ())

(* A degenerate zero-cost placement (only self-nets, so every bounding
   box is a point) must still terminate: the exit threshold floors at a
   positive value instead of scaling a zero cost down to 0. *)
let test_zero_cost_terminates () =
  let net = Logic.create ~model:"zero" () in
  let packing =
    {
      Pack.Cluster.net;
      clusters = [||];
      n = 5;
      i = 12;
      cluster_of_ble = Hashtbl.create 1;
    }
  in
  let self b = { Place.Problem.signal = b; driver = b; sinks = [| b |] } in
  let problem =
    {
      Place.Problem.packing;
      blocks = [| Place.Problem.Input_pad 0; Place.Problem.Input_pad 1 |];
      nets = [| self 0; self 1 |];
      grid = Fpga_arch.Grid.size_for ~n_clbs:1 ~n_ios:2 ~io_rat:2;
    }
  in
  let r = Place.Anneal.run problem in
  Alcotest.(check (float 0.0)) "final cost exactly zero" 0.0
    r.Place.Anneal.final_cost;
  Alcotest.(check bool) "schedule actually ran" true (r.Place.Anneal.moves > 0);
  Alcotest.(check bool) "legal" true
    (Place.Placement.legal r.Place.Anneal.placement)

(* Incremental bounding boxes, maintained through a long random move
   sequence with the annealer's shift/settle discipline, must end
   bit-identical to from-scratch scans of the final placement. *)
let prop_bbox_incremental =
  QCheck.Test.make ~count:25
    ~name:"incremental bboxes = from-scratch scans after random moves"
    QCheck.(int_bound 100000)
    (fun seed ->
      let net = Lazy.force counter_mapped in
      let p = Pack.Cluster.pack ~n:5 ~i:12 net in
      let problem = Place.Problem.build p in
      let pl = Place.Placement.initial ~seed:(seed + 1) problem in
      let cache = Place.Placement.bbox_cache pl in
      let rng = Util.Prng.create (seed + 3) in
      let grid = problem.Place.Problem.grid in
      let n_blocks = Array.length problem.Place.Problem.blocks in
      let clb_slots = Array.of_list (Fpga_arch.Grid.clb_positions grid) in
      let pad_slots = Array.of_list (Fpga_arch.Grid.pad_positions grid) in
      let settled = Array.make (Array.length problem.Place.Problem.nets) false in
      for _ = 1 to 300 do
        let b = Util.Prng.int rng n_blocks in
        let target =
          match problem.Place.Problem.blocks.(b) with
          | Place.Problem.Cluster_block _ ->
              let x, y = Util.Prng.pick rng clb_slots in
              Fpga_arch.Grid.Clb (x, y)
          | Place.Problem.Input_pad _ | Place.Problem.Output_pad _ ->
              let x, y, s = Util.Prng.pick rng pad_slots in
              Fpga_arch.Grid.Pad (x, y, s)
        in
        if target <> pl.Place.Placement.loc.(b) then begin
          let before = Array.init n_blocks (Place.Placement.coords pl) in
          let (_undo : unit -> unit) = Place.Anneal.apply_move pl b target in
          let movers =
            List.filter
              (fun m -> Place.Placement.coords pl m <> before.(m))
              (List.init n_blocks Fun.id)
          in
          List.iter
            (fun m ->
              Array.iter
                (fun (ni, _) -> settled.(ni) <- false)
                cache.Place.Placement.touch.(m))
            movers;
          List.iter
            (fun m ->
              Array.iter
                (fun (ni, count) ->
                  if not settled.(ni) then
                    if
                      not
                        (Place.Placement.shift_box
                           cache.Place.Placement.boxes.(ni)
                           ~count ~src:before.(m)
                           ~dst:(Place.Placement.coords pl m))
                    then begin
                      Place.Placement.scan_box pl ni
                        cache.Place.Placement.boxes.(ni);
                      settled.(ni) <- true
                    end)
                cache.Place.Placement.touch.(m))
            movers
        end
      done;
      Array.for_all
        (fun ni ->
          Place.Placement.box_cost cache ni
          = Place.Placement.net_cost pl problem.Place.Problem.nets.(ni))
        (Array.init (Array.length problem.Place.Problem.nets) Fun.id))

let test_problem_excludes_clock () =
  let net = Lazy.force counter_mapped in
  let p = Pack.Cluster.pack ~n:5 ~i:12 net in
  let problem = Place.Problem.build p in
  let clk_sig = Logic.find_exn net "clk" in
  Alcotest.(check bool) "clock not routed" true
    (Array.for_all
       (fun (n : Place.Problem.net) -> n.Place.Problem.signal <> clk_sig)
       problem.Place.Problem.nets)

(* ---------- routing ---------- *)

let routed_counter =
  lazy
    (let _, r = Lazy.force placed_counter in
     Route.Router.route_min_width Fpga_arch.Params.amdrel
       r.Place.Anneal.placement)

let test_routing_no_overuse () =
  let routed = Lazy.force routed_counter in
  Alcotest.(check bool) "no overuse" true
    (Route.Pathfinder.no_overuse routed.Route.Router.result)

let test_routing_connects_all_nets () =
  let routed = Lazy.force routed_counter in
  let g = routed.Route.Router.graph in
  let terminals = Route.Router.net_terminals g routed.Route.Router.problem in
  Array.iteri
    (fun idx (spec : Route.Pathfinder.net_spec) ->
      let tr = routed.Route.Router.result.Route.Pathfinder.trees.(idx) in
      Alcotest.(check bool)
        (Printf.sprintf "net %d connected" idx)
        true
        (Route.Pathfinder.tree_connects ~source:spec.Route.Pathfinder.source
           ~sinks:spec.Route.Pathfinder.sinks tr))
    terminals

let test_min_width_is_minimal () =
  let routed = Lazy.force routed_counter in
  match routed.Route.Router.min_width with
  | None -> Alcotest.fail "expected a width search"
  | Some w ->
      Alcotest.(check bool) "positive" true (w >= 1);
      (* one below the minimum must fail (if > 1) *)
      if w > 1 then
        Alcotest.(check bool) "w-1 unroutable" true
          (Route.Router.try_width ~max_iterations:30 Fpga_arch.Params.amdrel
             routed.Route.Router.placement (w - 1)
          = None)

let test_timing_positive () =
  let routed = Lazy.force routed_counter in
  let st = Route.Router.stats routed in
  Alcotest.(check bool) "critical path positive" true
    (st.Route.Router.critical_path_s > 0.0);
  Alcotest.(check bool) "critical path sane" true
    (st.Route.Router.critical_path_s < 100e-9)

let test_rrgraph_capacities () =
  let routed = Lazy.force routed_counter in
  let g = routed.Route.Router.graph in
  Array.iter
    (fun (n : Route.Rrgraph.node) ->
      Alcotest.(check bool) "capacity positive" true (n.Route.Rrgraph.capacity >= 1))
    g.Route.Rrgraph.nodes

let test_segment_length_two_routes () =
  (* the same placement routes with length-2 segments *)
  let _, r = Lazy.force placed_counter in
  let params =
    Fpga_arch.Params.validate
      {
        Fpga_arch.Params.amdrel with
        Fpga_arch.Params.segments = Fpga_arch.Params.segments_of_string "L2";
      }
  in
  let routed = Route.Router.route_min_width params r.Place.Anneal.placement in
  Alcotest.(check bool) "routes" true
    (Route.Pathfinder.no_overuse routed.Route.Router.result)

(* ---------- power ---------- *)

let test_activity_bounds () =
  let net = Lazy.force counter_mapped in
  let act = Power.Activity.estimate ~cycles:128 net in
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "activity %d in range" i)
        true
        (a >= 0.0 && a <= 2.0))
    act.Power.Activity.activity;
  Array.iter
    (fun p ->
      Alcotest.(check bool) "probability in range" true (p >= 0.0 && p <= 1.0))
    act.Power.Activity.probability

let test_activity_counter_bit0 () =
  (* bit 0 of a free-running counter toggles every cycle: activity ~ 1;
     enable/reset are random-driven, so run with inputs forced *)
  let vhdl = Core.Bench_circuits.counter 4 in
  let net = mapped_of vhdl in
  (* tie en high, rst low by replacing the inputs with constants *)
  let en = Logic.find_exn net "en" in
  let rst = Logic.find_exn net "rst" in
  Logic.set_driver net en (Logic.Const true);
  Logic.set_driver net rst (Logic.Const false);
  let act = Power.Activity.estimate ~cycles:128 net in
  let q0 =
    match Logic.find_vector net "cnt" with
    | (0, id) :: _ -> id
    | _ -> Alcotest.fail "cnt[0] not found"
  in
  Alcotest.(check (float 0.05)) "bit0 toggles every cycle" 1.0
    act.Power.Activity.activity.(q0)

let test_power_positive_and_decomposed () =
  let routed = Lazy.force routed_counter in
  let report = Power.Model.estimate routed in
  Alcotest.(check bool) "dynamic > 0" true (report.Power.Model.dynamic_w > 0.0);
  Alcotest.(check bool) "clock > 0" true (report.Power.Model.clock_w > 0.0);
  Alcotest.(check bool) "leakage > 0" true (report.Power.Model.leakage_w > 0.0);
  Alcotest.(check (float 1e-9)) "total is the sum"
    (report.Power.Model.dynamic_w +. report.Power.Model.clock_w
    +. report.Power.Model.short_circuit_w +. report.Power.Model.leakage_w)
    report.Power.Model.total_w

let test_power_scales_with_frequency () =
  let routed = Lazy.force routed_counter in
  let at f =
    (Power.Model.estimate
       ~options:{ Power.Model.default_options with Power.Model.frequency = f }
       routed)
      .Power.Model.dynamic_w
  in
  Alcotest.(check (float 1e-9)) "linear in f" (2.0 *. at 50e6) (at 100e6)

let test_gated_clock_saves_power () =
  (* same design, gated clock on vs off: gated must not cost more when
     some flip-flops are idle; at minimum the model responds to the knob *)
  let _, r = Lazy.force placed_counter in
  let gated = Route.Router.route_min_width Fpga_arch.Params.amdrel r.Place.Anneal.placement in
  let ungated_params =
    { Fpga_arch.Params.amdrel with Fpga_arch.Params.gated_clock = false }
  in
  let ungated = Route.Router.route_min_width ungated_params r.Place.Anneal.placement in
  let pg = (Power.Model.estimate gated).Power.Model.clock_w in
  let pu = (Power.Model.estimate ungated).Power.Model.clock_w in
  Alcotest.(check bool) "clock power differs" true (pg <> pu)

(* ---------- bitstream ---------- *)

let test_bitstream_roundtrip () =
  let routed = Lazy.force routed_counter in
  let g = Bitstream.Dagger.generate routed in
  Alcotest.(check bool) "verified" true
    (Bitstream.Dagger.verify routed g.Bitstream.Dagger.bytes
    = Bitstream.Dagger.Verified)

let test_bitstream_detects_corruption () =
  let routed = Lazy.force routed_counter in
  let g = Bitstream.Dagger.generate routed in
  let bytes = Bytes.of_string g.Bitstream.Dagger.bytes in
  (* flip one bit in the middle *)
  let pos = Bytes.length bytes / 2 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  match Bitstream.Dagger.verify routed (Bytes.to_string bytes) with
  | Bitstream.Dagger.Corrupted _ -> ()
  | _ -> Alcotest.fail "corruption must be detected"

let test_bitstream_crc () =
  let a = Bitstream.Crc.of_string "hello world" in
  let b = Bitstream.Crc.of_string "hello world" in
  let c = Bitstream.Crc.of_string "hello worle" in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check bool) "sensitive" true (a <> c);
  (* known value: CRC32("123456789") = 0xCBF43926 *)
  Alcotest.(check int32) "known vector" 0xCBF43926l
    (Bitstream.Crc.of_string "123456789")

let test_bitstream_lut_bits_nonempty () =
  let routed = Lazy.force routed_counter in
  let cfg = Bitstream.Layout.extract routed in
  Alcotest.(check bool) "some LUT bits set" true
    (List.exists
       (fun (clb : Bitstream.Layout.clb_config) ->
         Array.exists
           (fun (b : Bitstream.Layout.ble_config) -> b.Bitstream.Layout.lut_bits <> 0)
           clb.Bitstream.Layout.bles)
       cfg.Bitstream.Layout.clbs)

let test_static_activity_gate_laws () =
  (* exact probabilities for simple gates under independent inputs *)
  let p = [| 0.5; 0.5 |] in
  Alcotest.(check (float 1e-9)) "AND" 0.25
    (Power.Activity.tt_probability (Tt.and_n 2) p);
  Alcotest.(check (float 1e-9)) "OR" 0.75
    (Power.Activity.tt_probability (Tt.or_n 2) p);
  Alcotest.(check (float 1e-9)) "XOR" 0.5
    (Power.Activity.tt_probability (Tt.xor_n 2) p);
  (* XOR is always sensitive to each input *)
  Alcotest.(check (float 1e-9)) "XOR sensitivity" 1.0
    (Power.Activity.boolean_difference (Tt.xor_n 2) 0 p);
  (* AND is sensitive to input 0 only when input 1 is high *)
  Alcotest.(check (float 1e-9)) "AND sensitivity" 0.5
    (Power.Activity.boolean_difference (Tt.and_n 2) 0 p)

let test_static_activity_close_to_simulation () =
  (* the two modes must broadly agree on a combinational circuit *)
  let net = mapped_of (Core.Bench_circuits.parity 16) in
  let sim = Power.Activity.estimate ~cycles:2048 net in
  let ana = Power.Activity.estimate_static net in
  List.iter
    (fun o ->
      let s = sim.Power.Activity.activity.(o) in
      let a = ana.Power.Activity.activity.(o) in
      Alcotest.(check bool)
        (Printf.sprintf "parity output activity sim=%.2f ana=%.2f" s a)
        true
        (Float.abs (s -. a) < 0.2))
    (Logic.outputs net)

let test_power_analytic_mode () =
  let routed = Lazy.force routed_counter in
  let options =
    { Power.Model.default_options with
      Power.Model.activity_mode = Power.Model.Analytic }
  in
  let r = Power.Model.estimate ~options routed in
  let s = Power.Model.estimate routed in
  Alcotest.(check bool) "analytic positive" true (r.Power.Model.total_w > 0.0);
  (* same order of magnitude as the simulated estimate *)
  Alcotest.(check bool) "modes agree within 3x" true
    (r.Power.Model.total_w < 3.0 *. s.Power.Model.total_w
    && s.Power.Model.total_w < 3.0 *. r.Power.Model.total_w)

let test_timing_monotone_in_distance () =
  (* the Elmore model: a longer pass-transistor chain is slower *)
  let params = Fpga_arch.Params.amdrel in
  let c = Route.Timing.default_constants params in
  Alcotest.(check bool) "switch R positive" true (c.Route.Timing.r_switch > 0.0);
  Alcotest.(check bool) "wire RC positive, one entry per segment type" true
    (Array.length c.Route.Timing.seg_r_tile = 1
    && Route.Timing.wire_r c 0 > 0.0
    && Route.Timing.wire_c c 0 > 0.0);
  (* wider switches are less resistive *)
  let r10 = Route.Timing.pass_resistance Spice.Tech.stm018 10.0 in
  let r20 = Route.Timing.pass_resistance Spice.Tech.stm018 20.0 in
  Alcotest.(check (float 1.0)) "R scales inversely" (r10 /. 2.0) r20

let test_clb_config_bits_formula () =
  (* K=4 N=5 I=12: 5*(16+2) + 5*4*ceil(log2 18) = 90 + 100 = 190 *)
  Alcotest.(check int) "amdrel CLB bits" 190
    (Fpga_arch.Params.clb_config_bits Fpga_arch.Params.amdrel)

let test_pad_tt_dont_care () =
  (* padding replicates over unused inputs: eval must not depend on them *)
  let tt = Tt.xor_n 2 in
  let bits = Bitstream.Layout.pad_tt tt 4 in
  for row = 0 to 15 do
    let expect = Tt.eval tt (row land 3) in
    Alcotest.(check bool) "padded eval" expect ((bits lsr row) land 1 = 1)
  done

let test_route_min_width_deterministic () =
  let routed1 = Lazy.force routed_counter in
  let _, r = Lazy.force placed_counter in
  let routed2 =
    Route.Router.route_min_width Fpga_arch.Params.amdrel
      r.Place.Anneal.placement
  in
  Alcotest.(check (option int)) "same Wmin"
    routed1.Route.Router.min_width routed2.Route.Router.min_width

(* ---------- fabric emulation ---------- *)

let test_fabric_equivalence () =
  let routed = Lazy.force routed_counter in
  let g = Bitstream.Dagger.generate routed in
  Alcotest.(check bool) "fabric equivalent" true
    (Bitstream.Dagger.verify_functional routed g.Bitstream.Dagger.bytes)

let test_fabric_detects_lut_tampering () =
  let routed = Lazy.force routed_counter in
  let params = routed.Route.Router.graph.Route.Rrgraph.params in
  let cfg = Bitstream.Layout.extract routed in
  (* flip one LUT bit in a used BLE *)
  let tampered =
    {
      cfg with
      Bitstream.Layout.clbs =
        (match cfg.Bitstream.Layout.clbs with
        | first :: rest ->
            let bles =
              Array.map
                (fun (b : Bitstream.Layout.ble_config) ->
                  if b.Bitstream.Layout.lut_bits <> 0 then
                    { b with Bitstream.Layout.lut_bits =
                        b.Bitstream.Layout.lut_bits lxor 1 }
                  else b)
                first.Bitstream.Layout.bles
            in
            { first with Bitstream.Layout.bles } :: rest
        | [] -> []);
    }
  in
  let bytes = Bitstream.Frames.encode params tampered in
  let reference =
    routed.Route.Router.problem.Place.Problem.packing.Pack.Cluster.net
  in
  Alcotest.(check bool) "tampered LUT caught" false
    (Bitstream.Fabric.functionally_equivalent params ~reference bytes)

let test_fabric_netlist_structure () =
  let routed = Lazy.force routed_counter in
  let g = Bitstream.Dagger.generate routed in
  let params = routed.Route.Router.graph.Route.Rrgraph.params in
  let fabric = Bitstream.Dagger.emulate params g.Bitstream.Dagger.bytes in
  let reference =
    routed.Route.Router.problem.Place.Problem.packing.Pack.Cluster.net
  in
  (* the fabric netlist has the same interface and at least as many
     registers (every reference latch occupies a BLE flip-flop) *)
  Alcotest.(check int) "same outputs"
    (List.length (Logic.outputs reference))
    (List.length (Logic.outputs fabric));
  Alcotest.(check bool) "registers preserved" true
    (List.length (Logic.latches fabric)
    >= List.length (Logic.latches reference))

let suite =
  [
    ("ble formation", `Quick, test_ble_formation_fuses);
    ("pack respects limits", `Quick, test_pack_respects_limits);
    ("pack infeasible", `Quick, test_pack_infeasible_reported);
    ("netfile roundtrip", `Quick, test_netfile_roundtrip);
    ("params rule", `Quick, test_params_rule);
    ("params validation", `Quick, test_params_validation);
    ("archfile roundtrip", `Quick, test_archfile_roundtrip);
    ("grid sizing", `Quick, test_grid_sizing);
    ("placement legal", `Quick, test_placement_legal);
    ("placement improves", `Quick, test_placement_improves);
    ("placement deterministic", `Quick, test_placement_deterministic);
    ("zero-cost placement terminates", `Quick, test_zero_cost_terminates);
    QCheck_alcotest.to_alcotest prop_bbox_incremental;
    ("clock excluded from routing", `Quick, test_problem_excludes_clock);
    ("routing no overuse", `Quick, test_routing_no_overuse);
    ("routing connects all nets", `Quick, test_routing_connects_all_nets);
    ("minimum width is minimal", `Quick, test_min_width_is_minimal);
    ("timing positive", `Quick, test_timing_positive);
    ("rrgraph capacities", `Quick, test_rrgraph_capacities);
    ("segment length 2 routes", `Quick, test_segment_length_two_routes);
    ("activity bounds", `Quick, test_activity_bounds);
    ("activity counter bit0", `Quick, test_activity_counter_bit0);
    ("power decomposition", `Quick, test_power_positive_and_decomposed);
    ("power scales with frequency", `Quick, test_power_scales_with_frequency);
    ("gated clock knob", `Quick, test_gated_clock_saves_power);
    ("bitstream roundtrip", `Quick, test_bitstream_roundtrip);
    ("bitstream corruption detected", `Quick, test_bitstream_detects_corruption);
    ("bitstream crc", `Quick, test_bitstream_crc);
    ("bitstream lut bits", `Quick, test_bitstream_lut_bits_nonempty);
    ("static activity gate laws", `Quick, test_static_activity_gate_laws);
    ("static vs simulated activity", `Quick, test_static_activity_close_to_simulation);
    ("power analytic mode", `Quick, test_power_analytic_mode);
    ("timing constants sane", `Quick, test_timing_monotone_in_distance);
    ("clb config bits formula", `Quick, test_clb_config_bits_formula);
    ("lut padding don't-care", `Quick, test_pad_tt_dont_care);
    ("min width deterministic", `Quick, test_route_min_width_deterministic);
    ("fabric equivalence", `Quick, test_fabric_equivalence);
    ("fabric detects lut tampering", `Quick, test_fabric_detects_lut_tampering);
    ("fabric netlist structure", `Quick, test_fabric_netlist_structure);
  ]
