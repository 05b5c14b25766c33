(* Integration tests: the complete VHDL-to-bitstream flow. *)

module R = Obs.Registry

let test_flow_counter () =
  let r = Core.Flow.run_vhdl (Core.Bench_circuits.counter 8) in
  Alcotest.(check bool) "bitstream verified" true r.Core.Flow.bitstream_verified;
  Alcotest.(check bool) "has clusters" true (r.Core.Flow.n_clusters > 0);
  Alcotest.(check bool) "power positive" true
    (r.Core.Flow.power.Power.Model.total_w > 0.0);
  Alcotest.(check bool) "all stages timed" true
    (List.length
       (List.filter
          (fun (e : R.entry) ->
            match e.R.value with R.Timer _ -> true | _ -> false)
          r.Core.Flow.metrics)
    >= 10);
  let wall, cpu = Core.Flow.stage_time r.Core.Flow.metrics in
  Alcotest.(check bool) "parallel.speedup is the stage time's cpu/wall" true
    (R.find r.Core.Flow.metrics "parallel.speedup" = Some (R.Gauge (cpu /. wall)))

let test_flow_whole_suite () =
  List.iter
    (fun (name, vhdl) ->
      match Core.Flow.run_vhdl vhdl with
      | r ->
          Alcotest.(check bool) (name ^ " verified") true
            r.Core.Flow.bitstream_verified
      | exception Core.Flow.Flow_error (stage, e) ->
          Alcotest.failf "%s failed at %s: %s" name stage (Printexc.to_string e))
    Core.Bench_circuits.suite

let test_flow_mapped_matches_source () =
  (* the mapped netlist at the end of the front end still behaves like the
     original VHDL: synthesize twice, once straight and once via the flow *)
  let vhdl = Core.Bench_circuits.gray_counter 8 in
  let direct = Synth.Diviner.synthesize vhdl in
  (* the flow's DRUID stage sanitises names (g[0] -> g_0_), so compare the
     reference under the same renaming *)
  let sanitized = Netlist.Edif.to_logic (Netlist.Edif.of_logic direct) in
  let r = Core.Flow.run_vhdl vhdl in
  Alcotest.(check bool) "flow result equivalent to direct synthesis" true
    (Techmap.Simcheck.is_equivalent sanitized r.Core.Flow.mapped)

let test_flow_error_reporting () =
  match Core.Flow.run_vhdl "entity broken" with
  | exception Core.Flow.Flow_error ("synth", _) -> ()
  | exception e -> Alcotest.failf "wrong error: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected a parse failure"

let test_flow_nondefault_architecture () =
  let params =
    Fpga_arch.Params.validate
      {
        Fpga_arch.Params.amdrel with
        Fpga_arch.Params.n = 4;
        i = Fpga_arch.Params.recommended_inputs ~k:4 ~n:4;
        segments = Fpga_arch.Params.segments_of_string "L2";
      }
  in
  let config = { Core.Flow.default_config with Core.Flow.params } in
  let r = Core.Flow.run_vhdl ~config (Core.Bench_circuits.lfsr 12) in
  Alcotest.(check bool) "verified on N=4/seg2" true r.Core.Flow.bitstream_verified

let test_flow_timing_driven () =
  let config = { Core.Flow.default_config with Core.Flow.timing_driven = true } in
  let r = Core.Flow.run_vhdl ~config (Core.Bench_circuits.alu 8) in
  Alcotest.(check bool) "td flow verified" true
    (r.Core.Flow.bitstream_verified && r.Core.Flow.fabric_verified)

let test_td_criticalities_bounded () =
  let net = Synth.Diviner.synthesize (Core.Bench_circuits.accumulator 12) in
  let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
  let packing = Pack.Cluster.pack ~n:5 ~i:12 mapped in
  let problem = Place.Problem.build packing in
  let pl = Place.Placement.initial problem in
  let graph = Sta.Graph.build problem in
  let a =
    Sta.Analysis.to_td
      (Sta.Analysis.run graph
         (Sta.Delays.of_placement problem
            ~coords:(Place.Placement.coords pl)))
  in
  Alcotest.(check bool) "dmax positive" true (a.Place.Td_timing.dmax > 0.0);
  Array.iter
    (Array.iter (fun c ->
         Alcotest.(check bool) "crit in [0,1]" true (c >= 0.0 && c <= 1.0)))
    a.Place.Td_timing.criticality;
  (* at least one connection is fully critical *)
  Alcotest.(check bool) "a critical connection exists" true
    (Array.exists (Array.exists (fun c -> c > 0.9)) a.Place.Td_timing.criticality)

let test_td_placement_reports_dmax () =
  let net = Synth.Diviner.synthesize (Core.Bench_circuits.counter 8) in
  let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
  let packing = Pack.Cluster.pack ~n:5 ~i:12 mapped in
  (* the flow's place stage: the annealer's timing hook is the unified
     STA on a shared graph, adapted to the Td record *)
  let r =
    Core.Flow.place
      { Core.Flow.default_config with Core.Flow.timing_driven = true }
      (Obs.Registry.create ()) packing
  in
  (match r.Place.Anneal.estimated_dmax with
  | Some d -> Alcotest.(check bool) "dmax sane" true (d > 0.0 && d < 100e-9)
  | None -> Alcotest.fail "expected a dmax estimate");
  Alcotest.(check bool) "still legal" true
    (Place.Placement.legal r.Place.Anneal.placement)

let test_flow_deterministic () =
  let run () = Core.Flow.run_vhdl (Core.Bench_circuits.counter 8) in
  let a = run () and b = run () in
  Alcotest.(check string) "same bitstream" a.Core.Flow.bitstream.Bitstream.Dagger.bytes
    b.Core.Flow.bitstream.Bitstream.Dagger.bytes

(* The whole flow at jobs=1 and jobs=4 (with multi-start placement, so
   every parallel site is exercised) must agree byte for byte: same
   minimum width, same placement cost, same bitstream. *)
let test_flow_jobs_deterministic () =
  let run jobs =
    Core.Flow.run_vhdl
      ~config:
        { Core.Flow.default_config with Core.Flow.jobs = Some jobs;
          place_starts = 3; timing_driven = true }
      (Core.Bench_circuits.counter 8)
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check (option int)) "same min width"
    a.Core.Flow.route_stats.Route.Router.minimum_width
    b.Core.Flow.route_stats.Route.Router.minimum_width;
  Alcotest.(check (float 0.0)) "same placement cost"
    a.Core.Flow.placement_cost b.Core.Flow.placement_cost;
  Alcotest.(check string) "same bitstream"
    a.Core.Flow.bitstream.Bitstream.Dagger.bytes
    b.Core.Flow.bitstream.Bitstream.Dagger.bytes;
  (* every start's moves, whichever domain ran them *)
  Alcotest.(check int) "same place.moves-evaluated"
    (R.counter a.Core.Flow.metrics "place.moves-evaluated")
    (R.counter b.Core.Flow.metrics "place.moves-evaluated");
  Alcotest.(check bool) "evaluated moves cover the winner's" true
    (R.counter a.Core.Flow.metrics "place.moves-evaluated"
    > R.counter a.Core.Flow.metrics "place.moves");
  (* the observability surface carries the pool metrics *)
  Alcotest.(check bool) "parallel.jobs recorded" true
    (R.find a.Core.Flow.metrics "parallel.jobs" <> None
    && R.find a.Core.Flow.metrics "parallel.speedup" <> None);
  Alcotest.(check bool) "parallel.jobs value" true
    (R.find b.Core.Flow.metrics "parallel.jobs" = Some (R.Gauge 4.0))

(* Intra-route parallelism end to end on the larger circuits: the whole
   flow (min-width search, routing, bitstream) must agree byte for byte
   between jobs=1 and jobs=4, and the route.par.* counters must ride in
   the observability surface. *)
let flow_intra_route_jobs_identical vhdl () =
  let run jobs =
    Core.Flow.run_vhdl
      ~config:{ Core.Flow.default_config with Core.Flow.jobs = Some jobs }
      vhdl
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check (option int)) "same min width"
    a.Core.Flow.route_stats.Route.Router.minimum_width
    b.Core.Flow.route_stats.Route.Router.minimum_width;
  Alcotest.(check bool) "identical route trees" true
    (a.Core.Flow.routed.Route.Router.result.Route.Pathfinder.trees
    = b.Core.Flow.routed.Route.Router.result.Route.Pathfinder.trees);
  Alcotest.(check string) "same bitstream"
    a.Core.Flow.bitstream.Bitstream.Dagger.bytes
    b.Core.Flow.bitstream.Bitstream.Dagger.bytes;
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " recorded") true
        (R.find a.Core.Flow.metrics c <> None))
    [ "route.par.batches"; "route.par.batch-max"; "route.par.serial-frac" ];
  Alcotest.(check bool) "batches counted" true
    (R.counter a.Core.Flow.metrics "route.par.batches" >= 1);
  Alcotest.(check int) "same batch count"
    (R.counter a.Core.Flow.metrics "route.par.batches")
    (R.counter b.Core.Flow.metrics "route.par.batches")

(* The annealer's incremental STA is a speed switch: with it on and off,
   timing-driven flows must agree on the bitstream, the timing report
   and every deterministic metric except the incremental chain's own
   work counters, sta.incr.*, and the sta.level-nodes histogram, which
   count analyses the full-refresh path runs differently. *)
let test_flow_incremental_sta_equivalence () =
  let run incremental_sta vhdl =
    Core.Flow.run_vhdl
      ~config:
        { Core.Flow.default_config with Core.Flow.timing_driven = true;
          jobs = Some 1; incremental_sta }
      vhdl
  in
  let deterministic (r : Core.Flow.result) =
    Obs.Emit.to_string
      (R.to_json ~deterministic:true
         (List.filter
            (fun (e : R.entry) ->
              not
                (String.starts_with ~prefix:"sta.incr." e.R.key
                || e.R.key = "sta.level-nodes"))
            r.Core.Flow.metrics))
  in
  List.iter
    (fun (name, vhdl) ->
      let a = run true vhdl and b = run false vhdl in
      Alcotest.(check string) (name ^ " same bitstream")
        a.Core.Flow.bitstream.Bitstream.Dagger.bytes
        b.Core.Flow.bitstream.Bitstream.Dagger.bytes;
      Alcotest.(check string) (name ^ " same timing report")
        (Core.Flow.timing_report_json a)
        (Core.Flow.timing_report_json b);
      Alcotest.(check string) (name ^ " same deterministic metrics")
        (deterministic a) (deterministic b))
    [
      ("counter8", Core.Bench_circuits.counter 8);
      ("lfsr12", Core.Bench_circuits.lfsr 12);
      ("alu8", Core.Bench_circuits.alu 8);
    ]

(* The flow places on the fabric's own pads per perimeter position,
   the count DAGGER's fabric check sizes the array by.  These designs
   are pad-limited, so at [params.io_rat] 4 their array is smaller than
   the default config's [io_rat] 2 would make it. *)
let test_flow_params_io_rat () =
  let params = { Fpga_arch.Params.amdrel with Fpga_arch.Params.io_rat = 4 } in
  let config = { Core.Flow.default_config with Core.Flow.params } in
  List.iter
    (fun name ->
      let r =
        Core.Flow.run_vhdl ~config (List.assoc name Core.Bench_circuits.suite)
      in
      Alcotest.(check bool) (name ^ " verified and emulated") true
        (r.Core.Flow.bitstream_verified && r.Core.Flow.fabric_verified))
    [ "parity16"; "decoder4"; "gen_adder8" ]

(* Every named design by its family generator: the suite (perfbench
   reads its names and VHDL), the stress designs, and sizes only
   [find] reaches. *)
let catalog_designs =
  let open Core.Bench_circuits in
  [
    ("counter8", counter 8);
    ("counter16", counter 16);
    ("shiftreg16", shift_register 16);
    ("lfsr12", lfsr 12);
    ("alu8", alu 8);
    ("parity16", parity 16);
    ("decoder4", decoder 4);
    ("prienc8", priority_encoder 8);
    ("mult4", multiplier 4);
    ("gray8", gray_counter 8);
    ("traffic", traffic_fsm);
    ("accum12", accumulator 12);
    ("datapath8", datapath 8);
    ("pwm8", pwm 8);
    ("gen_adder8", gen_adder 8);
    ("alu16", alu 16);
    ("mult8", multiplier 8);
    ("counter32", counter 32);
    ("accum24", accumulator 24);
    ("mult12", multiplier 12);
    ("alu32", alu 32);
    ("mult16", multiplier 16);
    ("mult24", multiplier 24);
  ]

let top_entity vhdl =
  (Netlist.Vhdl_parser.of_string vhdl).Netlist.Vhdl_ast.entity
    .Netlist.Vhdl_ast.entity_name

let test_catalog_names () =
  let module B = Core.Bench_circuits in
  let names = List.map fst in
  Alcotest.(check (list string)) "suite"
    (List.filteri (fun i _ -> i < 15) (names catalog_designs))
    (names B.suite);
  Alcotest.(check (list string)) "quick suite"
    [ "counter8"; "parity16"; "traffic" ] (names B.quick_suite);
  Alcotest.(check (list string)) "stress"
    [ "alu16"; "mult8"; "counter32"; "accum24"; "mult12" ] (names B.stress);
  List.iter
    (fun (name, vhdl) ->
      Alcotest.(check string) (name ^ " listed VHDL")
        (List.assoc name catalog_designs) vhdl)
    (B.suite @ B.quick_suite @ B.stress);
  List.iter
    (fun (name, vhdl) ->
      Alcotest.(check (option string)) (name ^ " found") (Some vhdl)
        (B.find name);
      Alcotest.(check string) (name ^ " top entity") name (top_entity vhdl))
    catalog_designs;
  (* each family's smallest and largest size *)
  List.iter
    (fun (family, largest) ->
      List.iter
        (fun n ->
          let name = family ^ string_of_int n in
          match B.find name with
          | Some vhdl ->
              Alcotest.(check string) (name ^ " top entity") name
                (top_entity vhdl)
          | None -> Alcotest.failf "%s not found" name)
        [ 2; largest ])
    [
      ("counter", 64); ("shiftreg", 64); ("lfsr", 64); ("alu", 64);
      ("parity", 64); ("decoder", 8); ("prienc", 64); ("mult", 64);
      ("gray", 64); ("accum", 64); ("pwm", 64); ("datapath", 64);
      ("gen_adder", 64);
    ];
  (* an unknown family, a missing, non-canonical or out-of-range size;
     the decoder stops at 8, since its VHDL grows as 4^n *)
  List.iter
    (fun name ->
      Alcotest.(check (option string)) (name ^ " unknown") None (B.find name))
    [
      "foo8"; "mult"; "mult012"; "mult+12"; "mult0"; "mult1"; "mult65";
      "decoder9"; "decoder40"; "traffic8"; "";
    ]

(* The one multi-design runner skips a design that fails and keeps the
   others in order. *)
let test_run_suite_skips_failures () =
  let named name = (name, List.assoc name Core.Bench_circuits.suite) in
  Alcotest.(check (list string)) "the designs that compile, in order"
    [ "counter8"; "parity16" ]
    (List.map
       (fun r -> r.Core.Flow.design)
       (Core.Explore.run_suite
          [ named "counter8"; ("broken", "entity broken"); named "parity16" ]))

let test_timing_driven_comparison () =
  Alcotest.(check (list string)) "one point per circuit"
    [ "counter8"; "parity16"; "traffic" ]
    (List.map
       (fun p -> p.Core.Explore.circuit)
       (Core.Explore.timing_driven_comparison
          ~circuits:Core.Bench_circuits.quick_suite ()))

let suite =
  [
    ("flow counter", `Quick, test_flow_counter);
    ("flow whole suite", `Slow, test_flow_whole_suite);
    ("flow equivalence", `Quick, test_flow_mapped_matches_source);
    ("flow error reporting", `Quick, test_flow_error_reporting);
    ("flow non-default architecture", `Quick, test_flow_nondefault_architecture);
    ("flow timing-driven", `Quick, test_flow_timing_driven);
    ("td criticalities bounded", `Quick, test_td_criticalities_bounded);
    ("td placement reports dmax", `Quick, test_td_placement_reports_dmax);
    ("flow deterministic", `Quick, test_flow_deterministic);
    ("flow jobs-deterministic", `Quick, test_flow_jobs_deterministic);
    ( "flow incremental STA equivalence",
      `Quick,
      test_flow_incremental_sta_equivalence );
    ( "flow intra-route jobs identical (mult12)",
      `Slow,
      flow_intra_route_jobs_identical (Core.Bench_circuits.multiplier 12) );
    ( "flow intra-route jobs identical (alu16)",
      `Slow,
      flow_intra_route_jobs_identical (Core.Bench_circuits.alu 16) );
    ("flow places at params.io_rat", `Quick, test_flow_params_io_rat);
    ("catalog names every design once", `Quick, test_catalog_names);
    ("run_suite skips failures in order", `Quick, test_run_suite_skips_failures);
    ( "timing-driven comparison over the quick suite",
      `Quick,
      test_timing_driven_comparison );
  ]
