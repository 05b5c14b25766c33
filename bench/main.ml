(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §3) plus the flow QoR, timing-driven and
   full-flow stress tables and the architecture ablations.  Every table
   over designs compiles a Core.Bench_circuits list through
   Core.Explore.run_suite.  Per-stage times come from the flow's own
   stage timers (EXPERIMENTS.md) and per-layer times from perfbench.

   Usage:
     dune exec bench/main.exe             # everything
     dune exec bench/main.exe -- table1 table3 fig9 flow timing ablate stress

   The run ledger (bench/ledger) is written by amdrel_flow --ledger. *)

open Spice

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let pct_change base v = 100.0 *. (v -. base) /. base

(* ---------- Table 1 ---------- *)

let table1 () =
  hr "Table 1: Energy, delay and energy-delay product of DET flip-flops";
  print_endline
    "(paper reports absolute fJ/ps in STM 0.18um; our substrate is the\n\
     built-in transistor-level simulator, so the orderings are the target:\n\
     Llopis-1 lowest energy, Chung-2 lowest EDP, Llopis-1 selected)\n";
  let results = Ff_bench.table1 () in
  Util.Tablefmt.print
    [ "Cell"; "Total Energy (fJ)"; "Delay (ps)"; "Energy-Delay Product" ]
    (List.map
       (fun (r : Ff_bench.result) ->
         [
           Detff.name r.kind;
           Util.Tablefmt.f1 r.energy_fj;
           Util.Tablefmt.f1 r.delay_ps;
           Util.Tablefmt.f1 r.edp;
         ])
       results);
  let best metric =
    List.fold_left
      (fun (best : Ff_bench.result) (r : Ff_bench.result) ->
        if metric r < metric best then r else best)
      (List.hd results) (List.tl results)
  in
  Printf.printf "\nlowest energy: %s   (paper: Llopis 1)\n"
    (Detff.name (best (fun r -> r.Ff_bench.energy_fj)).Ff_bench.kind);
  Printf.printf "lowest EDP:    %s   (paper: Chung 2)\n"
    (Detff.name (best (fun r -> r.Ff_bench.edp)).Ff_bench.kind);
  Printf.printf "selected:      %s   (paper: Llopis 1 — simpler structure)\n"
    (Detff.name Detff.Llopis1);
  print_endline
    "\nDET vs SET at matched data rate (the platform's motivation: the\n\
     DETFF clock runs at half frequency):";
  Util.Tablefmt.print
    [ "data activity"; "DET (fJ/cycle)"; "SET (fJ/cycle)"; "DET saving" ]
    (List.map
       (fun (p : Ff_bench.det_vs_set) ->
         [
           Util.Tablefmt.f2 p.activity;
           Util.Tablefmt.f1 p.det_energy_fj;
           Util.Tablefmt.f1 p.set_energy_fj;
           Util.Tablefmt.pct (1.0 -. (p.det_energy_fj /. p.set_energy_fj));
         ])
       (Ff_bench.det_vs_set_sweep ()))

(* ---------- Table 2 ---------- *)

let table2 () =
  hr "Table 2: Energy for single and gated clock (BLE level)";
  let rows = Clocking.table2 () in
  (match rows with
  | [ single; en1; en0 ] ->
      Util.Tablefmt.print
        [ "Condition"; "E (fJ/cycle)"; "vs single"; "paper" ]
        [
          [ single.Clocking.label; Util.Tablefmt.f2 single.Clocking.energy_fj;
            "-"; "E=40.76 fJ" ];
          [ en1.Clocking.label; Util.Tablefmt.f2 en1.Clocking.energy_fj;
            Util.Tablefmt.pct
              (pct_change single.Clocking.energy_fj en1.Clocking.energy_fj
              /. 100.0);
            "E=43.44 fJ (+6.2%)" ];
          [ en0.Clocking.label; Util.Tablefmt.f2 en0.Clocking.energy_fj;
            Util.Tablefmt.pct
              (pct_change single.Clocking.energy_fj en0.Clocking.energy_fj
              /. 100.0);
            "E=9.31 fJ (-77%)" ];
        ]
  | _ -> print_endline "unexpected table2 shape")

(* ---------- Table 3 ---------- *)

let table3 () =
  hr "Table 3: Energy for single and gated clock at CLB level";
  let rows = Clocking.table3 () in
  Util.Tablefmt.print
    [ "Condition"; "Single (fJ)"; "Gated (fJ)"; "change"; "paper" ]
    (List.map2
       (fun (r : Clocking.table3_row) paper ->
         [
           Clocking.condition_name r.condition;
           Util.Tablefmt.f1 r.single_fj;
           Util.Tablefmt.f1 r.gated_fj;
           Util.Tablefmt.pct (pct_change r.single_fj r.gated_fj /. 100.0);
           paper;
         ])
       rows
       [ "23.1 -> 3.9 (-83%)"; "24.1 -> 32.1 (+33%)"; "27.8 -> 35.8 (+29%)" ]);
  print_endline
    "\npaper conclusion: CLB-level gating pays when P(all F/Fs off) > 1/3 —\n\
     the same break-even follows from the rows above."

(* ---------- Figures 8, 9, 10 ---------- *)

let figure config ~fig ~paper_optima () =
  hr
    (Printf.sprintf
       "Figure %d: Energy-Delay-Area product vs routing pass-transistor \
        width (%s)"
       fig
       (Tech.wire_config_name config));
  let curves = Routing_exp.sweep ~config () in
  (* print one row per width, one column per wire length *)
  let widths =
    match curves with
    | cv :: _ -> List.map (fun (p : Routing_exp.point) -> p.width) cv.points
    | [] -> []
  in
  let header =
    "W (x min)"
    :: List.map
         (fun (cv : Routing_exp.curve) ->
           Printf.sprintf "L=%d EDA" cv.wire_length)
         curves
  in
  let rows =
    List.mapi
      (fun i w ->
        Printf.sprintf "%g" w
        :: List.map
             (fun (cv : Routing_exp.curve) ->
               let p = List.nth cv.points i in
               if Float.is_nan p.Routing_exp.eda then "n/a"
               else Util.Tablefmt.g3 (p.Routing_exp.eda *. 1e30))
             curves)
      widths
  in
  Util.Tablefmt.print header rows;
  print_endline "\noptimal width per wire length (E*D*A minimum):";
  List.iter2
    (fun (cv : Routing_exp.curve) paper ->
      Printf.printf "  L=%d: %gx   (paper: %s)\n" cv.wire_length
        (Routing_exp.optimal_width cv)
        paper)
    curves paper_optima

let fig8 () =
  figure Tech.Min_width_min_spacing ~fig:8
    ~paper_optima:[ "10-16 (tied)"; "10-16 (tied)"; "10-16 (tied)"; "64" ]
    ()

let fig9 () =
  figure Tech.Min_width_double_spacing ~fig:9
    ~paper_optima:[ "10"; "10"; "10"; "64" ]
    ()

let fig10 () =
  figure Tech.Double_width_double_spacing ~fig:10
    ~paper_optima:[ "10"; "10"; "10"; "16" ]
    ()

(* ---------- Flow QoR ---------- *)

let flow_qor () =
  hr "Flow QoR: the benchmark suite through the complete VHDL-to-bitstream flow";
  print_endline
    "(the functional demonstration of §4; every bitstream is round-trip\n\
     verified — the paper demonstrates the flow, QoR numbers are ours)\n";
  Printf.printf "domains: %d (AMDREL_JOBS overrides)\n\n"
    (Util.Parallel.default_jobs ());
  Util.Tablefmt.print
    [
      "circuit"; "LUTs"; "FFs"; "CLBs"; "grid"; "Wmin"; "crit(ns)"; "P(mW)";
      "bits"; "verified";
    ]
    (List.map
       (fun (r : Core.Flow.result) ->
         [
           r.Core.Flow.design;
           string_of_int r.Core.Flow.mapped_stats.Netlist.Logic.n_gates;
           string_of_int r.Core.Flow.mapped_stats.Netlist.Logic.n_latches;
           string_of_int r.Core.Flow.n_clusters;
           Printf.sprintf "%dx%d" r.Core.Flow.grid.Fpga_arch.Grid.nx
             r.Core.Flow.grid.Fpga_arch.Grid.ny;
           (match r.Core.Flow.route_stats.Route.Router.minimum_width with
           | Some w -> string_of_int w
           | None -> "-");
           Util.Tablefmt.f2
             (r.Core.Flow.route_stats.Route.Router.critical_path_s *. 1e9);
           Util.Tablefmt.f3 (r.Core.Flow.power.Power.Model.total_w *. 1e3);
           string_of_int r.Core.Flow.bitstream.Bitstream.Dagger.bits;
           (if r.Core.Flow.bitstream_verified then "yes" else "NO");
         ])
       (Core.Explore.run_suite Core.Bench_circuits.suite))

(* ---------- Ablations ---------- *)

let ablations () =
  hr "Ablation: cluster size N (paper selects N = 5)";
  Util.Tablefmt.print
    [ "N"; "P (mW)"; "crit (ns)"; "CLBs"; "Wmin"; "util" ]
    (List.map
       (fun (p : Core.Explore.sweep_point) ->
         [
           p.label;
           Util.Tablefmt.f3 p.avg_power_mw;
           Util.Tablefmt.f2 p.avg_crit_ns;
           Util.Tablefmt.f1 p.avg_clusters;
           Util.Tablefmt.f1 p.avg_min_width;
           Util.Tablefmt.f2 p.avg_utilization;
         ])
       (Core.Explore.cluster_size_sweep ()));
  hr "Ablation: LUT size K (paper cites K = 4 [24])";
  Util.Tablefmt.print
    [ "K"; "P (mW)"; "crit (ns)"; "CLBs"; "Wmin"; "util" ]
    (List.map
       (fun (p : Core.Explore.sweep_point) ->
         [
           p.label;
           Util.Tablefmt.f3 p.avg_power_mw;
           Util.Tablefmt.f2 p.avg_crit_ns;
           Util.Tablefmt.f1 p.avg_clusters;
           Util.Tablefmt.f1 p.avg_min_width;
           Util.Tablefmt.f2 p.avg_utilization;
         ])
       (Core.Explore.lut_size_sweep ()));
  hr "Ablation: the input rule I = (K/2)(N+1) (paper: ~98% utilisation at the rule)";
  Util.Tablefmt.print
    [ "I"; "BLE utilisation"; "avg CLBs" ]
    (List.map
       (fun (p : Core.Explore.input_rule_point) ->
         [
           (if p.i_value = p.rule_value then
              Printf.sprintf "%d (rule)" p.i_value
            else string_of_int p.i_value);
           Util.Tablefmt.f2 p.utilization;
           Util.Tablefmt.f1 p.clusters;
         ])
       (Core.Explore.input_rule_sweep ()));
  hr "Ablation: timing-driven vs routability-driven place & route";
  let td = Core.Explore.timing_driven_comparison () in
  Util.Tablefmt.print
    [
      "circuit"; "crit rt (ns)"; "crit td (ns)"; "wire rt"; "wire td";
      "Wmin rt"; "Wmin td";
    ]
    (List.map
       (fun (p : Core.Explore.td_point) ->
         [
           p.circuit;
           Util.Tablefmt.f2 p.routability_crit_ns;
           Util.Tablefmt.f2 p.timing_driven_crit_ns;
           string_of_int p.routability_wire;
           string_of_int p.timing_driven_wire;
           string_of_int p.routability_min_width;
           string_of_int p.timing_driven_min_width;
         ])
       td);
  let geo f = Util.Stats.geomean (Array.of_list (List.map f td)) in
  Printf.printf
    "\ngeomean critical path: %.2f ns routability-driven vs %.2f ns \
     timing-driven\n"
    (geo (fun p -> p.Core.Explore.routability_crit_ns))
    (geo (fun p -> p.Core.Explore.timing_driven_crit_ns));
  hr "Ablation: pass transistor vs tri-state buffer switches (§3.3.2)";
  Util.Tablefmt.print
    [ "style"; "E (fJ)"; "D (ps)"; "area"; "EDA" ]
    (List.map
       (fun (p : Core.Explore.switch_point) ->
         [
           (match p.style with
           | Routing_exp.Pass_transistor -> "pass transistor"
           | Routing_exp.Tristate_buffer -> "tri-state buffer");
           Util.Tablefmt.f1 p.energy_fj;
           Util.Tablefmt.f1 p.delay_ps;
           Util.Tablefmt.f1 p.area;
           Util.Tablefmt.g3 p.eda;
         ])
       (Core.Explore.switch_style_comparison ()))

(* ---------- Segment mixes ---------- *)

let segments () =
  hr "Segment mixes: wire-length mix vs Wmin, delay and energy (§3.3)";
  print_endline
    "(the bench suite on one fabric per mix, each searching its own\n\
     minimum channel width; Wmin and util are means, crit, P and E\n\
     geomeans, E per data cycle at the power model's frequency)\n";
  Util.Tablefmt.print
    [ "mix"; "Wmin"; "crit (ns)"; "P (mW)"; "E (pJ)"; "util (%)" ]
    (List.map
       (fun (p : Core.Explore.arch_point) ->
         let s = p.Core.Explore.point in
         [
           p.Core.Explore.mix;
           Util.Tablefmt.f1 s.Core.Explore.avg_min_width;
           Util.Tablefmt.f2 s.Core.Explore.avg_crit_ns;
           Util.Tablefmt.f2 s.Core.Explore.avg_power_mw;
           Util.Tablefmt.f2 p.Core.Explore.avg_energy_pj;
           Util.Tablefmt.f1 (100.0 *. s.Core.Explore.avg_utilization);
         ])
       (Core.Explore.segment_mix_sweep ()))

(* ---------- Stress: larger workloads ---------- *)

let stress () =
  hr "Stress: larger workloads through the complete flow";
  Printf.printf "domains: %d (AMDREL_JOBS overrides)\n\n"
    (Util.Parallel.default_jobs ());
  let t0 = Unix.gettimeofday () in
  let results = Core.Explore.run_suite Core.Bench_circuits.stress in
  let verified (r : Core.Flow.result) =
    r.Core.Flow.bitstream_verified && r.Core.Flow.fabric_verified
  in
  (* the caption's ranges come from the table's own rows *)
  let span f =
    let xs = List.sort compare (List.map f results) in
    (List.hd xs, List.hd (List.rev xs))
  in
  if results <> [] then begin
    let lut_lo, lut_hi =
      span (fun r -> r.Core.Flow.mapped_stats.Netlist.Logic.n_gates)
    in
    let (x0, y0), (x1, y1) =
      span (fun r ->
          (r.Core.Flow.grid.Fpga_arch.Grid.nx, r.Core.Flow.grid.Fpga_arch.Grid.ny))
    in
    let n_ok = List.length (List.filter verified results) in
    Printf.printf "(scaling check: %d-%d LUTs, %dx%d-%dx%d arrays, %s)\n\n"
      lut_lo lut_hi x0 y0 x1 y1
      (if n_ok = List.length results then "all verified"
       else Printf.sprintf "%d of %d verified" n_ok (List.length results))
  end;
  Util.Tablefmt.print
    [ "circuit"; "LUTs"; "CLBs"; "grid"; "Wmin"; "rt iters"; "heap pops";
      "crit(ns)"; "P(mW)"; "verified"; "wall(s)" ]
    (List.map
       (fun (r : Core.Flow.result) ->
         [
           r.Core.Flow.design;
           string_of_int r.Core.Flow.mapped_stats.Netlist.Logic.n_gates;
           string_of_int r.Core.Flow.n_clusters;
           Printf.sprintf "%dx%d" r.Core.Flow.grid.Fpga_arch.Grid.nx
             r.Core.Flow.grid.Fpga_arch.Grid.ny;
           (match r.Core.Flow.route_stats.Route.Router.minimum_width with
           | Some w -> string_of_int w
           | None -> "-");
           string_of_int r.Core.Flow.route_stats.Route.Router.router_iterations;
           string_of_int r.Core.Flow.route_stats.Route.Router.heap_pops;
           Util.Tablefmt.f2
             (r.Core.Flow.route_stats.Route.Router.critical_path_s *. 1e9);
           Util.Tablefmt.f2 (r.Core.Flow.power.Power.Model.total_w *. 1e3);
           (if verified r then "yes" else "NO");
           (* the design's own stage timers, not a clock around the
              pool: that would charge each circuit for its neighbours *)
           Util.Tablefmt.f1 (fst (Core.Flow.stage_time r.Core.Flow.metrics));
         ])
       results);
  Printf.printf "\ntotal wall time: %.1f s\n" (Unix.gettimeofday () -. t0)

(* ---------- Unified STA timing report ---------- *)

let timing () =
  hr "Unified STA: pre-route vs post-route critical paths across the suite";
  print_endline
    "(timing-driven place & route; pre is the placement-distance\n\
     estimate, post the routed-Elmore analysis — both from the unified\n\
     STA engine, the sole timing oracle)\n";
  let results =
    Core.Explore.run_suite
      ~config:{ Core.Flow.default_config with Core.Flow.timing_driven = true }
      Core.Bench_circuits.suite
  in
  Util.Tablefmt.print
    [
      "circuit"; "pre dmax(ns)"; "post dmax(ns)"; "post vs pre"; "paths";
    ]
    (List.map
       (fun (r : Core.Flow.result) ->
         let pre = r.Core.Flow.sta_pre.Sta.Analysis.dmax in
         let post = r.Core.Flow.sta_post.Sta.Analysis.dmax in
         [
           r.Core.Flow.design;
           Util.Tablefmt.f2 (pre *. 1e9);
           Util.Tablefmt.f2 (post *. 1e9);
           Util.Tablefmt.pct ((post -. pre) /. pre);
           string_of_int (List.length (Sta.Report.paths r.Core.Flow.sta_post));
         ])
       results);
  (* the worst path of the largest circuit, end to end *)
  (match
     List.find_opt (fun r -> r.Core.Flow.design = "mult4") results
   with
  | Some r ->
      print_newline ();
      print_string
        (Sta.Report.to_text ~title:"mult4 post-route critical path"
           r.Core.Flow.sta_post
           (Sta.Report.paths ~k:1 r.Core.Flow.sta_post))
  | None -> ());
  print_endline
    "\n(timing-driven vs routability-driven crit and Wmin per circuit: \
     the ablate section)"

(* ---------- driver ---------- *)

let all =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("flow", flow_qor);
    ("timing", timing);
    ("ablate", ablations);
    ("segments", segments);
    ("stress", stress);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst all
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (available: %s)\n" name
            (String.concat ", " (List.map fst all));
          exit 1)
    requested
