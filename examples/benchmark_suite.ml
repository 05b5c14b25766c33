(* Run the full benchmark suite through the complete flow and print the
   quality-of-results table (the evaluation a VPR-era paper reports:
   LUTs, CLBs, grid, minimum channel width, critical path, power).
   A design that fails is reported on stderr and left out.

   Run with: dune exec examples/benchmark_suite.exe *)

let () =
  print_endline "== Benchmark suite through the complete flow ==";
  Util.Tablefmt.print
    [
      "circuit"; "LUTs"; "FFs"; "CLBs"; "grid"; "Wmin"; "crit (ns)";
      "power (mW)"; "bits"; "verified";
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
