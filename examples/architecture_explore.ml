(* Architecture exploration: re-run the paper's CLB-level studies through
   the full flow — cluster size (paper: N = 5), LUT size (paper: K = 4)
   and the I = (K/2)(N+1) input rule (paper: ~98% utilisation).

   Run with: dune exec examples/architecture_explore.exe *)

let print_sweep title points =
  Printf.printf "\n%s:\n" title;
  Util.Tablefmt.print
    [ "point"; "power (mW)"; "crit (ns)"; "CLBs"; "Wmin"; "util" ]
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
       points)

let () =
  print_endline "== Architecture exploration ==";
  (* a compact circuit subset keeps this example fast *)
  let circuits =
    List.map
      (fun name -> (name, Option.get (Core.Bench_circuits.find name)))
      [ "counter8"; "alu8"; "lfsr12"; "accum12" ]
  in
  print_sweep "cluster size N (K = 4, I by the rule)"
    (Core.Explore.cluster_size_sweep ~circuits ());
  print_sweep "LUT size K (N = 5, I by the rule)"
    (Core.Explore.lut_size_sweep ~circuits ());
  print_endline "\ninput rule I = (K/2)(N+1) = 12 (BLE utilisation vs I):";
  Util.Tablefmt.print
    [ "I"; "utilisation"; "avg CLBs" ]
    (List.map
       (fun (p : Core.Explore.input_rule_point) ->
         [
           (if p.i_value = p.rule_value then
              Printf.sprintf "%d (rule)" p.i_value
            else string_of_int p.i_value);
           Util.Tablefmt.f2 p.utilization;
           Util.Tablefmt.f1 p.clusters;
         ])
       (Core.Explore.input_rule_sweep ~circuits ()))
