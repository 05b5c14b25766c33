(* Architecture exploration drivers: the CLB-level studies of §3.1 (cluster
   size, LUT size, the I = (K/2)(N+1) input rule) re-run through the full
   flow, plus the interconnect switch-style comparison of §3.3. *)

type sweep_point = {
  label : string;
  avg_power_mw : float;
  avg_crit_ns : float;
  avg_clusters : float;
  avg_min_width : float;
  avg_utilization : float;
}

(* Circuits are independent problems, so the suite fans out across a
   Domain pool; failures are collected with their stage and reported
   after the join, in suite order, exactly as the sequential loop did. *)
let run_suite ?(config = Flow.default_config) ?jobs circuits =
  Util.Parallel.map_list ?jobs
    (fun (name, vhdl) ->
      match Flow.run_vhdl ~config vhdl with
      | r -> Ok r
      | exception Flow.Flow_error (stage, e) -> Error (name, stage, e))
    circuits
  |> List.filter_map (function
       | Ok r -> Some r
       | Error (name, stage, e) ->
           Printf.eprintf "explore: %s failed at %s (%s)\n%!" name stage
             (Printexc.to_string e);
           None)

(* The searched minimum channel width, or the routed one when no search
   ran. *)
let min_width (r : Flow.result) =
  Option.value r.Flow.route_stats.Route.Router.minimum_width
    ~default:r.Flow.route_stats.Route.Router.channel_width

let summarize label results =
  let arr f = Array.of_list (List.map f results) in
  {
    label;
    avg_power_mw =
      Util.Stats.geomean (arr (fun r -> r.Flow.power.Power.Model.total_w *. 1e3));
    avg_crit_ns =
      Util.Stats.geomean
        (arr (fun r -> r.Flow.route_stats.Route.Router.critical_path_s *. 1e9));
    avg_clusters = Util.Stats.mean (arr (fun r -> float_of_int r.Flow.n_clusters));
    avg_min_width = Util.Stats.mean (arr (fun r -> float_of_int (min_width r)));
    avg_utilization = Util.Stats.mean (arr (fun r -> r.Flow.utilization));
  }

(* The studies' one experiment: the circuits on the paper's platform
   with one change to its parameters. *)
let on_platform ?jobs circuits change =
  let params = Fpga_arch.Params.validate (change Fpga_arch.Params.amdrel) in
  run_suite ~config:{ Flow.default_config with Flow.params } ?jobs circuits

(* Cluster-size exploration (paper: N = 5 minimises energy). *)
let cluster_size_sweep ?(ns = [ 2; 3; 4; 5; 6; 8 ]) ?(circuits = Bench_circuits.suite) ?jobs () =
  List.map
    (fun n ->
      summarize (Printf.sprintf "N=%d" n)
        (on_platform ?jobs circuits (fun p ->
             {
               p with
               Fpga_arch.Params.n;
               i = Fpga_arch.Params.recommended_inputs ~k:4 ~n;
             })))
    ns

(* LUT-size exploration (paper cites K = 4 as the energy sweet spot). *)
let lut_size_sweep ?(ks = [ 2; 3; 4; 5 ]) ?(circuits = Bench_circuits.suite) ?jobs () =
  List.map
    (fun k ->
      summarize (Printf.sprintf "K=%d" k)
        (on_platform ?jobs circuits (fun p ->
             {
               p with
               Fpga_arch.Params.k;
               i = Fpga_arch.Params.recommended_inputs ~k ~n:5;
             })))
    ks

(* The input-count rule: utilisation versus I (paper: I = (K/2)(N+1) gives
   ~98% BLE utilisation; more inputs buy nothing, fewer waste BLEs). *)
type input_rule_point = {
  i_value : int;
  rule_value : int;
  utilization : float;
  clusters : float;
}

let input_rule_sweep ?(circuits = Bench_circuits.suite) ?jobs () =
  let rule = Fpga_arch.Params.recommended_inputs ~k:4 ~n:5 in
  List.map
    (fun i_value ->
      let s =
        summarize (Printf.sprintf "I=%d" i_value)
          (on_platform ?jobs circuits (fun p ->
               { p with Fpga_arch.Params.i = i_value }))
      in
      {
        i_value;
        rule_value = rule;
        utilization = s.avg_utilization;
        clusters = s.avg_clusters;
      })
    [ 6; 8; 10; rule; 14; 16; 20 ]

(* Segment-mix architecture sweep (§3.3): each point is one mix's fabric
   run over the circuit suite, reporting the usual quality metrics plus
   energy per data cycle.  Every point searches its own minimum channel
   width, which is how the paper compares wire-length mixes fairly. *)
type arch_point = {
  mix : string;              (* e.g. "2xL1+1xL2+1xL4" *)
  point : sweep_point;
  avg_energy_pj : float;     (* geomean energy per data cycle, pJ *)
}

let segment_mix_sweep
    ?(mixes = [ "1xL1"; "1xL2"; "1xL4"; "2xL1+1xL2+1xL4"; "1xL1+1xL4" ])
    ?(circuits = Bench_circuits.suite) ?jobs () =
  (* mixes fan out across the pool; the nested [run_suite] pool calls
     degrade to sequential inside workers, so there is no
     over-subscription and the per-point results stay jobs-invariant *)
  Util.Parallel.map_list ?jobs
    (fun mix ->
      let results =
        on_platform ?jobs circuits (fun p ->
            {
              p with
              Fpga_arch.Params.segments = Fpga_arch.Params.segments_of_string mix;
            })
      in
      let f = Power.Model.default_options.Power.Model.frequency in
      let energies =
        Array.of_list
          (List.map
             (fun r -> r.Flow.power.Power.Model.total_w /. f *. 1e12)
             results)
      in
      {
        mix;
        point = summarize mix results;
        avg_energy_pj = Util.Stats.geomean energies;
      })
    mixes

(* Timing-driven vs routability-driven place & route (VPR's two modes). *)
type td_point = {
  circuit : string;
  routability_crit_ns : float;
  timing_driven_crit_ns : float;
  routability_wire : int;
  timing_driven_wire : int;
  routability_min_width : int;
  timing_driven_min_width : int;
}

(* One suite run per mode; a circuit that fails in either mode has no
   point. *)
let timing_driven_comparison ?(circuits = Bench_circuits.suite) ?jobs () =
  let run timing_driven =
    run_suite ~config:{ Flow.default_config with Flow.timing_driven } ?jobs
      circuits
  in
  let rt = run false in
  let td = run true in
  List.filter_map
    (fun (a : Flow.result) ->
      List.find_opt (fun (b : Flow.result) -> b.Flow.design = a.Flow.design) td
      |> Option.map (fun (b : Flow.result) ->
             {
               circuit = a.Flow.design;
               routability_crit_ns =
                 a.Flow.route_stats.Route.Router.critical_path_s *. 1e9;
               timing_driven_crit_ns =
                 b.Flow.route_stats.Route.Router.critical_path_s *. 1e9;
               routability_wire =
                 a.Flow.route_stats.Route.Router.total_wire_tiles;
               timing_driven_wire =
                 b.Flow.route_stats.Route.Router.total_wire_tiles;
               routability_min_width = min_width a;
               timing_driven_min_width = min_width b;
             }))
    rt

(* Switch-style comparison at the selected operating point (pass transistor
   vs tri-state buffer pairs, §3.3.2): circuit-level E/D/A. *)
type switch_point = {
  style : Spice.Routing_exp.switch_style;
  energy_fj : float;
  delay_ps : float;
  area : float;
  eda : float;
}

let switch_style_comparison ?(width = 10.0) ?(wire_length = 1)
    ?(cfg = Spice.Tech.Min_width_double_spacing) () =
  List.map
    (fun style ->
      let p =
        Spice.Routing_exp.measure ~wire_length ~width ~config:cfg ~style ()
      in
      {
        style;
        energy_fj = p.Spice.Routing_exp.energy_j *. 1e15;
        delay_ps = p.Spice.Routing_exp.delay_s *. 1e12;
        area = p.Spice.Routing_exp.area;
        eda = p.Spice.Routing_exp.eda;
      })
    [ Spice.Routing_exp.Pass_transistor; Spice.Routing_exp.Tristate_buffer ]
