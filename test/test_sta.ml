(* Unified STA engine: propagation invariants, constraint semantics and
   report shape.  The engine is the sole timing oracle (the legacy
   standalone estimators are retired); its absolute output is pinned by
   the golden fixtures in test_golden.ml. *)

let ( => ) name f = Alcotest.test_case name `Quick f

(* VHDL -> placed problem, deterministic seed *)
let placed vhdl =
  let net = Synth.Diviner.synthesize vhdl in
  let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
  let packing = Pack.Cluster.pack ~n:5 ~i:12 mapped in
  let problem = Place.Problem.build packing in
  let r = Place.Anneal.run problem in
  (problem, r.Place.Anneal.placement)

let pre_route_analysis problem placement =
  let graph = Sta.Graph.build problem in
  let provider =
    Sta.Delays.of_placement ~producer:graph.Sta.Graph.block_of problem
      ~coords:(Place.Placement.coords placement)
  in
  Sta.Analysis.run graph provider

let test_criticality_bounds () =
  let problem, placement = placed (Core.Bench_circuits.alu 8) in
  let a = pre_route_analysis problem placement in
  Array.iter
    (Array.iter (fun c ->
         Alcotest.(check bool) "criticality in [0,1]" true
           (c >= 0.0 && c <= 1.0)))
    a.Sta.Analysis.criticality;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "net criticality in [0,1]" true
        (c >= 0.0 && c <= 1.0))
    a.Sta.Analysis.net_criticality;
  (* some net must be fully critical: the worst path has zero slack *)
  Alcotest.(check (float 1e-9)) "worst net criticality is 1" 1.0
    (Array.fold_left Float.max 0.0 a.Sta.Analysis.net_criticality)

(* Increasing the period can only increase each endpoint's slack. *)
let test_slack_monotone () =
  let problem, placement = placed (Core.Bench_circuits.multiplier 4) in
  let graph = Sta.Graph.build problem in
  let provider =
    Sta.Delays.of_placement ~producer:graph.Sta.Graph.block_of problem
      ~coords:(Place.Placement.coords placement)
  in
  let at period =
    Sta.Analysis.run
      ~constraints:{ Sta.Analysis.period = Some period; detff = true }
      graph provider
  in
  let tight = at 2e-9 and loose = at 8e-9 in
  Alcotest.(check bool) "same endpoint count" true
    (Array.length tight.Sta.Analysis.endpoint_arrival
    = Array.length loose.Sta.Analysis.endpoint_arrival);
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool) "slack grows with the period" true
        (Sta.Analysis.endpoint_slack loose i
        >= Sta.Analysis.endpoint_slack tight i))
    tight.Sta.Analysis.endpoint_arrival;
  Alcotest.(check bool) "wns grows with the period" true
    (loose.Sta.Analysis.wns >= tight.Sta.Analysis.wns);
  Alcotest.(check bool) "tns grows with the period" true
    (loose.Sta.Analysis.tns >= tight.Sta.Analysis.tns)

(* DETFF clocking halves the combinational budget: period p with DETFF
   is the same constraint as period p/2 with single-edge capture. *)
let test_detff_halving () =
  let problem, placement = placed (Core.Bench_circuits.accumulator 12) in
  let graph = Sta.Graph.build problem in
  let provider =
    Sta.Delays.of_placement ~producer:graph.Sta.Graph.block_of problem
      ~coords:(Place.Placement.coords placement)
  in
  let run period detff =
    Sta.Analysis.run
      ~constraints:{ Sta.Analysis.period = Some period; detff }
      graph provider
  in
  let det = run 10e-9 true and set = run 5e-9 false in
  Alcotest.(check (float 0.0)) "budget" set.Sta.Analysis.budget
    det.Sta.Analysis.budget;
  Alcotest.(check (float 0.0)) "wns" set.Sta.Analysis.wns
    det.Sta.Analysis.wns;
  Alcotest.(check (float 0.0)) "tns" set.Sta.Analysis.tns
    det.Sta.Analysis.tns

(* Levelized propagation parallelises per level; any jobs count must
   produce the identical analysis. *)
let test_jobs_identical () =
  let problem, placement = placed (Core.Bench_circuits.alu 8) in
  let graph = Sta.Graph.build problem in
  let provider =
    Sta.Delays.of_placement ~producer:graph.Sta.Graph.block_of problem
      ~coords:(Place.Placement.coords placement)
  in
  let a1 = Sta.Analysis.run ~jobs:1 graph provider in
  let a4 = Sta.Analysis.run ~jobs:4 graph provider in
  Alcotest.(check (float 0.0)) "dmax" a1.Sta.Analysis.dmax
    a4.Sta.Analysis.dmax;
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.0)) "arrival" v a4.Sta.Analysis.arrival.(i))
    a1.Sta.Analysis.arrival;
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.0)) "required" v a4.Sta.Analysis.required.(i))
    a1.Sta.Analysis.required

(* Top-K report: deterministic, sorted, consistent with the analysis. *)
let test_report_paths () =
  let problem, placement = placed (Core.Bench_circuits.multiplier 4) in
  let a = pre_route_analysis problem placement in
  let paths = Sta.Report.paths ~k:5 a in
  Alcotest.(check bool) "non-empty" true (paths <> []);
  let first = List.hd paths in
  Alcotest.(check (float 0.0)) "worst path arrival = dmax"
    a.Sta.Analysis.dmax first.Sta.Report.arrival_s;
  let rec desc = function
    | (a : Sta.Report.path) :: (b :: _ as rest) ->
        Alcotest.(check bool) "arrival descending" true
          (a.Sta.Report.arrival_s >= b.Sta.Report.arrival_s);
        desc rest
    | _ -> ()
  in
  desc paths;
  List.iteri
    (fun i (p : Sta.Report.path) ->
      Alcotest.(check int) "rank" (i + 1) p.Sta.Report.rank;
      Alcotest.(check bool) "has hops" true (p.Sta.Report.hops <> []);
      (* hop arrivals must be non-decreasing along the path *)
      let rec hops_ok = function
        | (h1 : Sta.Report.hop) :: (h2 :: _ as rest) ->
            Alcotest.(check bool) "hop arrivals non-decreasing" true
              (h2.Sta.Report.arrival_s >= h1.Sta.Report.arrival_s);
            hops_ok rest
        | _ -> ()
      in
      hops_ok p.Sta.Report.hops)
    paths;
  (* JSON must parse shape-wise: cheap smoke via known substrings *)
  let json = Sta.Report.to_json a paths in
  List.iter
    (fun needle ->
      let found =
        let n = String.length needle and m = String.length json in
        let rec scan i =
          i + n <= m && (String.sub json i n = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (needle ^ " present") true found)
    [ "\"provider\""; "\"dmax_s\""; "\"paths\""; "\"hops\""; "\"slack_s\"" ]

(* A timing-driven counter8 flow, shared by the flow-level tests. *)
let td_counter8 =
  lazy
    (Core.Flow.run_vhdl
       ~config:{ Core.Flow.default_config with Core.Flow.timing_driven = true }
       (Core.Bench_circuits.counter 8))

(* The flow surfaces the unified figures as sta.* counters. *)
let test_flow_counters () =
  let r = Lazy.force td_counter8 in
  let counter name =
    match Obs.Registry.find r.Core.Flow.metrics name with
    | Some (Obs.Registry.Gauge v) -> v
    | _ -> Alcotest.failf "%s not recorded" name
  in
  Alcotest.(check bool) "sta.dmax positive" true (counter "sta.dmax" > 0.0);
  Alcotest.(check (float 0.0)) "sta.dmax = post-route analysis dmax"
    r.Core.Flow.sta_post.Sta.Analysis.dmax (counter "sta.dmax");
  Alcotest.(check bool) "sta.wns <= 0" true (counter "sta.wns" <= 0.0);
  Alcotest.(check bool) "sta.tns <= 0" true (counter "sta.tns" <= 0.0);
  (* pre-route estimate uses the same engine over the same graph *)
  Alcotest.(check bool) "pre-route dmax positive" true
    (r.Core.Flow.sta_pre.Sta.Analysis.dmax > 0.0)

(* The sta stage's artifact is plain data: the stage cache marshals it
   with no flags, which raises on a closure, and an analysis read back
   reports exactly what the original does. *)
let test_sta_plain_data () =
  let r = Lazy.force td_counter8 in
  let pre, post = (r.Core.Flow.sta_pre, r.Core.Flow.sta_post) in
  let pre', post' =
    (Marshal.from_string (Marshal.to_string (pre, post) []) 0
      : Sta.Analysis.t * Sta.Analysis.t)
  in
  let report a = Obs.Emit.to_string (Sta.Report.json a (Sta.Report.paths a)) in
  Alcotest.(check string) "pre-route report" (report pre) (report pre');
  Alcotest.(check string) "post-route report" (report post) (report post')

(* Provider parity.  The graph's producer array and sink-user lists
   replaced a [Place.Td_timing.block_of_signal] table and a
   (signal, consuming block) grouping; every delay and every user list
   must be what those gave.  counter8 merges each register with the LUT
   feeding it, so the LUT outputs have no producing block: arcs out of
   and into them take the "unknown producer" branches.  Both flow
   providers (placement distance and routed Elmore) are asked for every
   pair of signals and every (signal, output pad) pair: a superset of
   the combinational, setup and pad arcs the engine reads. *)
let test_provider_parity () =
  let r = Lazy.force td_counter8 in
  let graph = r.Core.Flow.sta_pre.Sta.Analysis.graph in
  let problem = graph.Sta.Graph.problem in
  let net = graph.Sta.Graph.net in
  let tbl = Place.Td_timing.block_of_signal problem in
  Alcotest.(check (array int)) "block_of = block_of_signal"
    (Array.init graph.Sta.Graph.n (fun s ->
         Option.value (Hashtbl.find_opt tbl s) ~default:(-1)))
    graph.Sta.Graph.block_of;
  let hop coords t_fixed t_per_tile a b =
    let ax, ay = coords.(a) and bx, by = coords.(b) in
    t_fixed +. (t_per_tile *. float_of_int (abs (ax - bx) + abs (ay - by)))
  in
  let conn (p : Sta.Delays.provider) src dst =
    match
      (Hashtbl.find_opt tbl src, Hashtbl.find_opt tbl dst, p.Sta.Delays.wires)
    with
    | Some a, Some b, _ when a = b -> p.Sta.Delays.t_local
    | Some a, Some b, Sta.Delays.Distance { coords; t_fixed; t_per_tile } ->
        hop coords t_fixed t_per_tile a b
    | _, Some b, Sta.Delays.Routed rt ->
        Option.value (Hashtbl.find_opt rt (src, b))
          ~default:p.Sta.Delays.t_local
    | _ -> p.Sta.Delays.t_local
  in
  let pad (p : Sta.Delays.provider) src block =
    match p.Sta.Delays.wires with
    | Sta.Delays.Distance { coords; t_fixed; t_per_tile } -> (
        match Hashtbl.find_opt tbl src with
        | Some a when a <> block -> hop coords t_fixed t_per_tile a block
        | _ -> p.Sta.Delays.t_local)
    | Sta.Delays.Routed rt ->
        Option.value (Hashtbl.find_opt rt (src, block)) ~default:0.0
  in
  let arcs =
    List.concat_map
      (fun id -> List.map (fun f -> (f, id)) (Netlist.Logic.fanins net id))
      (List.init graph.Sta.Graph.n Fun.id)
  in
  let unknown s = not (Hashtbl.mem tbl s) in
  Alcotest.(check bool) "arcs from signals with no producing block" true
    (List.exists (fun (f, _) -> unknown f) arcs);
  Alcotest.(check bool) "arcs into signals with no producing block" true
    (List.exists (fun (_, id) -> unknown id) arcs);
  List.iter
    (fun (label, (a : Sta.Analysis.t)) ->
      let p = a.Sta.Analysis.provider in
      Alcotest.(check string) "provider" label p.Sta.Delays.name;
      Alcotest.(check bool) (label ^ " shares the graph's producer") true
        (p.Sta.Delays.producer == graph.Sta.Graph.block_of);
      for src = 0 to graph.Sta.Graph.n - 1 do
        for dst = 0 to graph.Sta.Graph.n - 1 do
          if Sta.Delays.conn p src dst <> conn p src dst then
            Alcotest.failf "%s conn %d -> %d" label src dst
        done;
        Array.iteri
          (fun block kind ->
            match kind with
            | Place.Problem.Output_pad _ ->
                if Sta.Delays.pad p src block <> pad p src block then
                  Alcotest.failf "%s pad %d -> block %d" label src block
            | _ -> ())
          problem.Place.Problem.blocks
      done)
    [ ("placement-distance", r.Core.Flow.sta_pre);
      ("routed-elmore", r.Core.Flow.sta_post) ];
  (* the (signal, consuming block) grouping, rebuilt as it was kept *)
  let grouping = Hashtbl.create 64 in
  for id = 0 to graph.Sta.Graph.n - 1 do
    List.iter
      (fun f ->
        match Hashtbl.find_opt tbl id with
        | Some b ->
            let cur =
              Option.value (Hashtbl.find_opt grouping (f, b)) ~default:[]
            in
            Hashtbl.replace grouping (f, b) (id :: cur)
        | None -> ())
      (Netlist.Logic.fanins net id)
  done;
  Array.iteri
    (fun ni (pnet : Place.Problem.net) ->
      Array.iteri
        (fun k sb ->
          Alcotest.(check (list int))
            (Printf.sprintf "sink users of net %d, sink %d" ni k)
            (Option.value
               (Hashtbl.find_opt grouping (pnet.Place.Problem.signal, sb))
               ~default:[])
            graph.Sta.Graph.sink_users.(ni).(k))
        pnet.Place.Problem.sinks)
    problem.Place.Problem.nets

(* Incremental update must be bit-identical to a fresh analysis, for any
   jobs count, across a chain of placement perturbations (the annealer's
   usage: many updates between full refreshes, prev consumed each time). *)
let test_incremental_update_exact () =
  let problem, placement = placed (Core.Bench_circuits.alu 8) in
  let graph = Sta.Graph.build problem in
  let grid = problem.Place.Problem.grid in
  let n_blocks = Array.length problem.Place.Problem.blocks in
  let coords_arr =
    Array.init n_blocks (Place.Placement.coords placement)
  in
  let provider () =
    Sta.Delays.of_placement ~producer:graph.Sta.Graph.block_of problem
      ~coords:(fun b -> coords_arr.(b))
  in
  let rng = Util.Prng.create 77 in
  let chain1 = ref (Sta.Analysis.run ~jobs:1 graph (provider ())) in
  let chain4 = ref (Sta.Analysis.run ~jobs:4 graph (provider ())) in
  for round = 1 to 6 do
    (* perturb 1-3 blocks (the STA does not care about overlap) *)
    let moved =
      List.init
        (1 + Util.Prng.int rng 3)
        (fun _ ->
          let b = Util.Prng.int rng n_blocks in
          coords_arr.(b) <-
            ( 1 + Util.Prng.int rng grid.Fpga_arch.Grid.nx,
              1 + Util.Prng.int rng grid.Fpga_arch.Grid.ny );
          b)
      |> List.sort_uniq compare
    in
    let p = provider () in
    chain1 := Sta.Analysis.update ~jobs:1 ~changed_blocks:moved !chain1 p;
    chain4 := Sta.Analysis.update ~jobs:4 ~changed_blocks:moved !chain4 p;
    let fresh = Sta.Analysis.run graph p in
    List.iter
      (fun (label, (a : Sta.Analysis.t)) ->
        let check name b =
          Alcotest.(check bool)
            (Printf.sprintf "round %d %s %s bit-identical" round label name)
            true b
        in
        check "dmax" (a.Sta.Analysis.dmax = fresh.Sta.Analysis.dmax);
        check "arrival" (a.Sta.Analysis.arrival = fresh.Sta.Analysis.arrival);
        check "downstream"
          (a.Sta.Analysis.downstream = fresh.Sta.Analysis.downstream);
        check "required" (a.Sta.Analysis.required = fresh.Sta.Analysis.required);
        check "endpoint arrivals"
          (a.Sta.Analysis.endpoint_arrival
          = fresh.Sta.Analysis.endpoint_arrival);
        check "criticality"
          (a.Sta.Analysis.criticality = fresh.Sta.Analysis.criticality);
        check "net criticality"
          (a.Sta.Analysis.net_criticality = fresh.Sta.Analysis.net_criticality);
        check "wns/tns"
          (a.Sta.Analysis.wns = fresh.Sta.Analysis.wns
          && a.Sta.Analysis.tns = fresh.Sta.Analysis.tns))
      [ ("jobs=1", !chain1); ("jobs=4", !chain4) ]
  done

(* The incremental counters must surface through the registry. *)
let test_incremental_counters () =
  let problem, placement = placed (Core.Bench_circuits.counter 8) in
  let graph = Sta.Graph.build problem in
  let provider =
    Sta.Delays.of_placement ~producer:graph.Sta.Graph.block_of problem
      ~coords:(Place.Placement.coords placement)
  in
  let obs = Obs.Registry.create () in
  let a = Sta.Analysis.run graph provider in
  let a = Sta.Analysis.update ~obs ~changed_blocks:[ 0; 1 ] a provider in
  ignore (Sta.Analysis.update ~obs ~changed_blocks:[ 2 ] a provider);
  let v name =
    match Obs.Registry.find (Obs.Registry.snapshot obs) name with
    | Some (Obs.Registry.Counter n) -> n
    | _ -> Alcotest.failf "%s not recorded" name
  in
  Alcotest.(check int) "sta.incr.cones counts moved blocks" 3
    (v "sta.incr.cones");
  Alcotest.(check bool) "sta.incr.nodes-touched recorded" true
    (v "sta.incr.nodes-touched" >= 0)

let suite =
  [
    "criticality bounds" => test_criticality_bounds;
    "incremental update bit-exact" => test_incremental_update_exact;
    "incremental counters" => test_incremental_counters;
    "slack monotone in period" => test_slack_monotone;
    "detff halves the budget" => test_detff_halving;
    "jobs-identical propagation" => test_jobs_identical;
    "top-k path report" => test_report_paths;
    "flow sta counters" => test_flow_counters;
    "sta artifact is plain data" => test_sta_plain_data;
    "provider parity over every arc" => test_provider_parity;
  ]
