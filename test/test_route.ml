(* Router property and regression tests: tree invariants on random
   placements, and the incremental router at the searched minimum
   width. *)

let seed_arb = QCheck.int_bound 100000

let place_random seed =
  let rng = Util.Prng.create (seed + 71) in
  let net =
    Test_properties.random_seq_network rng ~n_inputs:5 ~n_gates:14 ~n_latches:3
  in
  let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
  let packing = Pack.Cluster.pack ~n:5 ~i:12 mapped in
  let problem = Place.Problem.build packing in
  let anneal =
    Place.Anneal.run
      ~options:{ Place.Anneal.seed = seed + 1; inner_num = 0.3 }
      problem
  in
  (problem, anneal.Place.Anneal.placement)

(* Routed trees are acyclic, connect the source to every sink, and the
   final occupancy respects every node's capacity. *)
let prop_routed_trees_valid =
  QCheck.Test.make ~count:10
    ~name:"routing: trees acyclic, connected, within capacity" seed_arb
    (fun seed ->
      let problem, placement = place_random seed in
      let routed =
        Route.Router.route_min_width Fpga_arch.Params.amdrel placement
      in
      let g = routed.Route.Router.graph in
      let nets = Route.Router.net_terminals g problem in
      Route.Pathfinder.no_overuse routed.Route.Router.result
      && Array.for_all
           (fun (spec : Route.Pathfinder.net_spec) ->
             let tr =
               routed.Route.Router.result.Route.Pathfinder.trees.(spec.Route.Pathfinder.index)
             in
             Route.Pathfinder.tree_connects
               ~source:spec.Route.Pathfinder.source
               ~sinks:spec.Route.Pathfinder.sinks tr
             && Route.Pathfinder.tree_acyclic
                  ~source:spec.Route.Pathfinder.source
                  ~sinks:spec.Route.Pathfinder.sinks tr)
           nets)

(* The width search stops on a routability edge: the width it returns
   routes, and the one below it does not (or it is 1).  The opening
   estimate lies in the search's range. *)
let prop_width_search_edge =
  QCheck.Test.make ~count:10 ~name:"width search ends on a routability edge"
    seed_arb (fun seed ->
      let _, placement = place_random seed in
      let params = Fpga_arch.Params.amdrel in
      let e = Route.Router.width_estimate placement in
      match
        (Route.Router.route_min_width ~jobs:1 params placement)
          .Route.Router.min_width
      with
      | None -> false
      | Some w ->
          1 <= e && e <= Route.Router.max_width
          && Route.Router.try_width ~jobs:1 params placement w <> None
          && (w = 1
             || Route.Router.try_width ~jobs:1 params placement (w - 1) = None))

(* A fresh incremental routing of the bench circuits on a rebuilt graph
   at the searched minimum width succeeds and is legal. *)
let test_incremental_at_min_width () =
  List.iter
    (fun (name, vhdl) ->
      let net = Synth.Diviner.synthesize vhdl in
      let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
      let packing = Pack.Cluster.pack ~n:5 ~i:12 mapped in
      let problem = Place.Problem.build packing in
      let placement =
        (Place.Anneal.run
           ~options:{ Place.Anneal.seed = 1; inner_num = 0.5 }
           problem)
          .Place.Anneal.placement
      in
      let routed =
        Route.Router.route_min_width Fpga_arch.Params.amdrel placement
      in
      let width =
        match routed.Route.Router.min_width with
        | Some w -> w
        | None -> routed.Route.Router.width
      in
      let g =
        Route.Rrgraph.build Fpga_arch.Params.amdrel
          problem.Place.Problem.grid placement ~width
      in
      let nets = Route.Router.net_terminals g problem in
      let incr = Route.Pathfinder.route g nets in
      Alcotest.(check bool)
        (Printf.sprintf "%s: incremental succeeds at width %d" name width)
        true incr.Route.Pathfinder.success;
      Alcotest.(check bool)
        (Printf.sprintf "%s: incremental routing is legal" name)
        true (Route.Pathfinder.no_overuse incr))
    [
      ("counter12", Core.Bench_circuits.counter 12);
      ("alu8", Core.Bench_circuits.alu 8);
    ]

(* The per-iteration stats thread through: iteration 1 reroutes every
   net, later iterations only the congested subset, and the counters are
   consistent with the result. *)
let test_iter_stats () =
  let problem, placement = place_random 7 in
  let g =
    Route.Rrgraph.build Fpga_arch.Params.amdrel problem.Place.Problem.grid
      placement ~width:8
  in
  let nets = Route.Router.net_terminals g problem in
  let r = Route.Pathfinder.route g nets in
  let stats = r.Route.Pathfinder.iter_stats in
  Alcotest.(check int) "one stat per iteration"
    r.Route.Pathfinder.iterations (List.length stats);
  (match stats with
  | first :: rest ->
      Alcotest.(check int) "iteration 1 reroutes every net"
        (Array.length nets) first.Route.Pathfinder.nets_rerouted;
      Alcotest.(check bool) "heap pops counted" true
        (first.Route.Pathfinder.heap_pops > 0);
      List.iter
        (fun (s : Route.Pathfinder.iter_stat) ->
          Alcotest.(check bool) "incremental reroutes a subset" true
            (s.Route.Pathfinder.nets_rerouted <= Array.length nets))
        rest
  | [] -> Alcotest.fail "no iteration stats");
  if r.Route.Pathfinder.success then
    match List.rev stats with
    | last :: _ ->
        Alcotest.(check int) "no overused nodes at convergence" 0
          last.Route.Pathfinder.overused_nodes
    | [] -> ()

(* A net whose driver cluster lost the signal must fail loudly, not
   route from slot 0 of the wrong BLE. *)
let test_net_terminals_bad_driver () =
  let problem, placement = place_random 11 in
  let g =
    Route.Rrgraph.build Fpga_arch.Params.amdrel problem.Place.Problem.grid
      placement ~width:6
  in
  (* corrupt one cluster-driven net's signal so no BLE output matches *)
  let nets = problem.Place.Problem.nets in
  let victim =
    Array.to_list nets
    |> List.find_map (fun (n : Place.Problem.net) ->
           match problem.Place.Problem.blocks.(n.Place.Problem.driver) with
           | Place.Problem.Cluster_block _ -> Some n
           | _ -> None)
  in
  match victim with
  | None -> () (* no cluster-driven net in this placement; nothing to test *)
  | Some n ->
      let idx =
        let found = ref (-1) in
        Array.iteri (fun i m -> if m == n then found := i) nets;
        !found
      in
      let saved = nets.(idx) in
      nets.(idx) <- { saved with Place.Problem.signal = max_int };
      let raised =
        match Route.Router.net_terminals g problem with
        | _ -> false
        | exception Failure _ -> true
      in
      nets.(idx) <- saved;
      Alcotest.(check bool) "bad driver signal raises Failure" true raised

(* ---------- the failure predictor ---------- *)

(* Total-overuse histories (chronological) recorded before the predictor
   existed, at the flow's placements and the probes' budget of 60:
   three routings that converged, at widths where overuse lingers above
   12 for a while, and one that failed at half its design's minimum
   width.  Returns the first iteration at which the predictor fires on a
   prefix of the history. *)
let first_trigger history =
  let rec go prefix = function
    | [] -> None
    | over :: rest ->
        let prefix = over :: prefix in
        if Route.Pathfinder.predicts_failure ~max_iterations:60 prefix then
          Some (List.length prefix)
        else go prefix rest
  in
  go [] history

let test_failure_predictor_histories () =
  let check name expected history =
    Alcotest.(check (option int)) name expected (first_trigger history)
  in
  check "alu16 seed 1 W=6 (converges at 52)" None
    [ 50; 42; 37; 25; 22; 16; 12; 16; 15; 16; 15; 15; 11; 10; 10; 9; 8; 8;
      11; 10; 9; 9; 8; 7; 6; 5; 6; 6; 4; 4; 4; 5; 3; 4; 6; 4; 3; 3; 2; 2;
      2; 2; 2; 2; 1; 1; 1; 2; 1; 1; 1; 0 ];
  check "mult16 seed 2 W=24 (converges at 8)" None
    [ 45; 63; 44; 46; 17; 8; 3; 0 ];
  check "alu32 seed 6 W=10 (converges at 25)" None
    [ 99; 113; 86; 83; 62; 38; 23; 19; 13; 10; 10; 9; 6; 6; 6; 5; 4; 4; 3;
      3; 1; 1; 2; 1; 0 ];
  check "mult12 seed 1 W=6 (plateau)" (Some 6)
    [ 615; 603; 603; 609; 611; 611 ];
  (* overuse of 12 or less is the endgame: never predicted, whatever the
     trend before it *)
  List.iter
    (fun (name, history) ->
      Alcotest.(check bool) name false
        (Route.Pathfinder.predicts_failure ~max_iterations:60
           (List.rev history)))
    [
      ("rising to 12", List.init 12 (fun i -> i + 1));
      ("flat at 12", List.init 40 (fun _ -> 12));
      ("plateau, then 12", [ 615; 603; 603; 609; 611; 611; 12 ]);
    ]

(* Widths far below the minimum stop early.  alu16 at the route identity
   pin's placement has Wmin 6; the trend cutoff and the stagnation rule
   alone would run each of these failing routings for 16 iterations of
   the 60-iteration budget. *)
let test_failing_widths_stop_early () =
  let config =
    {
      Core.Flow.default_config with
      Core.Flow.seed = 1;
      jobs = Some 1;
      cache_dir = None;
    }
  in
  let r = Core.Flow.run_vhdl ~config (Core.Bench_circuits.alu 16) in
  let placement = r.Core.Flow.routed.Route.Router.placement in
  let problem = placement.Place.Placement.problem in
  List.iter
    (fun (width, iterations) ->
      let g =
        Route.Rrgraph.build Fpga_arch.Params.amdrel problem.Place.Problem.grid
          placement ~width
      in
      let res =
        Route.Pathfinder.route ~max_iterations:60 g
          (Route.Router.net_terminals g problem)
      in
      Alcotest.(check bool) (Printf.sprintf "W=%d fails" width) false
        res.Route.Pathfinder.success;
      Alcotest.(check int) (Printf.sprintf "W=%d iterations" width) iterations
        res.Route.Pathfinder.iterations)
    [ (3, 6); (4, 6); (5, 10) ]

(* ---------- bbox partitioner properties ---------- *)

(* An ascending-id reroute list with random (possibly degenerate or
   heavily overlapping) bounding boxes, like an iteration hands the
   partitioner. *)
let items_arb =
  let open QCheck.Gen in
  let bbox =
    int_bound 20 >>= fun x0 ->
    int_bound 20 >>= fun y0 ->
    int_bound 6 >>= fun w ->
    int_bound 6 >>= fun h -> return (x0, x0 + w, y0, y0 + h)
  in
  QCheck.make
    ~print:(fun items ->
      String.concat "; "
        (List.map
           (fun (i, (a, b, c, d)) -> Printf.sprintf "%d:(%d,%d,%d,%d)" i a b c d)
           items))
    (int_bound 40 >>= fun n ->
     list_repeat n bbox >|= List.mapi (fun i b -> (i, b)))

let prop_partition_exactly_once =
  QCheck.Test.make ~count:200
    ~name:"partition: every net in exactly one batch" items_arb
    (fun items ->
      let batches = Route.Pathfinder.partition_batches items in
      let ids = List.concat_map (List.map fst) batches in
      List.sort compare ids = List.map fst items)

let prop_partition_batch_disjoint =
  QCheck.Test.make ~count:200
    ~name:"partition: batch members pairwise bbox-disjoint" items_arb
    (fun items ->
      Route.Pathfinder.partition_batches items
      |> List.for_all (fun batch ->
             List.for_all
               (fun (i, bi) ->
                 List.for_all
                   (fun (j, bj) ->
                     i = j || Route.Pathfinder.bbox_disjoint bi bj)
                   batch)
               batch))

let prop_partition_order_preserved =
  QCheck.Test.make ~count:200
    ~name:"partition: ascending-id concatenation recovers the input"
    items_arb
    (fun items ->
      let batches = Route.Pathfinder.partition_batches items in
      (* members ascend within each batch — the commit order contract *)
      List.for_all
        (fun batch ->
          let ids = List.map fst batch in
          List.sort compare ids = ids)
        batches
      && List.sort compare (List.concat batches)
         = List.sort compare items)

(* ---------- intra-route determinism ---------- *)

(* One routing, any pool size: the batched snapshot semantics are
   unconditional, so jobs=1 and jobs=4 must agree on every tree, every
   iteration counter and the batching stats themselves. *)
let test_intra_route_jobs_deterministic () =
  let problem, placement = place_random 4321 in
  let g =
    Route.Rrgraph.build Fpga_arch.Params.amdrel problem.Place.Problem.grid
      placement ~width:7
  in
  let nets = Route.Router.net_terminals g problem in
  let crit = Array.make (Array.length nets) 0.3 in
  let route jobs =
    Route.Pathfinder.route ~jobs
      ~node_delay:
        (Route.Router.node_delays g
           (Route.Timing.default_constants Fpga_arch.Params.amdrel))
      g
      (Route.Router.net_terminals ~criticalities:crit g problem)
  in
  let seq = route 1 and par = route 4 in
  Alcotest.(check bool) "identical route trees" true
    (seq.Route.Pathfinder.trees = par.Route.Pathfinder.trees);
  Alcotest.(check bool) "identical iteration stats" true
    (seq.Route.Pathfinder.iter_stats = par.Route.Pathfinder.iter_stats);
  Alcotest.(check int) "same iteration count" seq.Route.Pathfinder.iterations
    par.Route.Pathfinder.iterations;
  (* the batch counters are live: iteration 1 reroutes every net, so at
     least one batch exists and no batch exceeds the net count *)
  match seq.Route.Pathfinder.iter_stats with
  | first :: _ ->
      Alcotest.(check bool) "batches counted" true
        (first.Route.Pathfinder.batches >= 1);
      Alcotest.(check bool) "batch_max bounded" true
        (first.Route.Pathfinder.batch_max >= 1
        && first.Route.Pathfinder.batch_max <= Array.length nets);
      Alcotest.(check bool) "serial_nets bounded" true
        (first.Route.Pathfinder.serial_nets <= first.Route.Pathfinder.nets_rerouted)
  | [] -> Alcotest.fail "no iteration stats"

(* The speculative parallel width search must replay the sequential
   decision path exactly: same minimum width, same final width, the
   same routing tree for every net, and the same outcome for every
   width both probe tables hold. *)
let test_width_search_jobs_deterministic () =
  let _, placement = place_random 1234 in
  let route jobs =
    let table = Hashtbl.create 16 in
    ( Route.Router.route_min_width ~jobs ~table Fpga_arch.Params.amdrel
        placement,
      table )
  in
  let (seq, seq_table), (par, par_table) = (route 1, route 4) in
  Hashtbl.iter
    (fun w routable ->
      match Hashtbl.find_opt par_table w with
      | Some b ->
          Alcotest.(check bool) (Printf.sprintf "width %d outcome" w)
            routable b
      | None -> ())
    seq_table;
  Alcotest.(check (option int)) "min width" seq.Route.Router.min_width
    par.Route.Router.min_width;
  Alcotest.(check int) "final width" seq.Route.Router.width
    par.Route.Router.width;
  Alcotest.(check bool) "identical route trees" true
    (seq.Route.Router.result.Route.Pathfinder.trees
    = par.Route.Router.result.Route.Pathfinder.trees)

(* Multi-start annealing is seed-deterministic per start, so the winner
   (and its every block location) must not depend on the pool size. *)
let test_multistart_jobs_deterministic () =
  let problem, _ = place_random 99 in
  let run jobs =
    Place.Anneal.run_multistart
      ~options:{ Place.Anneal.seed = 7; inner_num = 0.3 }
      ~jobs ~starts:4 problem
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check (float 0.0)) "final cost" a.Place.Anneal.final_cost
    b.Place.Anneal.final_cost;
  Alcotest.(check bool) "identical block locations" true
    (a.Place.Anneal.placement.Place.Placement.loc
    = b.Place.Anneal.placement.Place.Placement.loc)

(* The multi-start winner must be exactly the best of the individual
   runs — the per-start resummed exit costs feed selection directly, so
   no accumulation drift can flip a comparison. *)
let test_multistart_winner_is_best_run () =
  let problem, _ = place_random 17 in
  let seed = 11 in
  let runs =
    List.init 4 (fun k ->
        Place.Anneal.run
          ~options:{ Place.Anneal.seed = seed + k; inner_num = 0.3 }
          problem)
  in
  let best =
    List.fold_left
      (fun (best : Place.Anneal.result) r ->
        if r.Place.Anneal.final_cost < best.Place.Anneal.final_cost then r
        else best)
      (List.hd runs) (List.tl runs)
  in
  let multi =
    Place.Anneal.run_multistart
      ~options:{ Place.Anneal.seed; inner_num = 0.3 }
      ~jobs:2 ~starts:4 problem
  in
  Alcotest.(check (float 0.0)) "winner cost = best individual cost"
    best.Place.Anneal.final_cost multi.Place.Anneal.final_cost;
  Alcotest.(check bool) "winner placement = best individual placement" true
    (best.Place.Anneal.placement.Place.Placement.loc
    = multi.Place.Anneal.placement.Place.Placement.loc)

(* Budget-adaptive pruning: kill decisions happen on a merged snapshot
   at a barrier, so the winner is jobs-independent; a margin too large
   to ever trigger reproduces the unpruned winner exactly; and pruning
   can only lose starts, never improve on the full set. *)
let test_multistart_pruned_deterministic () =
  let problem, _ = place_random 99 in
  let options = { Place.Anneal.seed = 7; inner_num = 0.3 } in
  let pruned jobs =
    Place.Anneal.run_multistart ~options ~jobs ~starts:4 ~prune_margin:0.3
      ~prune_interval:2 problem
  in
  let p1 = pruned 1 and p4 = pruned 4 in
  Alcotest.(check (float 0.0)) "pruned winner cost jobs-independent"
    p1.Place.Anneal.final_cost p4.Place.Anneal.final_cost;
  Alcotest.(check bool) "pruned winner placement jobs-independent" true
    (p1.Place.Anneal.placement.Place.Placement.loc
    = p4.Place.Anneal.placement.Place.Placement.loc);
  let full =
    Place.Anneal.run_multistart ~options ~jobs:4 ~starts:4 problem
  in
  let never_pruned =
    Place.Anneal.run_multistart ~options ~jobs:4 ~starts:4 ~prune_margin:1e9
      problem
  in
  Alcotest.(check (float 0.0)) "infinite margin = unpruned winner"
    full.Place.Anneal.final_cost never_pruned.Place.Anneal.final_cost;
  Alcotest.(check bool) "infinite margin = unpruned placement" true
    (full.Place.Anneal.placement.Place.Placement.loc
    = never_pruned.Place.Anneal.placement.Place.Placement.loc);
  Alcotest.(check bool) "pruning never beats the full set" true
    (p4.Place.Anneal.final_cost >= full.Place.Anneal.final_cost)

(* starts = 1 must be exactly the single run (the flow default). *)
let test_multistart_single_is_run () =
  let problem, _ = place_random 5 in
  let options = { Place.Anneal.seed = 3; inner_num = 0.3 } in
  let single = Place.Anneal.run ~options problem in
  let multi = Place.Anneal.run_multistart ~options ~jobs:4 ~starts:1 problem in
  Alcotest.(check (float 0.0)) "final cost" single.Place.Anneal.final_cost
    multi.Place.Anneal.final_cost;
  Alcotest.(check bool) "identical block locations" true
    (single.Place.Anneal.placement.Place.Placement.loc
    = multi.Place.Anneal.placement.Place.Placement.loc)

(* The wavefront reads the graph unchecked, so [Pathfinder.route] checks
   every id it can reach before it searches: a successor or a sink that
   is not a node, or a delay table of the wrong length, is refused with
   the check's own [Invalid_argument], not an out-of-bounds read (nor the
   runtime's "index out of bounds", which would mean the search ran). *)
let test_malformed_graph_refused () =
  let problem, placement = place_random 13 in
  let g =
    Route.Rrgraph.build Fpga_arch.Params.amdrel problem.Place.Problem.grid
      placement ~width:6
  in
  let nets = Route.Router.net_terminals g problem in
  let n = Route.Rrgraph.node_count g in
  let refused what ?node_delay g nets =
    match Route.Pathfinder.route ~jobs:1 ?node_delay g nets with
    | _ -> Alcotest.failf "%s: routed" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: refused up front (%s)" what msg)
          true
          (String.starts_with ~prefix:"Pathfinder.route:" msg)
  in
  let edges = Array.map Array.copy g.Route.Rrgraph.edges in
  let u = nets.(0).Route.Pathfinder.source in
  edges.(u).(0) <- n;
  refused "successor = node count" { g with Route.Rrgraph.edges } nets;
  let bad = Array.copy nets in
  bad.(Array.length bad - 1) <-
    { (bad.(Array.length bad - 1)) with Route.Pathfinder.sinks = [ n + 7 ] };
  refused "sink out of range" g bad;
  refused "short node_delay" ~node_delay:(Array.make (n - 1) 1.0) g nets

(* Route identity pin.  The golden timing fixtures pin delays only, and a
   tie-break or float-order change in the router (the heap's tie order,
   the adjacency order, the cost expression: the determinism contract in
   docs/ARCHITECTURE.md) can move routes while every delay stays equal.
   So one uniform-fabric and one mixed-segment design pin, at seed 1 and
   one job: Wmin, the width-probe outcomes (width -> routable), the
   probes' own PathFinder iterations and heap pops (most of a width
   search's work), the final routing's heap pops, iterations and
   rerouted nets, and the MD5 of the bitstream bytes.  The mixed-segment design also runs timing-driven,
   whose final routing uses the criticality-blended cost.  The values
   were recorded before the heap, the PathFinder kernel and the graph
   build were rewritten for speed, which had to reproduce them. *)
let mixed_fabric () =
  Fpga_arch.Params.validate
    {
      Fpga_arch.Params.amdrel with
      Fpga_arch.Params.segments =
        Fpga_arch.Params.segments_of_string "2xL1+1xL2+1xL4";
    }

let test_route_identity_pin () =
  let mixed = mixed_fabric () in
  List.iter
    (fun ( name, params, timing_driven, vhdl, wmin, probes, probe_iterations,
           probe_pops, pops, iterations, rerouted, md5 ) ->
      let config =
        {
          Core.Flow.default_config with
          Core.Flow.params;
          timing_driven;
          seed = 1;
          jobs = Some 1;
          cache_dir = None;
        }
      in
      let r = Core.Flow.run_vhdl ~config vhdl in
      let rs = r.Core.Flow.route_stats in
      Alcotest.(check (option int)) (name ^ " Wmin") (Some wmin)
        rs.Route.Router.minimum_width;
      let table = Hashtbl.create 8 in
      let again =
        Route.Router.route_min_width ~jobs:1 ~table params
          r.Core.Flow.routed.Route.Router.placement
      in
      Alcotest.(check (option int)) (name ^ " Wmin (re-searched)") (Some wmin)
        again.Route.Router.min_width;
      Alcotest.(check (list (pair int bool))) (name ^ " width probes") probes
        (List.sort compare (List.of_seq (Hashtbl.to_seq table)));
      (* the probe gauges are volatile (the probe set grows with a pool),
         exact at one job *)
      List.iter
        (fun (key, want) ->
          Alcotest.(check bool) (name ^ " " ^ key) true
            (Obs.Registry.find r.Core.Flow.metrics key
            = Some (Obs.Registry.Gauge (float_of_int want))))
        [
          ("route.probe-iterations", probe_iterations);
          ("route.probe-heap-pops", probe_pops);
        ];
      Alcotest.(check int) (name ^ " heap pops") pops rs.Route.Router.heap_pops;
      Alcotest.(check int) (name ^ " iterations") iterations
        rs.Route.Router.router_iterations;
      Alcotest.(check int) (name ^ " nets rerouted") rerouted
        rs.Route.Router.nets_rerouted;
      Alcotest.(check string) (name ^ " bitstream MD5") md5
        (Digest.to_hex
           (Digest.string r.Core.Flow.bitstream.Bitstream.Dagger.bytes)))
    [
      ( "alu16 uniform", Fpga_arch.Params.amdrel, false,
        Core.Bench_circuits.alu 16,
        6, [ (5, false); (6, true) ], 62, 474829,
        41307, 8, 234, "4fbd9c41f64837894d434941cc8a8c3d" );
      ( "mult8 2xL1+1xL2+1xL4", mixed, false, Core.Bench_circuits.multiplier 8,
        10, [ (8, false); (9, false); (10, true) ], 50, 543070,
        44676, 6, 255, "4cffe70810e5fa1cb78dc16fbab561af" );
      ( "mult8 2xL1+1xL2+1xL4 timing-driven", mixed, true,
        Core.Bench_circuits.multiplier 8,
        9, [ (7, false); (8, false); (9, true) ], 44, 485905,
        48149, 14, 608, "37cace08d61b229ee57b02a58b4a88d9" );
    ]

(* Place identity pin.  The annealer's determinism contract
   (docs/ARCHITECTURE.md: the PRNG draw order, the ascending touched-net
   order, the sink order, the cost expression, the accept update sequence
   and the pad-table operation order) fixes every placement bit for bit,
   but the golden fixtures are single-start and pin delays only, and the
   multi-start tests compare pool sizes, not absolute values.  So one
   routability-driven single-start design and one timing-driven
   four-start design (default pruning, fixed width, as in the
   place-timing benchmark) pin, at seed 1 and one job: the winner's moves
   and accepted moves, its exact final cost, the MD5 of the marshalled
   placement (the route stage's key input) and the bitstream MD5.  The
   values were recorded before the move kernel was rewritten for speed,
   which had to reproduce them.  [place.moves-evaluated] came with that
   rewrite: every start's moves, so the winner's alone when single-start. *)
let test_place_identity_pin () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (name, config, vhdl, moves, evaluated, accepted, cost, pl_md5, bit_md5) ->
      let config =
        { config with Core.Flow.seed = 1; jobs = Some 1; cache_dir = None }
      in
      let r = Core.Flow.run_vhdl ~config vhdl in
      let metrics = r.Core.Flow.metrics in
      (* the flow records no accepted count: rerun its place stage *)
      let a =
        Core.Flow.place config (Obs.Registry.create ()) r.Core.Flow.packing
      in
      Alcotest.(check int) (name ^ " place.moves") moves
        (Obs.Registry.counter metrics "place.moves");
      Alcotest.(check int) (name ^ " place.moves-evaluated") evaluated
        (Obs.Registry.counter metrics "place.moves-evaluated");
      Alcotest.(check int) (name ^ " replayed moves") moves a.Place.Anneal.moves;
      Alcotest.(check int) (name ^ " place.accepted") accepted
        a.Place.Anneal.accepted;
      Alcotest.(check bool) (name ^ " place.final-cost") true
        (Obs.Registry.find metrics "place.final-cost"
         = Some (Obs.Registry.Gauge cost)
        && a.Place.Anneal.final_cost = cost);
      Alcotest.(check string) (name ^ " placement MD5") pl_md5
        (md5 (Marshal.to_string r.Core.Flow.routed.Route.Router.placement []));
      Alcotest.(check string) (name ^ " replayed placement MD5") pl_md5
        (md5 (Marshal.to_string a.Place.Anneal.placement []));
      Alcotest.(check string) (name ^ " bitstream MD5") bit_md5
        (md5 r.Core.Flow.bitstream.Bitstream.Dagger.bytes))
    [
      ( "alu16 uniform", Core.Flow.default_config, Core.Bench_circuits.alu 16,
        32280, 32280, 16350, 0x1.97a7ef9db22d1p+8,
        "b4570ad1dac8c68633f07ffea83d0c30", "4fbd9c41f64837894d434941cc8a8c3d" );
      ( "mult8 2xL1+1xL2+1xL4 timing-driven 4-start",
        {
          Core.Flow.default_config with
          Core.Flow.params = mixed_fabric ();
          timing_driven = true;
          place_starts = 4;
          search_min_width = false;
          route_width = 12;
        },
        Core.Bench_circuits.multiplier 8,
        25506, 96824, 12791, 0x1.1a3141205bc02p+9,
        "36696255a7a52718300dee451bf19cc5", "f67c2232627cf8856a5575255828374c" );
    ]

let suite =
  [
    Alcotest.test_case "incremental routing at min width" `Slow
      test_incremental_at_min_width;
    Alcotest.test_case "intra-route jobs-deterministic" `Quick
      test_intra_route_jobs_deterministic;
    Alcotest.test_case "width search jobs-deterministic" `Quick
      test_width_search_jobs_deterministic;
    Alcotest.test_case "multi-start jobs-deterministic" `Quick
      test_multistart_jobs_deterministic;
    Alcotest.test_case "multi-start winner = best run" `Quick
      test_multistart_winner_is_best_run;
    Alcotest.test_case "multi-start pruning deterministic" `Quick
      test_multistart_pruned_deterministic;
    Alcotest.test_case "multi-start single = run" `Quick
      test_multistart_single_is_run;
    Alcotest.test_case "per-iteration router stats" `Quick test_iter_stats;
    Alcotest.test_case "net_terminals rejects bad driver" `Quick
      test_net_terminals_bad_driver;
    Alcotest.test_case "route identity pin" `Quick test_route_identity_pin;
    Alcotest.test_case "place identity pin" `Quick test_place_identity_pin;
    Alcotest.test_case "failure predictor on recorded histories" `Quick
      test_failure_predictor_histories;
    Alcotest.test_case "failing widths stop early" `Quick
      test_failing_widths_stop_early;
    Alcotest.test_case "malformed graph refused before the search" `Quick
      test_malformed_graph_refused;
    QCheck_alcotest.to_alcotest prop_routed_trees_valid;
    QCheck_alcotest.to_alcotest prop_width_search_edge;
    QCheck_alcotest.to_alcotest prop_partition_exactly_once;
    QCheck_alcotest.to_alcotest prop_partition_batch_disjoint;
    QCheck_alcotest.to_alcotest prop_partition_order_preserved;
  ]
