(* Routing driver: pin assignment, channel-width search and the routed
   design record the rest of the flow consumes.

   The width search opens at an estimate E of the minimum width, from
   the placement's peak bounding-box channel demand, and walks outward:
   down E-1, E-2, E-4, ... while the widths route, or up E+1, E+2,
   E+4, ... to 128 while they fail, then bisects the last bracket. *)

type routed = {
  problem : Place.Problem.t;
  placement : Place.Placement.t;
  graph : Rrgraph.t;
  result : Pathfinder.result;
  width : int;                (* channel width used *)
  min_width : int option;     (* smallest routable width, if searched *)
  constants : Timing.constants;
}

(* Net specs (driver OPIN, SINK nodes, criticality) for every routable net.
   [criticalities], if given, supplies per-net timing weights (index-aligned
   with the problem's net array). *)
let net_terminals ?criticalities (g : Rrgraph.t) (problem : Place.Problem.t) =
  let packing = problem.Place.Problem.packing in
  Array.mapi
    (fun ni (net : Place.Problem.net) ->
      let source =
        match problem.Place.Problem.blocks.(net.Place.Problem.driver) with
        | Place.Problem.Cluster_block cid ->
            let cluster = packing.Pack.Cluster.clusters.(cid) in
            let slot = ref (-1) in
            List.iteri
              (fun k (b : Pack.Ble.t) ->
                if b.Pack.Ble.output = net.Place.Problem.signal then slot := k)
              cluster.Pack.Cluster.bles;
            if !slot < 0 then
              failwith
                (Printf.sprintf
                   "Router.net_terminals: net %d (signal %d) claims driver \
                    block %d (cluster %d), but no BLE there outputs that \
                    signal"
                   ni net.Place.Problem.signal net.Place.Problem.driver cid);
            Hashtbl.find g.Rrgraph.node_of_opin (net.Place.Problem.driver, !slot)
        | Place.Problem.Input_pad _ | Place.Problem.Output_pad _ ->
            Hashtbl.find g.Rrgraph.node_of_opin (net.Place.Problem.driver, 0)
      in
      let sinks =
        Array.to_list net.Place.Problem.sinks
        |> List.map (fun b -> Hashtbl.find g.Rrgraph.node_of_sink b)
        |> List.sort_uniq compare
      in
      let crit =
        match criticalities with Some c -> c.(ni) | None -> 0.0
      in
      { Pathfinder.index = ni; source; sinks; crit })
    problem.Place.Problem.nets

(* Elmore-style per-node delay estimate used by the timing-driven router. *)
let node_delays (g : Rrgraph.t) (consts : Timing.constants) =
  Array.map
    (fun (node : Rrgraph.node) ->
      match node.Rrgraph.kind with
      | Rrgraph.Chanx _ | Rrgraph.Chany _ ->
          let tiles = float_of_int node.Rrgraph.wire_tiles in
          let r_tile = Timing.wire_r consts node.Rrgraph.seg in
          let c_tile = Timing.wire_c consts node.Rrgraph.seg in
          (consts.Timing.r_switch +. (r_tile *. tiles))
          *. (consts.Timing.c_switch +. (c_tile *. tiles))
      | Rrgraph.Ipin _ -> consts.Timing.t_ipin /. 10.0
      | Rrgraph.Opin _ -> consts.Timing.r_switch *. consts.Timing.c_switch
      | Rrgraph.Sink _ -> 0.0)
    g.Rrgraph.nodes

(* Per-net timing weights for the criticality-weighted PathFinder cost:
   one unified STA pass (placement-distance provider) over the packed
   netlist.  Criticality is capped so the congestion term never vanishes
   and PathFinder can still negotiate overuse away (VPR does the same).
   The weights depend only on the placement, not the channel width, so a
   width search computes them once for its final timing-driven routing. *)
let net_criticalities ?(model = Place.Td_timing.default_model)
    (placement : Place.Placement.t) =
  let problem = placement.Place.Placement.problem in
  let graph = Sta.Graph.build problem in
  let provider =
    Sta.Delays.of_placement ~model ~producer:graph.Sta.Graph.block_of problem
      ~coords:(Place.Placement.coords placement)
  in
  let a = Sta.Analysis.run graph provider in
  Array.map (Float.min 0.95) a.Sta.Analysis.net_criticality

(* One routing at [width], routed or not: the graph and PathFinder's
   result (None when some sink is unreachable).  The width search reads
   a failed attempt's iterations and heap pops, which [try_width]
   drops. *)
let attempt ~max_iterations ?crit ?jobs ?obs (params : Fpga_arch.Params.t)
    (placement : Place.Placement.t) width =
  let problem = placement.Place.Placement.problem in
  let g = Rrgraph.build params problem.Place.Problem.grid placement ~width in
  let criticalities, node_delay =
    match crit with
    | None -> (None, None)
    | Some per_net ->
        (Some per_net, Some (node_delays g (Timing.default_constants params)))
  in
  let nets = net_terminals ?criticalities g problem in
  match Pathfinder.route ~max_iterations ?jobs ?obs ?node_delay g nets with
  | r -> Some (g, r)
  | exception Not_found -> None

let try_width ?(max_iterations = 60) ?crit ?jobs ?obs params placement width =
  match attempt ~max_iterations ?crit ?jobs ?obs params placement width with
  | Some (_, r) as routed when r.Pathfinder.success -> routed
  | _ -> None

(* Route at a fixed width (raises if infeasible). *)
let route_fixed ?(max_iterations = 60) ?timing ?jobs ?obs
    (params : Fpga_arch.Params.t) (placement : Place.Placement.t) ~width =
  let crit = Option.map (fun model -> net_criticalities ~model placement) timing in
  match try_width ~max_iterations ?crit ?jobs ?obs params placement width with
  | Some (g, r) ->
      {
        problem = placement.Place.Placement.problem;
        placement;
        graph = g;
        result = r;
        width;
        min_width = None;
        constants = Timing.default_constants params;
      }
  | None -> failwith (Printf.sprintf "unroutable at channel width %d" width)

(* The widest channel the width search probes, and the widest fixed
   width a compile request may ask for. *)
let max_width = 128

(* The width search opens at [demand_scale] times the placement's peak
   channel demand, rounded.  Fitted over c in [0.60, 0.99] on the
   routability-driven runs of the suite plus alu16, mult8, counter32 and
   accum24 at seeds 1-3 (57 runs): 0.71 runs the fewest probes beyond
   the Wmin/Wmin-1 pair (EXPERIMENTS.md, "Width-search opening
   estimate"). *)
let demand_scale = 0.71

(* Peak bounding-box channel demand: each net spreads the annealer's
   bounding-box cost evenly over the tiles of its box — q(x1-x0)/(wh)
   horizontal and q(y1-y0)/(wh) vertical tracks per tile — and the peak
   is the largest per-tile sum over both directions.  O(sum of box
   areas). *)
let peak_demand (placement : Place.Placement.t) =
  let problem = placement.Place.Placement.problem in
  let grid = problem.Place.Problem.grid in
  let rows = grid.Fpga_arch.Grid.ny + 2 in
  let tiles = (grid.Fpga_arch.Grid.nx + 2) * rows in
  let horiz = Array.make tiles 0.0 and vert = Array.make tiles 0.0 in
  Array.iter
    (fun (net : Place.Problem.net) ->
      let x0, x1, y0, y1 = Place.Placement.net_bbox placement net in
      let area = float_of_int ((x1 - x0 + 1) * (y1 - y0 + 1)) in
      let q =
        Place.Placement.q_factor (1 + Array.length net.Place.Problem.sinks)
      in
      let dx = q *. float_of_int (x1 - x0) /. area
      and dy = q *. float_of_int (y1 - y0) /. area in
      for x = x0 to x1 do
        for y = y0 to y1 do
          let i = (x * rows) + y in
          horiz.(i) <- horiz.(i) +. dx;
          vert.(i) <- vert.(i) +. dy
        done
      done)
    problem.Place.Problem.nets;
  Array.fold_left Float.max (Array.fold_left Float.max 0.0 horiz) vert

let width_estimate placement =
  let e = Float.round (demand_scale *. peak_demand placement) in
  max 1 (min max_width (int_of_float e))

(* What the sequential width search does next from the estimate [e],
   given the probe memo [known] (width -> routable, if probed), in the
   order the header gives.  [bisect] keeps lo unroutable (or 0: width 0
   is unroutable by definition) and hi routable. *)
type step = Probe of int | Found of int | Unroutable

let next_step e known =
  let rec bisect lo hi =
    if hi - lo <= 1 then Found hi
    else
      let mid = (lo + hi) / 2 in
      match known mid with
      | None -> Probe mid
      | Some true -> bisect lo mid
      | Some false -> bisect mid hi
  in
  let rec down hi k =
    let w = e - k in
    if w < 1 then bisect 0 hi
    else
      match known w with
      | None -> Probe w
      | Some true -> down w (2 * k)
      | Some false -> bisect w hi
  in
  let rec up lo k =
    if lo >= max_width then Unroutable
    else
      let w = min max_width (e + k) in
      match known w with
      | None -> Probe w
      | Some true -> bisect lo w
      | Some false -> up w (2 * k)
  in
  match known e with
  | None -> Probe e
  | Some true -> down e 1
  | Some false -> up e 1

(* Find the minimum routable channel width (VPR's headline metric), then
   return the routing at low stress (1.2x the minimum, the usual practice).

   A probe (is width w routable?) is a pure function of (params,
   placement, w): the RR graph is rebuilt per probe and PathFinder is
   deterministic.  The search order is {!next_step} from
   {!width_estimate}, so it too depends on (params, placement) alone.
   That makes the search speculatively parallel: with a [jobs]-domain
   pool we probe, each round, the first [jobs] widths of a breadth-first
   walk of {!next_step}'s decision tree, memoise the outcomes, and then
   advance the sequential decision path over the memo.  The returned
   minimum width (and hence the final routing) is bit-identical for any
   [jobs]. *)
let route_min_width ?(max_iterations = 60) ?timing ?table ?jobs ?obs
    (params : Fpga_arch.Params.t) (placement : Place.Placement.t) =
  let jobs = Util.Parallel.resolve_jobs ?jobs () in
  (* width -> routable?; probes are deterministic, so caching loses
     nothing and speculation never repeats work.  [table], when given,
     IS the memo and the caller owns it: entries it already holds are
     outcomes this search never has to probe for, and the table is
     mutated in place so the caller keeps whatever this search learned.
     Seeding only ever changes which probes run, never their outcomes,
     so the found minimum (and the final routing) stays bit-identical to
     an unseeded search. *)
  let cache : (int, bool) Hashtbl.t =
    match table with Some t -> t | None -> Hashtbl.create 16
  in
  let probes = ref 0 and probe_iterations = ref 0 and probe_pops = ref 0 in
  let probe_batch widths =
    match List.filter (fun w -> not (Hashtbl.mem cache w)) widths with
    | [] -> ()
    | fresh ->
        let arr = Array.of_list (List.sort_uniq compare fresh) in
        probes := !probes + Array.length arr;
        (* probe routings are speculative and their set depends on the
           pool size; suppress their progress events so the stream only
           carries the final routing's iterations, identically at any
           jobs value.  Each worker keeps only the outcome and the work
           counts, not the graph. *)
        let res =
          Obs.Events.without (fun () ->
              Util.Parallel.map ~jobs
                (fun w ->
                  match attempt ~max_iterations params placement w with
                  | Some (_, r) ->
                      ( r.Pathfinder.success,
                        r.Pathfinder.iterations,
                        List.fold_left
                          (fun a (s : Pathfinder.iter_stat) ->
                            a + s.Pathfinder.heap_pops)
                          0 r.Pathfinder.iter_stats )
                  | None -> (false, 0, 0))
                arr)
        in
        Array.iteri
          (fun i w ->
            let routable, iterations, pops = res.(i) in
            probe_iterations := !probe_iterations + iterations;
            probe_pops := !probe_pops + pops;
            Hashtbl.replace cache w routable)
          arr
  in
  let e = width_estimate placement in
  (* up to [budget] widths the sequential search might probe next,
     breadth-first over its decision tree: the width it needs now, then
     the next width under each outcome of that probe, and so on.  The
     failing outcome goes first: the estimate errs low more often than
     high (EXPERIMENTS.md, "Width-search opening estimate"). *)
  let frontier budget =
    let acc = ref [] and count = ref 0 in
    let q = Queue.create () in
    Queue.push [] q;
    while !count < budget && not (Queue.is_empty q) do
      let assumed = Queue.pop q in
      let known w =
        match Hashtbl.find_opt cache w with
        | Some _ as b -> b
        | None -> List.assoc_opt w assumed
      in
      match next_step e known with
      | Probe w ->
          if not (List.mem w !acc) then begin
            acc := w :: !acc;
            incr count
          end;
          Queue.push ((w, false) :: assumed) q;
          Queue.push ((w, true) :: assumed) q
      | Found _ | Unroutable -> ()
    done;
    !acc
  in
  (* each round resolves at least the width the sequential search needs
     next (the frontier's first), so this terminates *)
  let rec search () =
    match next_step e (Hashtbl.find_opt cache) with
    | Found w -> w
    | Unroutable ->
        failwith
          (Printf.sprintf "unroutable even at channel width %d" max_width)
    | Probe _ ->
        probe_batch (frontier jobs);
        search ()
  in
  let min_w = search () in
  (* how many probe routings this search actually ran, and their
     PathFinder iterations and heap pops: with a warm seeded [table]
     the probe count is strictly below the cold count (0 when the table
     already covers the whole decision path).  Volatile because the
     probe set also depends on the pool size (speculation), so the
     deterministic metrics view must exclude them. *)
  (match obs with
  | Some o ->
      List.iter
        (fun (key, v) ->
          Obs.Registry.set ~volatile:true o key (float_of_int v))
        [
          ("route.width-estimate", e);
          ("route.width-probes", !probes);
          ("route.probe-iterations", !probe_iterations);
          ("route.probe-heap-pops", !probe_pops);
        ]
  | None -> ());
  (* low-stress final routing, timing-driven if requested; width probes
     above stay congestion-only AND un-instrumented (the probe set
     depends on the pool size, so only the final routing records into
     [obs] — metrics stay jobs-independent), so the criticalities are
     computed once here, for the final routing alone *)
  let crit = Option.map (fun model -> net_criticalities ~model placement) timing in
  let final_w = max min_w (int_of_float (Float.ceil (1.2 *. float_of_int min_w))) in
  let g, r =
    match
      try_width ~max_iterations:(2 * max_iterations) ?crit ~jobs ?obs params
        placement final_w
    with
    | Some ok -> ok
    | None -> (
        match
          try_width ~max_iterations:(2 * max_iterations) ?crit ~jobs ?obs
            params placement (2 * final_w)
        with
        | Some ok -> ok
        | None -> failwith "low-stress routing failed")
  in
  {
    problem = placement.Place.Placement.problem;
    placement;
    graph = g;
    result = r;
    width = g.Rrgraph.width;
    min_width = Some min_w;
    constants = Timing.default_constants params;
  }

(* Unified post-route STA over the actual routing trees: the routed
   Elmore delays feed the same propagation engine the placer uses, so
   pre- and post-route figures are directly comparable.  [graph] reuses
   a previously built timing graph (it depends only on the problem, not
   the routing).  Elmore delays are measured from each tree's OPIN. *)
let sta ?constraints ?graph ?obs (r : routed) =
  let g =
    match graph with Some g -> g | None -> Sta.Graph.build r.problem
  in
  let is_opin nd =
    match r.graph.Rrgraph.nodes.(nd).Rrgraph.kind with
    | Rrgraph.Opin _ -> true
    | _ -> false
  in
  let routed_tbl = Hashtbl.create 64 in
  Array.iter
    (fun (tr : Pathfinder.route_tree) ->
      let net = r.problem.Place.Problem.nets.(tr.Pathfinder.net_index) in
      let source =
        Option.value
          (List.find_opt is_opin tr.Pathfinder.nodes)
          ~default:(List.hd tr.Pathfinder.nodes)
      in
      Hashtbl.iter
        (fun sink_block d ->
          Hashtbl.replace routed_tbl (net.Place.Problem.signal, sink_block) d)
        (Timing.net_delays r.graph r.constants ~source tr))
    r.result.Pathfinder.trees;
  (* the block delays pre-route STA uses: only the wires differ *)
  let { Place.Td_timing.t_local; t_logic; t_clk_q; t_setup; _ } =
    Place.Td_timing.default_model
  in
  let provider =
    {
      Sta.Delays.name = "routed-elmore";
      producer = g.Sta.Graph.block_of;
      t_local;
      t_logic;
      t_clk_q;
      t_setup;
      wires = Sta.Delays.Routed routed_tbl;
    }
  in
  Sta.Analysis.run ?constraints ?obs g provider

(* ---------- statistics ---------- *)

type stats = {
  channel_width : int;
  minimum_width : int option;
  total_wire_tiles : int;     (* wirelength in tile units *)
  switches_used : int;
  long_wire_nodes : int;      (* routed wire nodes of declared length > 1 *)
  critical_path_s : float;
  router_iterations : int;    (* PathFinder iterations of the final routing *)
  nets_rerouted : int;        (* rip-up/reroute operations, all iterations *)
  heap_pops : int;            (* wavefront size, all iterations *)
  peak_overuse : int;         (* worst per-iteration overused-node count *)
  par_batches : int;          (* bbox-disjoint reroute batches, all iterations *)
  par_batch_max : int;        (* largest batch seen *)
  par_serial_frac : float;    (* rerouted nets that ran in singleton batches *)
}

let stats ?sta:analysis (r : routed) =
  let seg_len =
    r.graph.Rrgraph.params.Fpga_arch.Params.segments
    |> List.map (fun (s : Fpga_arch.Params.segment) -> s.Fpga_arch.Params.s_length)
    |> Array.of_list
  in
  let wire = ref 0 and switches = ref 0 and long_wires = ref 0 in
  Array.iter
    (fun (tr : Pathfinder.route_tree) ->
      List.iter
        (fun nd ->
          let node = r.graph.Rrgraph.nodes.(nd) in
          match node.Rrgraph.kind with
          | Rrgraph.Chanx _ | Rrgraph.Chany _ ->
              wire := !wire + node.Rrgraph.wire_tiles;
              incr switches;
              if
                node.Rrgraph.seg < Array.length seg_len
                && seg_len.(node.Rrgraph.seg) > 1
              then incr long_wires
          | _ -> ())
        tr.Pathfinder.nodes)
    r.result.Pathfinder.trees;
  let iters = r.result.Pathfinder.iter_stats in
  let sum f = List.fold_left (fun a (s : Pathfinder.iter_stat) -> a + f s) 0 iters in
  let rerouted = sum (fun s -> s.Pathfinder.nets_rerouted) in
  let serial = sum (fun s -> s.Pathfinder.serial_nets) in
  (* critical path from the unified STA over the routed trees; [?sta]
     reuses an analysis the caller already ran (the flow's post-route
     report) instead of rebuilding the timing graph *)
  let a = match analysis with Some a -> a | None -> sta r in
  {
    channel_width = r.width;
    minimum_width = r.min_width;
    total_wire_tiles = !wire;
    switches_used = !switches;
    long_wire_nodes = !long_wires;
    critical_path_s = a.Sta.Analysis.dmax;
    router_iterations = r.result.Pathfinder.iterations;
    nets_rerouted = rerouted;
    heap_pops = sum (fun s -> s.Pathfinder.heap_pops);
    peak_overuse =
      List.fold_left (fun a (s : Pathfinder.iter_stat) -> max a s.Pathfinder.overused_nodes) 0 iters;
    par_batches = sum (fun s -> s.Pathfinder.batches);
    par_batch_max =
      List.fold_left (fun a (s : Pathfinder.iter_stat) -> max a s.Pathfinder.batch_max) 0 iters;
    par_serial_frac =
      (if rerouted = 0 then 0.0
       else float_of_int serial /. float_of_int rerouted);
  }
