(* Routing driver: pin assignment, channel-width search and the routed
   design record the rest of the flow consumes. *)

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
    Sta.Delays.of_placement ~model problem
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

(* Find the minimum routable channel width (VPR's headline metric), then
   return the routing at low stress (1.2x the minimum, the usual practice).

   A probe (is width w routable?) is a pure function of (params,
   placement, w): the RR graph is rebuilt per probe and PathFinder is
   deterministic.  That makes the search speculatively parallel: with a
   [jobs]-domain pool we probe, each round, every width the sequential
   search could possibly need next — the doubling sequence during the
   grow phase, the frontier of the binary-search decision tree during
   the shrink phase — memoise the outcomes, and then advance exactly the
   sequential decision path over the cache.  The returned minimum width
   (and hence the final routing) is bit-identical for any [jobs]. *)
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
  let probe w =
    match Hashtbl.find_opt cache w with
    | Some b -> b
    | None ->
        probe_batch [ w ];
        Hashtbl.find cache w
  in
  (* grow phase: the doubling sequence 6, 12, 24, ... <= 128 — the
     sequential probe order; with a pool, the next [jobs] widths of the
     sequence are probed concurrently before scanning in order *)
  let rec doubling w = if w > 128 then [] else w :: doubling (2 * w) in
  let rec grow = function
    | [] -> failwith "unroutable even at channel width 128"
    | ws ->
        let batch = List.filteri (fun i _ -> i < jobs) ws in
        probe_batch batch;
        (match List.find_opt probe batch with
        | Some w -> w
        | None -> grow (List.filteri (fun i _ -> i >= jobs) ws))
  in
  let hi = grow (doubling 6) in
  (* shrink phase: binary search down over (lo, hi]; lo = 0 is by
     definition unroutable, so the whole untested range below 6 is
     covered.  [frontier] walks the decision tree from (lo, hi) through
     the cache and collects, breadth-first, up to [budget] midpoints the
     sequential search might still need — the immediate midpoint first,
     then both speculative children of each unknown outcome. *)
  let frontier lo hi budget =
    let acc = ref [] and count = ref 0 in
    let q = Queue.create () in
    Queue.push (lo, hi) q;
    while !count < budget && not (Queue.is_empty q) do
      let l, h = Queue.pop q in
      if h - l > 1 then begin
        let mid = (l + h) / 2 in
        match Hashtbl.find_opt cache mid with
        | Some true -> Queue.push (l, mid) q
        | Some false -> Queue.push (mid, h) q
        | None ->
            acc := mid :: !acc;
            incr count;
            Queue.push (l, mid) q;
            Queue.push (mid, h) q
      end
    done;
    !acc
  in
  let rec shrink lo hi =
    (* invariant: hi routable, lo not (or lo = 0) *)
    if hi - lo <= 1 then hi
    else begin
      let mid = (lo + hi) / 2 in
      match Hashtbl.find_opt cache mid with
      | Some true -> shrink lo mid
      | Some false -> shrink mid hi
      | None ->
          (* each round resolves at least [mid], so this terminates *)
          if jobs > 1 then probe_batch (frontier lo hi jobs)
          else ignore (probe mid);
          shrink lo hi
    end
  in
  let min_w = shrink 0 hi in
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
   the routing). *)
let sta ?constraints ?graph ?obs (r : routed) =
  let g =
    match graph with Some g -> g | None -> Sta.Graph.build r.problem
  in
  let provider = Sta_provider.routed r.problem r.graph r.constants r.result in
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
    Fpga_arch.Params.effective_segments r.graph.Rrgraph.params
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
