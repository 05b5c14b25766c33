(* PathFinder negotiated-congestion routing (McMurchie & Ebeling), the
   algorithm VPR uses.

   Iteration 1 routes every net with A*-directed Dijkstra over node costs
   base * (1 + acc_fac * history) * present, where [present] penalises
   current overuse and grows geometrically between iterations.  Later
   iterations are incremental: only nets whose trees touch an
   over-capacity node are ripped up and rerouted; legal trees keep their
   routing and their occupancy.  Convergence = no node used beyond its
   capacity.

   Three stopping rules give up early on a routing that will not
   converge, so a failing width probe does not burn the whole budget.
   While total overuse is above 12, the failure predictor
   ([predicts_failure]) gives up from iteration 6 when a log-linear fit
   of the overuse history reaches overuse 1 only past the budget, or
   never, and the trend cutoff gives up from iteration 16 when overuse
   fell less than 25 % over the last 8 iterations.  The stagnation rule
   gives up after 16 iterations without a new best overuse.  Each reads
   only the routing's own overuse history, so a routing stops at the
   same iteration for any [jobs].

   The inner loop is net-parallel: each iteration's reroute list is
   partitioned into batches of pairwise-disjoint bounding boxes
   ([partition_batches]); a batch rips up all its nets, routes them
   concurrently on the [Util.Parallel] Domain pool against the frozen
   cost state, then commits occupancy and trees in ascending net-id
   order.  Because every net of a batch sees the identical snapshot and
   the merge order is fixed, the routing is bit-identical for any [jobs]
   value — the deterministic-merge contract (docs/OBSERVABILITY.md). *)

type net_spec = {
  index : int;               (* position in the problem's net array *)
  source : int;              (* driver OPIN node *)
  sinks : int list;          (* SINK nodes *)
  crit : float;              (* timing criticality in [0,1]; 0 = pure
                                congestion-driven routing *)
}

type route_tree = {
  net_index : int;
  nodes : int list;          (* all RR nodes of the net's routing *)
  parents : (int * int) list; (* (node, parent-node) edges of the tree *)
}

type iter_stat = {
  iteration : int;
  overused_nodes : int;      (* nodes above capacity after the iteration *)
  nets_rerouted : int;       (* nets ripped up and rerouted *)
  heap_pops : int;           (* wavefront size: heap pops this iteration *)
  batches : int;             (* bbox-disjoint reroute batches *)
  batch_max : int;           (* nets in the largest batch *)
  serial_nets : int;         (* nets that routed in singleton batches *)
}

type result = {
  graph : Rrgraph.t;
  trees : route_tree array;
  iterations : int;
  success : bool;
  iter_stats : iter_stat list; (* chronological, one per iteration *)
}

(* ---------- the wavefront heap ---------- *)

(* Binary min-heap: float priorities, int payloads (RR node ids), in two
   flat arrays.  Stale entries are the caller's business: decrease-key
   is emulated by re-insertion, the standard trick for Dijkstra.  The
   sift code fixes the order in which equal priorities pop, and the
   routes depend on that order, so it is part of the determinism
   contract (docs/ARCHITECTURE.md).

   No priority crosses a call boxed: [push] is inlined into the
   wavefront, [pop] returns the payload alone, and the wavefront reads
   the minimum priority from [prio.(0)] itself.  The sifts index only
   slots below [size], which [grow] keeps inside both arrays, so they
   read and write unchecked. *)
module Heap = struct
  type t = {
    mutable prio : float array;
    mutable data : int array;
    mutable size : int;
  }

  let create () = { prio = [||]; data = [||]; size = 0 }

  let length h = h.size

  let clear h = h.size <- 0

  let grow h =
    let cap = Array.length h.prio in
    let ncap = if cap = 0 then 16 else 2 * cap in
    let np = Array.make ncap 0.0 and nd = Array.make ncap 0 in
    Array.blit h.prio 0 np 0 h.size;
    Array.blit h.data 0 nd 0 h.size;
    h.prio <- np;
    h.data <- nd

  (* The sifts take the arrays as arguments; the type annotations keep
     their comparisons and accesses specialised to float and int (left
     polymorphic, they box every priority they read). *)
  let rec sift_up (prio : float array) (data : int array) i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if Array.unsafe_get prio i < Array.unsafe_get prio parent then begin
        let p = Array.unsafe_get prio i and d = Array.unsafe_get data i in
        Array.unsafe_set prio i (Array.unsafe_get prio parent);
        Array.unsafe_set data i (Array.unsafe_get data parent);
        Array.unsafe_set prio parent p;
        Array.unsafe_set data parent d;
        sift_up prio data parent
      end
    end

  let[@inline] push h p x =
    if h.size >= Array.length h.prio then grow h;
    let i = h.size in
    Array.unsafe_set h.prio i p;
    Array.unsafe_set h.data i x;
    h.size <- i + 1;
    sift_up h.prio h.data i

  let rec sift_down (prio : float array) (data : int array) size i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest =
      if l < size && Array.unsafe_get prio l < Array.unsafe_get prio i then l
      else i
    in
    let smallest =
      if r < size && Array.unsafe_get prio r < Array.unsafe_get prio smallest
      then r
      else smallest
    in
    if smallest <> i then begin
      let p = Array.unsafe_get prio i and d = Array.unsafe_get data i in
      Array.unsafe_set prio i (Array.unsafe_get prio smallest);
      Array.unsafe_set data i (Array.unsafe_get data smallest);
      Array.unsafe_set prio smallest p;
      Array.unsafe_set data smallest d;
      sift_down prio data size smallest
    end

  let min_prio h =
    if h.size = 0 then raise Not_found;
    Array.unsafe_get h.prio 0

  (* Remove the minimum-priority entry and return its payload. *)
  let pop h =
    if h.size = 0 then raise Not_found;
    let x = Array.unsafe_get h.data 0 in
    let size = h.size - 1 in
    h.size <- size;
    if size > 0 then begin
      Array.unsafe_set h.prio 0 (Array.unsafe_get h.prio size);
      Array.unsafe_set h.data 0 (Array.unsafe_get h.data size);
      sift_down h.prio h.data size 0
    end;
    x
end

(* Per-[route] cost state.  [cap] and [base] are the graph's node
   capacities and base costs, flattened once per call.  [cong.(v)] is
   the cost of entering node v, cached: [set_cong] rewrites it whenever
   v's occupancy changes, and [set_all_cong] whenever the history or
   [pres_fac] does, so the wavefront reads one array per relaxed edge
   and gets the value the expression gives at that moment. *)
type state = {
  occ : int array;
  history : float array;
  mutable pres_fac : float;
  cap : int array;
  base : float array;
  cong : float array;
}

(* base x (1 + history) x present, where [present] penalises the
   overuse one more occupant would cause.  The expression and its
   operand order are part of the determinism contract. *)
let set_cong st v =
  let over = st.occ.(v) + 1 - st.cap.(v) in
  let present =
    if over > 0 then 1.0 +. (float_of_int over *. st.pres_fac) else 1.0
  in
  st.cong.(v) <- st.base.(v) *. (1.0 +. st.history.(v)) *. present

let set_all_cong st =
  for v = 0 to Array.length st.cong - 1 do
    set_cong st v
  done

let occupy st nodes =
  List.iter
    (fun nd ->
      st.occ.(nd) <- st.occ.(nd) + 1;
      set_cong st nd)
    nodes

let release st nodes =
  List.iter
    (fun nd ->
      st.occ.(nd) <- st.occ.(nd) - 1;
      set_cong st nd)
    nodes

(* Scratch buffers shared across nets and iterations within one [route]
   call.  [dist]/[prev]/[la] are validated by a generation stamp instead
   of being re-filled per sink: a slot is live only when
   [stamp.(v) = epoch], so starting a fresh search is an integer
   increment, not an O(n) fill. *)
type scratch = {
  dist : float array;
  prev : int array;
  la : float array;          (* A* lookahead, computed once per wavefront *)
  stamp : int array;
  mutable epoch : int;
  in_tree : bool array;
  is_sink : bool array;
  heap : Heap.t;
  mutable pops : int;        (* heap pops since last reset (observability) *)
}

let make_scratch n =
  {
    dist = Array.make n infinity;
    prev = Array.make n (-1);
    la = Array.make n 0.0;
    stamp = Array.make n 0;
    epoch = 0;
    in_tree = Array.make n false;
    is_sink = Array.make n false;
    heap = Heap.create ();
    pops = 0;
  }

(* One scratch per domain: nets of a batch route concurrently, each
   worker on its own generation-stamped arrays; the calling domain keeps
   its scratch across batches, iterations and [route] calls (a slot is
   live only when stamped with the current epoch, so reuse across graphs
   of equal node count is invisible). *)
let scratch_slot : scratch Util.Parallel.scratch_slot =
  Util.Parallel.scratch_slot ()

let domain_scratch n =
  Util.Parallel.scratch scratch_slot
    ~valid:(fun sc -> Array.length sc.dist >= n)
    ~create:(fun () -> make_scratch n)

let gap lo1 hi1 lo2 hi2 =
  let d1 = lo2 - hi1 and d2 = lo1 - hi2 in
  if d1 > 0 then d1 else if d2 > 0 then d2 else 0

(* Route one net: grow a tree from the driver OPIN to every sink.  Each
   wavefront expands from the whole current tree and stops at whichever
   remaining sink is cheapest (the classic PathFinder order); the A*
   lookahead directs it with the Manhattan gap between a node's extent
   and the remaining sinks — admissible, since a wire of L tiles costs at
   least L (base_cost = tiles, congestion multipliers >= 1), so crossing
   d tiles never costs less than d.  A wire's whole span counts: once
   paid for, it can be exited at any switch point along it.  A node's
   lookahead is computed when the wavefront first reaches it and reused
   for its re-pushes and its stale-entry checks.  [bounds], if given,
   restricts the search to nodes intersecting the rectangle (VPR's
   bounding-box routing).

   The cost of entering node v is its cached congestion cost
   [st.cong.(v)] ([set_cong]).  With [node_delay] and [crit] > 0 it is
   the timing-driven blend (the VPR router's cost): crit x delay /
   delay_norm + (1 - crit) x congestion, where [delay_norm] (the largest
   per-node delay of the graph) scales the delay term into [0,1] so the
   blend is architecture-independent.  The float expressions, the heap's
   tie order and the adjacency order together fix the routes
   (docs/ARCHITECTURE.md).

   The relaxation loop reads unchecked: [route] has checked every id the
   wavefront can reach ([check_graph]), and the scratch arrays hold at
   least one slot per node. *)
let route_net (g : Rrgraph.t) st sc ?node_delay ?bounds ~delay_norm
    ~astar_fac ~crit ~source ~sinks () =
  let xlo = g.Rrgraph.xlo and xhi = g.Rrgraph.xhi in
  let ylo = g.Rrgraph.ylo and yhi = g.Rrgraph.yhi in
  let edges = g.Rrgraph.edges and cong = st.cong in
  let timing, delays =
    match node_delay with
    | Some d when crit > 0.0 -> (true, d)
    | _ -> (false, [||])
  in
  let bx0, bx1, by0, by1 =
    match bounds with
    | Some b -> b
    | None -> (min_int, max_int, min_int, max_int)
  in
  let dist = sc.dist and prev = sc.prev and la = sc.la in
  let stamp = sc.stamp and heap = sc.heap in
  let tree_nodes = ref [ source ] in
  let tree_parents = ref [] in
  sc.in_tree.(source) <- true;
  List.iter (fun t -> sc.is_sink.(t) <- true) sinks;
  let remaining = ref sinks in
  let cleanup () =
    List.iter (fun t -> sc.is_sink.(t) <- false) sinks;
    List.iter (fun t -> sc.in_tree.(t) <- false) !tree_nodes
  in
  (* lookahead to the cheapest-to-reach remaining sink: the min over
     target rectangles, which are the sinks themselves for small fanout
     and their bounding hull for large (both admissible); [aim] sets the
     targets per wavefront *)
  let tx0 = Array.make 6 0 and tx1 = Array.make 6 0 in
  let ty0 = Array.make 6 0 and ty1 = Array.make 6 0 in
  let n_targets = ref 0 in
  let target k x0 x1 y0 y1 =
    tx0.(k) <- x0;
    tx1.(k) <- x1;
    ty0.(k) <- y0;
    ty1.(k) <- y1
  in
  let aim rem =
    if List.length rem <= 6 then begin
      List.iteri (fun k t -> target k xlo.(t) xhi.(t) ylo.(t) yhi.(t)) rem;
      n_targets := List.length rem
    end
    else begin
      target 0
        (List.fold_left (fun m t -> min m xlo.(t)) max_int rem)
        (List.fold_left (fun m t -> max m xhi.(t)) min_int rem)
        (List.fold_left (fun m t -> min m ylo.(t)) max_int rem)
        (List.fold_left (fun m t -> max m yhi.(t)) min_int rem);
      n_targets := 1
    end
  in
  let set_lookahead v =
    let x0 = Array.unsafe_get xlo v and x1 = Array.unsafe_get xhi v in
    let y0 = Array.unsafe_get ylo v and y1 = Array.unsafe_get yhi v in
    let m = ref max_int in
    for k = 0 to !n_targets - 1 do
      let d = gap x0 x1 tx0.(k) tx1.(k) + gap y0 y1 ty0.(k) ty1.(k) in
      if d < !m then m := d
    done;
    Array.unsafe_set la v (astar_fac *. float_of_int !m)
  in
  (try
     while !remaining <> [] do
       (* multi-source directed search from the current tree *)
       aim !remaining;
       sc.epoch <- sc.epoch + 1;
       let epoch = sc.epoch in
       Heap.clear heap;
       List.iter
         (fun t ->
           stamp.(t) <- epoch;
           dist.(t) <- 0.0;
           prev.(t) <- -1;
           set_lookahead t;
           Heap.push heap la.(t) t)
         !tree_nodes;
       let target = ref (-1) in
       (try
          while Heap.length heap > 0 do
            let f = Array.unsafe_get heap.Heap.prio 0 in
            let u = Heap.pop heap in
            sc.pops <- sc.pops + 1;
            (* stale-entry check: the pushed key was dist + lookahead *)
            let du = Array.unsafe_get dist u in
            if f <= du +. Array.unsafe_get la u then begin
              if Array.unsafe_get sc.is_sink u then begin
                target := u;
                raise Exit
              end;
              let succ = Array.unsafe_get edges u in
              for i = 0 to Array.length succ - 1 do
                let v = Array.unsafe_get succ i in
                if
                  Array.unsafe_get xhi v >= bx0
                  && Array.unsafe_get xlo v <= bx1
                  && Array.unsafe_get yhi v >= by0
                  && Array.unsafe_get ylo v <= by1
                then begin
                  let c =
                    if timing then
                      (crit *. Array.unsafe_get delays v /. delay_norm)
                      +. ((1.0 -. crit) *. Array.unsafe_get cong v)
                    else Array.unsafe_get cong v
                  in
                  let nd = du +. c in
                  let fresh = Array.unsafe_get stamp v <> epoch in
                  if nd < (if fresh then infinity else Array.unsafe_get dist v)
                  then begin
                    if fresh then begin
                      Array.unsafe_set stamp v epoch;
                      set_lookahead v
                    end;
                    Array.unsafe_set dist v nd;
                    Array.unsafe_set prev v u;
                    Heap.push heap (nd +. Array.unsafe_get la v) v
                  end
                end
              done
            end
          done
        with Exit -> ());
       if !target < 0 then raise Not_found;
       (* trace back, adding path nodes to the tree *)
       let rec back v =
         if not sc.in_tree.(v) then begin
           sc.in_tree.(v) <- true;
           tree_nodes := v :: !tree_nodes;
           tree_parents := (v, prev.(v)) :: !tree_parents;
           back prev.(v)
         end
       in
       back !target;
       sc.is_sink.(!target) <- false;
       remaining := List.filter (fun t -> t <> !target) !remaining
     done
   with e -> cleanup (); raise e);
  cleanup ();
  (List.sort_uniq compare !tree_nodes, !tree_parents)

(* ---------- net-parallel batches ---------- *)

(* Two bounding boxes are disjoint when they share no tile in x or in y.
   Disjoint nets cannot contend for an RR node: every node a bounded
   search may read or claim intersects the net's box. *)
let bbox_disjoint (ax0, ax1, ay0, ay1) (bx0, bx1, by0, by1) =
  ax1 < bx0 || bx1 < ax0 || ay1 < by0 || by1 < ay0

(* Partition a reroute list (ascending net ids, one bounding box each)
   into batches of pairwise-disjoint boxes: sort by x-start and first-fit
   each interval into the earliest batch whose x-extents it clears — the
   classic interval-partitioning sweep, so overlapping nets land in
   different batches and a fully-overlapping list degrades to singleton
   batches.  Deterministic: ties sort by net id, batches keep creation
   order, members come back in ascending net id. *)
let partition_batches items =
  let by_x =
    List.sort
      (fun (i, (ax0, _, _, _)) (j, (bx0, _, _, _)) -> compare (ax0, i) (bx0, j))
      items
  in
  let batches = ref [] in (* (max-xhi ref, members ref) in creation order *)
  List.iter
    (fun ((_, (x0, x1, _, _)) as item) ->
      let rec place = function
        | [] -> batches := !batches @ [ (ref x1, ref [ item ]) ]
        | (hi, members) :: rest ->
            if x0 > !hi then begin
              hi := max !hi x1;
              members := item :: !members
            end
            else place rest
      in
      place !batches)
    by_x;
  List.map
    (fun (_, members) ->
      List.sort (fun (i, _) (j, _) -> compare i j) !members)
    !batches

(* Negotiation schedule: the present-overuse factor starts at
   [pres_fac0] and grows by [pres_mult] per iteration; each overused
   node's history cost grows by [acc_fac] per unit of overuse. *)
let pres_fac0 = 0.5
let pres_mult = 1.6
let acc_fac = 0.4

(* The failure predictor: least-squares fit of ln(overuse) against the
   iteration number over the whole history.  It waits for 6 points (the
   first iterations can rise while nets spread out of their first-pass
   corridors) and leaves overuse of 12 or less to the endgame, the same
   guard as the trend cutoff.  A zero in the history (never seen there:
   overuse 0 ends the routing) makes the fit NaN, which never predicts. *)
let predicts_failure ~max_iterations over_hist =
  let n = List.length over_hist in
  match over_hist with
  | latest :: _ when n >= 6 && latest > 12 ->
      let sx = ref 0.0 and sy = ref 0.0 in
      let sxx = ref 0.0 and sxy = ref 0.0 in
      List.iteri
        (fun k over ->
          let x = float_of_int (n - k) and y = log (float_of_int over) in
          sx := !sx +. x;
          sy := !sy +. y;
          sxx := !sxx +. (x *. x);
          sxy := !sxy +. (x *. y))
        over_hist;
      let nf = float_of_int n in
      let slope =
        ((nf *. !sxy) -. (!sx *. !sy)) /. ((nf *. !sxx) -. (!sx *. !sx))
      in
      let intercept = (!sy -. (slope *. !sx)) /. nf in
      (* ln(overuse) = intercept + slope * i reaches 0 at -intercept/slope *)
      slope >= 0.0 || -.intercept /. slope > float_of_int max_iterations
  | _ -> false

(* The wavefront reads the graph unchecked, so [route] checks once, up
   front, that every id it can reach is a node: each successor and each
   net's source and sinks lies in [0, n), and every per-node array has n
   entries.  amdreld compiles untrusted input: a malformed graph fails
   here with [Invalid_argument] and never reads out of bounds. *)
let check_graph (g : Rrgraph.t) nets node_delay =
  let n = Rrgraph.node_count g in
  let fail fmt = Printf.ksprintf invalid_arg ("Pathfinder.route: " ^^ fmt) in
  let per_node what len =
    if len <> n then fail "%s has %d entries for %d nodes" what len n
  in
  let node what v =
    if v < 0 || v >= n then fail "%s %d is not a node id (%d nodes)" what v n
  in
  per_node "edges" (Array.length g.Rrgraph.edges);
  per_node "xlo" (Array.length g.Rrgraph.xlo);
  per_node "xhi" (Array.length g.Rrgraph.xhi);
  per_node "ylo" (Array.length g.Rrgraph.ylo);
  per_node "yhi" (Array.length g.Rrgraph.yhi);
  Option.iter (fun d -> per_node "node_delay" (Array.length d)) node_delay;
  Array.iter (Array.iter (node "successor")) g.Rrgraph.edges;
  Array.iter
    (fun spec ->
      node "source" spec.source;
      List.iter (node "sink") spec.sinks)
    nets

let route ?(max_iterations = 30) ?jobs ?obs
    ?node_delay (g : Rrgraph.t) (nets : net_spec array) =
  check_graph g nets node_delay;
  let jobs = Util.Parallel.resolve_jobs ?jobs () in
  (* telemetry: histogram samples go to the caller's registry (if any);
     both sites below run on the calling domain, and the sample set is
     the deterministic routing itself, so recording is jobs-independent *)
  let observe key v =
    match obs with Some o -> Obs.Registry.observe o key v | None -> ()
  in
  let n = Rrgraph.node_count g in
  let st =
    {
      occ = Array.make n 0;
      history = Array.make n 0.0;
      pres_fac = pres_fac0;
      cap = Array.map (fun nd -> nd.Rrgraph.capacity) g.Rrgraph.nodes;
      base = Array.map (fun nd -> nd.Rrgraph.base_cost) g.Rrgraph.nodes;
      cong = Array.make n 0.0;
    }
  in
  set_all_cong st;
  let delay_norm =
    match node_delay with
    | Some delays ->
        let m = Array.fold_left Float.max 0.0 delays in
        if m > 0.0 then m else 1.0
    | None -> 1.0
  in
  let trees =
    Array.map (fun spec -> { net_index = spec.index; nodes = []; parents = [] }) nets
  in
  let iteration = ref 0 in
  let done_ = ref false in
  let hopeless = ref false in
  (* early exit on stagnation: congestion that stops improving will not
     converge at this width, so stop burning iterations (VPR does the same) *)
  let best_overuse = ref max_int in
  let since_improvement = ref 0 in
  let over_hist = ref [] in  (* total overuse per iteration, latest first *)
  let iter_stats = ref [] in
  let total_overuse () =
    let k = ref 0 in
    Array.iteri
      (fun i used ->
        let over = used - st.cap.(i) in
        if over > 0 then k := !k + over)
      st.occ;
    !k
  in
  let overused_count () =
    let k = ref 0 in
    Array.iteri
      (fun i used ->
        if used > st.cap.(i) then incr k)
      st.occ;
    !k
  in
  (* a net must reroute when it has no tree yet or its tree touches an
     over-capacity node (its routing is part of the congestion) *)
  let congested tr =
    tr.nodes = []
    || List.exists
         (fun nd -> st.occ.(nd) > st.cap.(nd))
         tr.nodes
  in
  (* bounding box of a net's terminals, expanded by 3 tiles; a net that
     cannot route inside it retries unrestricted *)
  let search_bounds idx =
    let spec = nets.(idx) in
    let terminals = spec.source :: spec.sinks in
    let margin = 3 in
    ( List.fold_left (fun m t -> min m g.Rrgraph.xlo.(t)) max_int terminals
      - margin,
      List.fold_left (fun m t -> max m g.Rrgraph.xhi.(t)) 0 terminals + margin,
      List.fold_left (fun m t -> min m g.Rrgraph.ylo.(t)) max_int terminals
      - margin,
      List.fold_left (fun m t -> max m g.Rrgraph.yhi.(t)) 0 terminals + margin )
  in
  (* the batch bbox additionally covers the net's current tree: ripping a
     batch-mate up must not touch nodes another member's bounded search
     reads (a tree can stray outside its terminals' box after an
     unrestricted retry) *)
  let batch_bbox idx ((bx0, bx1, by0, by1) as bounds) =
    match trees.(idx).nodes with
    | [] -> bounds
    | tree_nodes ->
        List.fold_left
          (fun (x0, x1, y0, y1) nd ->
            ( min x0 g.Rrgraph.xlo.(nd),
              max x1 g.Rrgraph.xhi.(nd),
              min y0 g.Rrgraph.ylo.(nd),
              max y1 g.Rrgraph.yhi.(nd) ))
          (bx0, bx1, by0, by1) tree_nodes
  in
  (* Route one net against the current (frozen) cost state, on this
     domain's scratch.  Reads [st] and the graph only; all writes land in
     domain-local scratch, so a batch of these runs race-free. *)
  let route_one (idx, bounds) =
    let sc = domain_scratch n in
    let spec = nets.(idx) in
    (* per-net jitter on the lookahead strength: breaking cost ties
       toward the target herds competing nets onto the same corridors,
       so give each net a slightly different preference (all factors
       <= 1 keep the lookahead admissible) *)
    let astar_fac =
      let phi = Float.rem (float_of_int idx *. 0.6180339887) 1.0 in
      0.7 +. (0.3 *. phi)
    in
    let pops0 = sc.pops in
    let nodes, parents =
      match
        route_net g st sc ?node_delay ~bounds ~delay_norm ~astar_fac
          ~crit:spec.crit ~source:spec.source ~sinks:spec.sinks ()
      with
      | r -> r
      | exception Not_found ->
          route_net g st sc ?node_delay ~delay_norm ~astar_fac
            ~crit:spec.crit ~source:spec.source ~sinks:spec.sinks ()
    in
    (nodes, parents, sc.pops - pops0)
  in
  (* incremental rip-up can wedge: legal nets freeze on resources the
     congested ones need.  When overuse stops improving, fall back to one
     classic full rip-up iteration to reshuffle the negotiation. *)
  let force_full = ref false in
  while (not !done_) && (not !hopeless) && !iteration < max_iterations do
    incr iteration;
    let t0 = Unix.gettimeofday () in
    let full = !iteration = 1 || !force_full in
    force_full := false;
    (* the iteration's reroute list, ascending net id *)
    let reroute = ref [] in
    Array.iteri
      (fun idx _ ->
        if full || congested trees.(idx) then reroute := idx :: !reroute)
      nets;
    let reroute = List.rev !reroute in
    let rerouted = List.length reroute in
    (* group the list into batches of pairwise-disjoint bounding boxes;
       batches run in order, and within a batch every net routes against
       the same frozen cost state, so the result is identical for any
       [jobs] — the deterministic-merge contract *)
    let with_bounds =
      List.map (fun idx -> (idx, search_bounds idx)) reroute
    in
    let batches =
      partition_batches
        (List.map (fun (idx, b) -> (idx, batch_bbox idx b)) with_bounds)
    in
    let bounds_of = Hashtbl.create (max 16 rerouted) in
    List.iter (fun (idx, b) -> Hashtbl.replace bounds_of idx b) with_bounds;
    let iter_pops = ref 0 in
    let iter_batches = ref 0 and iter_batch_max = ref 0 in
    let iter_serial = ref 0 in
    List.iter
      (fun batch ->
        incr iter_batches;
        let k = List.length batch in
        if k > !iter_batch_max then iter_batch_max := k;
        if k = 1 then incr iter_serial;
        (* rip up the whole batch, then route against the frozen state *)
        List.iter (fun (idx, _) -> release st trees.(idx).nodes) batch;
        let tasks =
          Array.of_list
            (List.map (fun (idx, _) -> (idx, Hashtbl.find bounds_of idx)) batch)
        in
        let results =
          if jobs > 1 && k > 1 then Util.Parallel.map ~jobs route_one tasks
          else Array.map route_one tasks
        in
        (* commit occupancy and trees in ascending net-id order *)
        Array.iteri
          (fun i (idx, _) ->
            let nodes, parents, pops = results.(i) in
            occupy st nodes;
            trees.(idx) <- { net_index = nets.(idx).index; nodes; parents };
            observe "route.net-heap-pops" (float_of_int pops);
            iter_pops := !iter_pops + pops)
          tasks)
      batches;
    let over = total_overuse () in
    let overused = overused_count () in
    observe "route.iter-overuse" (float_of_int overused);
    Obs.Events.emit
      (Obs.Events.Route_iteration
         {
           iteration = !iteration;
           overused;
           rerouted;
           heap_pops = !iter_pops;
           wall_s = Unix.gettimeofday () -. t0;
         });
    iter_stats :=
      {
        iteration = !iteration;
        overused_nodes = overused;
        nets_rerouted = rerouted;
        heap_pops = !iter_pops;
        batches = !iter_batches;
        batch_max = !iter_batch_max;
        serial_nets = !iter_serial;
      }
      :: !iter_stats;
    over_hist := over :: !over_hist;
    if over = 0 then done_ := true
    else begin
      (* The three stopping rules.  The failure predictor ends a width
         far below the minimum, whose overuse sits on a plateau or decays
         too slowly to reach zero within the budget, from iteration 6.
         The trend cutoff catches a width whose overuse decays slowly but
         monotonically enough to dodge the stagnation counter and the
         fit's projection: it demands real progress — 25% down vs 8
         iterations ago — from iteration 16.  Both leave overuse of 12 or
         less alone (the endgame clears a handful of nodes in lumpy
         steps); the stagnation rule below covers it. *)
      if predicts_failure ~max_iterations !over_hist then hopeless := true;
      (if !iteration >= 16 && over > 12 then
         match List.nth_opt !over_hist 8 with
         | Some prev when float_of_int over > 0.75 *. float_of_int prev ->
             hopeless := true
         | _ -> ());
      if over < !best_overuse then begin
        best_overuse := over;
        since_improvement := 0
      end
      else begin
        incr since_improvement;
        (* near convergence (small overuse) a wedge needs sustained
           shaking: go full every stagnant iteration.  Far from
           convergence full rip-ups are expensive and the width is
           probably infeasible, so only shake periodically. *)
        force_full :=
          if over <= 12 then !since_improvement >= 2
          else !since_improvement mod 3 = 0
      end;
      (* incremental iterations are cheap, so stagnation gets patience
         that covers several full-rip-up shake-ups *)
      if !since_improvement >= 16 then hopeless := true;
      (* update history on overused nodes, sharpen the present penalty *)
      Array.iteri
        (fun i used ->
          let o = used - st.cap.(i) in
          if o > 0 then
            st.history.(i) <- st.history.(i) +. (acc_fac *. float_of_int o))
        st.occ;
      st.pres_fac <- st.pres_fac *. pres_mult;
      set_all_cong st
    end
  done;
  {
    graph = g;
    trees;
    iterations = !iteration;
    success = !done_;
    iter_stats = List.rev !iter_stats;
  }

(* ---------- verification helpers ---------- *)

(* No node is used beyond capacity. *)
let no_overuse (r : result) =
  let n = Rrgraph.node_count r.graph in
  let occ = Array.make n 0 in
  Array.iter
    (fun tr -> List.iter (fun nd -> occ.(nd) <- occ.(nd) + 1) tr.nodes)
    r.trees;
  let ok = ref true in
  for i = 0 to n - 1 do
    if occ.(i) > r.graph.Rrgraph.nodes.(i).Rrgraph.capacity then ok := false
  done;
  !ok

(* Every tree is connected and reaches its sinks. *)
let tree_connects ~source ~sinks tr =
  let member v = List.mem v tr.nodes in
  member source
  && List.for_all member sinks
  && List.for_all (fun (v, p) -> member v && member p) tr.parents

(* The parent edges form a forest rooted at [source]: every sink's parent
   chain reaches the source without revisiting a node. *)
let tree_acyclic ~source ~sinks tr =
  let parent = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun (v, p) ->
      if Hashtbl.mem parent v then ok := false else Hashtbl.add parent v p)
    tr.parents;
  (not (Hashtbl.mem parent source))
  && !ok
  && List.for_all
       (fun sink ->
         let seen = Hashtbl.create 16 in
         let rec climb v =
           if v = source then true
           else if Hashtbl.mem seen v then false
           else begin
             Hashtbl.add seen v ();
             match Hashtbl.find_opt parent v with
             | Some p -> climb p
             | None -> false
           end
         in
         climb sink)
       sinks
