(* Forward/backward static timing over a levelized graph.

   Arrival times propagate level by level from the sources (inputs,
   constants, latch Q outputs); the backward pass computes, per signal,
   the worst *downstream* delay to any endpoint.  Required times are the
   derived view [required = dmax - downstream], anchored at the
   critical-path delay Dmax so the worst path has zero anchor-slack
   (VPR's convention).  Keeping the downstream form primary makes the
   backward data Dmax-independent, which is what lets {!update}
   re-propagate only through the fan-in/fan-out cones of moved blocks:
   a global Dmax shift rescales every criticality but dirties no
   per-node backward value.

   Criticality of a connection s -> u is the path length through it,
   P = arrival(s) + conn + t_logic + downstream(u), as a fraction of
   Dmax, clamped to [0, 1] — algebraically VPR's 1 - slack / Dmax.  The
   per-connection path lengths are cached per (net, sink) so a
   re-analysis after a few moves only re-extracts the rows of dirty
   nets; the division by the (possibly shifted) Dmax is recomputed for
   every row, it costs one flop per sink.

   The user-visible slack/WNS/TNS are measured against the effective
   period: the clock constraint, halved when the platform's
   double-edge-triggered flip-flops are in use (data must traverse in
   half a clock cycle), or Dmax itself when unconstrained.

   Wide levels propagate on the [Util.Parallel] Domain pool: nodes of a
   level depend only on strictly lower levels, so a level maps
   race-free; narrow levels (the common case inside the annealer's
   refresh loop) stay sequential to avoid domain-spawn overhead.  The
   per-net criticality extraction is threshold-gated the same way. *)

open Netlist

type constraints = {
  period : float option;
  detff : bool;
}

let default_constraints = { period = None; detff = true }

type t = {
  graph : Graph.t;
  provider : Delays.provider;
  constraints : constraints;
  arrival : float array;
  required : float array;
  downstream : float array;
  ep_arc : float array;
  endpoint_arrival : float array;
  dmax : float;
  budget : float;
  wns : float;
  tns : float;
  path_len : float array array;
  criticality : float array array;
  net_criticality : float array;
}

(* Levels narrower than this propagate sequentially: a Domain spawn per
   level costs more than it saves on small circuits (and the annealer's
   per-temperature refreshes run inside pool workers anyway, where
   [Util.Parallel.map] already degrades to sequential). *)
let par_threshold = 512

let map_level ?jobs compute level (dst : float array) =
  if Array.length level >= par_threshold then begin
    let vals = Util.Parallel.map ?jobs compute level in
    Array.iteri (fun i id -> dst.(id) <- vals.(i)) level
  end
  else Array.iter (fun id -> dst.(id) <- compute id) level

let clamp01 c = Float.min 1.0 (Float.max 0.0 c)

(* ---- shared kernels: run and update MUST compute every value through
   these so the incremental results are bit-identical to a fresh
   analysis ---- *)

let arrive (g : Graph.t) (p : Delays.provider) (arrival : float array) id =
  match Logic.driver g.Graph.net id with
  | Logic.Input | Logic.Const _ -> 0.0
  | Logic.Latch _ -> p.Delays.t_clk_q
  | Logic.Gate { fanins; _ } ->
      p.Delays.t_logic
      +. Array.fold_left
           (fun acc f -> Float.max acc (arrival.(f) +. Delays.conn p f id))
           0.0 fanins

let endpoint_arrive (p : Delays.provider) (arrival : float array) = function
  | Graph.Reg_data { latch; data } ->
      arrival.(data) +. Delays.conn p data latch +. p.Delays.t_setup
  | Graph.Pad_out { block; signal } ->
      arrival.(signal) +. Delays.pad p signal block

(* Per-node worst endpoint arc: the delay an endpoint adds past the
   node's own arrival.  [neg_infinity] for non-endpoint signals. *)
let ep_arc_array (g : Graph.t) (p : Delays.provider) =
  let arc = Array.make g.Graph.n neg_infinity in
  Array.iter
    (function
      | Graph.Reg_data { latch; data } ->
          arc.(data) <-
            Float.max arc.(data)
              (Delays.conn p data latch +. p.Delays.t_setup)
      | Graph.Pad_out { block; signal } ->
          arc.(signal) <-
            Float.max arc.(signal) (Delays.pad p signal block))
    g.Graph.endpoints;
  arc

let downstream_of (g : Graph.t) (p : Delays.provider) (ep_arc : float array)
    (downstream : float array) id =
  List.fold_left
    (fun acc u ->
      Float.max acc (downstream.(u) +. p.Delays.t_logic +. Delays.conn p id u))
    ep_arc.(id) g.Graph.consumers.(id)

(* Worst path length through each connection of a net: for a pad sink
   the net signal's own worst path; for a logic sink the worst over the
   signals consumed there of arrival + conn + logic + downstream.
   [neg_infinity] when no endpoint lies downstream (criticality 0). *)
let path_len_row (g : Graph.t) (p : Delays.provider) (arrival : float array)
    (downstream : float array) ni =
  let net = g.Graph.problem.Place.Problem.nets.(ni) in
  let s = net.Place.Problem.signal in
  let users = g.Graph.sink_users.(ni) in
  Array.mapi
    (fun k sink_block ->
      match g.Graph.problem.Place.Problem.blocks.(sink_block) with
      | Place.Problem.Output_pad _ -> arrival.(s) +. downstream.(s)
      | _ ->
          List.fold_left
            (fun acc u ->
              Float.max acc
                (arrival.(s) +. Delays.conn p s u +. p.Delays.t_logic
                +. downstream.(u)))
            neg_infinity users.(k))
    net.Place.Problem.sinks

let crit_row dmax row = Array.map (fun pl -> clamp01 (pl /. dmax)) row

let wns_tns budget endpoint_arrival =
  let wns, tns =
    Array.fold_left
      (fun (wns, tns) a ->
        let slack = budget -. a in
        (Float.min wns slack, tns +. Float.min 0.0 slack))
      (infinity, 0.0) endpoint_arrival
  in
  ((if wns = infinity then 0.0 else wns), tns)

let budget_of constraints dmax =
  match constraints.period with
  | None -> dmax
  | Some period -> if constraints.detff then period /. 2.0 else period

(* Per-net map, threshold-gated like the level sweeps: rows are
   independent and come back in input order, so the result is identical
   for any [jobs]. *)
let map_nets ?jobs f nets =
  if Array.length nets >= par_threshold then Util.Parallel.map ?jobs f nets
  else Array.map f nets

let run ?(constraints = default_constraints) ?jobs ?obs (g : Graph.t)
    (p : Delays.provider) =
  (* phase timers answer ROADMAP's profiling question (where does an
     analysis spend its time?); they accumulate across the many [run]
     calls of a flow (annealer refreshes, pre- and post-route) into the
     sta.phase.* keys of the caller's registry *)
  let phase key f =
    match obs with Some o -> Obs.Registry.time o key f | None -> f ()
  in
  let observe key v =
    match obs with Some o -> Obs.Registry.observe o key v | None -> ()
  in
  let n = g.Graph.n in
  (* ---- forward: arrival times, level by level ---- *)
  let arrival = Array.make n 0.0 in
  phase "sta.phase.forward" (fun () ->
      Array.iter
        (fun level ->
          observe "sta.level-nodes" (float_of_int (Array.length level));
          map_level ?jobs (arrive g p arrival) level arrival)
        g.Graph.levels);
  (* ---- endpoint arrivals and the critical path ---- *)
  let endpoint_arrival =
    phase "sta.phase.endpoints" (fun () ->
        Array.map (endpoint_arrive p arrival) g.Graph.endpoints)
  in
  let dmax = Array.fold_left Float.max 1e-12 endpoint_arrival in
  (* ---- backward: downstream-to-endpoint delays, pulled level by level
     from each node's consumers (race-free: a consumer is always at a
     strictly higher level); required is the dmax-anchored view ---- *)
  let ep_arc = ep_arc_array g p in
  let downstream = Array.make n neg_infinity in
  phase "sta.phase.backward" (fun () ->
      for l = Array.length g.Graph.levels - 1 downto 0 do
        map_level ?jobs
          (downstream_of g p ep_arc downstream)
          g.Graph.levels.(l) downstream
      done);
  let required = Array.map (fun d -> dmax -. d) downstream in
  (* ---- effective timing budget, WNS / TNS ---- *)
  let budget = budget_of constraints dmax in
  let wns, tns =
    phase "sta.phase.endpoints" (fun () -> wns_tns budget endpoint_arrival)
  in
  (* ---- per-connection criticality, mirroring the T-VPlace shape:
     for each net, for each sink block, the worst path length through
     the connection as a fraction of dmax ---- *)
  let path_len =
    phase "sta.phase.criticality" (fun () ->
        map_nets ?jobs
          (fun ni -> path_len_row g p arrival downstream ni)
          (Array.init (Array.length g.Graph.problem.Place.Problem.nets) Fun.id))
  in
  let criticality =
    phase "sta.phase.criticality" (fun () -> Array.map (crit_row dmax) path_len)
  in
  let net_criticality =
    phase "sta.phase.criticality" (fun () ->
        Array.map (Array.fold_left Float.max 0.0) criticality)
  in
  {
    graph = g;
    provider = p;
    constraints;
    arrival;
    required;
    downstream;
    ep_arc;
    endpoint_arrival;
    dmax;
    budget;
    wns;
    tns;
    path_len;
    criticality;
    net_criticality;
  }

(* ---- incremental re-analysis ----

   After a placement change only the arcs incident to moved blocks carry
   new delays, so arrival times can only change inside the fan-out cones
   of the signals those blocks produce, and downstream delays only
   inside the fan-in cones.  Propagation stops the moment a recomputed
   value equals the stored one (float equality is exact here: an
   untouched node's inputs are bit-identical, so its recomputation is
   too).  Endpoint arrivals, dmax, wns/tns and required are recomputed
   outright — they are O(endpoints + n) folds, negligible next to the
   per-level sweeps and the criticality extraction this path avoids. *)
let update ?jobs ?obs ~changed_blocks (prev : t) (p : Delays.provider) =
  let g = prev.graph in
  let n = g.Graph.n in
  let touched = ref 0 in
  (match obs with
  | Some o ->
      Obs.Registry.incr ~by:(List.length changed_blocks) o "sta.incr.cones"
  | None -> ());
  let n_blocks = Array.length g.Graph.problem.Place.Problem.blocks in
  if 4 * List.length changed_blocks >= n_blocks then begin
    (* degenerate cone: a quarter or more of the blocks moved (the bulk
       of an annealing schedule, where most proposals are accepted), so
       nearly the whole graph is dirty and the pending-set bookkeeping
       would cost more than it saves.  A fresh full pass computes the
       same values through the same kernels — still bit-identical, and
       never slower than the cone walk. *)
    (match obs with
    | Some o -> Obs.Registry.incr ~by:n o "sta.incr.nodes-touched"
    | None -> ());
    run ~constraints:prev.constraints ?jobs ?obs g p
  end
  else begin
  let arrival = prev.arrival in
  let downstream = prev.downstream in
  let n_levels = Array.length g.Graph.levels in
  (* pending-node buckets, one per level; a node enters at most once *)
  let pending = Array.make n false in
  let buckets = Array.make n_levels [] in
  let push id =
    if not pending.(id) then begin
      pending.(id) <- true;
      let l = g.Graph.level_of.(id) in
      buckets.(l) <- id :: buckets.(l)
    end
  in
  let arr_changed = Array.make n false in
  (* ---- forward cone: signals of moved blocks (their input arcs
     changed) and consumers of those signals (one input arc changed) *)
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          push s;
          List.iter push g.Graph.consumers.(s))
        g.Graph.produced_by.(b))
    changed_blocks;
  for l = 0 to n_levels - 1 do
    List.iter
      (fun id ->
        pending.(id) <- false;
        incr touched;
        let v = arrive g p arrival id in
        if v <> arrival.(id) then begin
          arrival.(id) <- v;
          arr_changed.(id) <- true;
          List.iter push g.Graph.consumers.(id)
        end)
      buckets.(l);
    buckets.(l) <- []
  done;
  (* ---- endpoints and dmax: full recompute, same folds as [run] *)
  let endpoint_arrival = prev.endpoint_arrival in
  Array.iteri
    (fun i ep -> endpoint_arrival.(i) <- endpoint_arrive p arrival ep)
    g.Graph.endpoints;
  let dmax = Array.fold_left Float.max 1e-12 endpoint_arrival in
  (* ---- backward cone: nodes whose endpoint arc or outgoing arcs
     changed, plus fanins of signals in moved blocks *)
  let ep_arc = ep_arc_array g p in
  let d_changed = Array.make n false in
  Array.iter
    (fun ep ->
      let s = Graph.endpoint_signal ep in
      if ep_arc.(s) <> prev.ep_arc.(s) then push s)
    g.Graph.endpoints;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          push s;
          Array.iter push g.Graph.fanins_of.(s))
        g.Graph.produced_by.(b))
    changed_blocks;
  for l = n_levels - 1 downto 0 do
    List.iter
      (fun id ->
        pending.(id) <- false;
        incr touched;
        let v = downstream_of g p ep_arc downstream id in
        if v <> downstream.(id) then begin
          downstream.(id) <- v;
          d_changed.(id) <- true;
          Array.iter push g.Graph.fanins_of.(id)
        end)
      buckets.(l);
    buckets.(l) <- []
  done;
  let required = prev.required in
  for id = 0 to n - 1 do
    required.(id) <- dmax -. downstream.(id)
  done;
  let budget = budget_of prev.constraints dmax in
  let wns, tns = wns_tns budget endpoint_arrival in
  (* ---- lazy criticality: re-extract path lengths only for dirty nets
     (touched by a moved block, or carrying a changed arrival /
     feeding a changed downstream); every row then rescales by the new
     dmax, one division per sink *)
  let n_nets = Array.length g.Graph.problem.Place.Problem.nets in
  let dirty = Array.make n_nets false in
  let mark ni = if ni >= 0 then dirty.(ni) <- true in
  List.iter
    (fun b -> List.iter mark g.Graph.nets_of_block.(b))
    changed_blocks;
  for s = 0 to n - 1 do
    if arr_changed.(s) then mark g.Graph.net_of_signal.(s);
    if d_changed.(s) then begin
      mark g.Graph.net_of_signal.(s);
      Array.iter
        (fun f -> mark g.Graph.net_of_signal.(f))
        g.Graph.fanins_of.(s)
    end
  done;
  let dirty_nets =
    let acc = ref [] in
    for ni = n_nets - 1 downto 0 do
      if dirty.(ni) then acc := ni :: !acc
    done;
    Array.of_list !acc
  in
  let fresh_rows =
    map_nets ?jobs (fun ni -> path_len_row g p arrival downstream ni) dirty_nets
  in
  let path_len = Array.copy prev.path_len in
  Array.iteri (fun i ni -> path_len.(ni) <- fresh_rows.(i)) dirty_nets;
  let criticality = Array.map (crit_row dmax) path_len in
  let net_criticality = Array.map (Array.fold_left Float.max 0.0) criticality in
  (match obs with
  | Some o -> Obs.Registry.incr ~by:!touched o "sta.incr.nodes-touched"
  | None -> ());
  {
    prev with
    provider = p;
    arrival;
    required;
    downstream;
    ep_arc;
    endpoint_arrival;
    dmax;
    budget;
    wns;
    tns;
    path_len;
    criticality;
    net_criticality;
  }
  end

let endpoint_slack a i = a.budget -. a.endpoint_arrival.(i)

let to_td (a : t) =
  { Place.Td_timing.dmax = a.dmax; criticality = a.criticality }
