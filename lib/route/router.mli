(** Routing driver: pin assignment, channel-width search and the routed
    design record the rest of the flow consumes. *)

type routed = {
  problem : Place.Problem.t;
  placement : Place.Placement.t;
  graph : Rrgraph.t;
  result : Pathfinder.result;
  width : int;
  min_width : int option; (** smallest routable width, if searched *)
  constants : Timing.constants;
}

val net_terminals :
  ?criticalities:float array -> Rrgraph.t -> Place.Problem.t ->
  Pathfinder.net_spec array
(** Driver OPIN and SINK nodes for every routable net; [criticalities]
    supplies per-net timing weights. *)

val node_delays : Rrgraph.t -> Timing.constants -> float array
(** Per-node delay estimate for the timing-driven router. *)

val net_criticalities :
  ?model:Place.Td_timing.delay_model -> Place.Placement.t -> float array
(** Per-net timing weights for the criticality-weighted PathFinder cost:
    one unified-STA pass ({!Sta.Analysis.run} with the placement-distance
    provider), capped at 0.95 so the congestion term never vanishes.
    Index-aligned with the problem's net array. *)

val try_width :
  ?max_iterations:int -> ?crit:float array -> ?jobs:int ->
  ?obs:Obs.Registry.t ->
  Fpga_arch.Params.t -> Place.Placement.t -> int ->
  (Rrgraph.t * Pathfinder.result) option
(** Attempt a routing at the given channel width; None if infeasible.
    [crit] (per-net, pre-capped — see {!net_criticalities}) enables the
    timing-driven cost.  [jobs] bounds the intra-route Domain pool (the
    routed result is bit-identical for every value); [obs] forwards to
    {!Pathfinder.route}. *)

val route_fixed :
  ?max_iterations:int -> ?timing:Place.Td_timing.delay_model -> ?jobs:int ->
  ?obs:Obs.Registry.t ->
  Fpga_arch.Params.t -> Place.Placement.t -> width:int -> routed
(** @raise Failure when unroutable at that width. *)

val max_width : int
(** 128: the widest channel the width search probes, and the widest
    fixed width a compile request may ask for
    ([Service.Protocol.validate] reads it). *)

val width_estimate : Place.Placement.t -> int
(** The width search's opening width E = round(0.71 x D), clamped to
    [1, {!max_width}], where D is the placement's peak bounding-box
    channel demand in tracks.  Each net, with box (x0, x1, y0, y1) =
    {!Place.Placement.net_bbox}, w = x1 - x0 + 1, h = y1 - y0 + 1 and
    q = {!Place.Placement.q_factor} (1 + sinks), adds q(x1 - x0)/(wh)
    to the horizontal and q(y1 - y0)/(wh) to the vertical demand of
    every tile in its box: the annealer's bounding-box cost spread
    evenly over the box.  D is the largest value over all tiles and
    both directions; computing it costs O(sum of box areas).  The
    constant 0.71 was fitted on the routability-driven suite runs
    (EXPERIMENTS.md, "Width-search opening estimate"). *)

val route_min_width :
  ?max_iterations:int -> ?timing:Place.Td_timing.delay_model ->
  ?table:(int, bool) Hashtbl.t ->
  ?jobs:int -> ?obs:Obs.Registry.t ->
  Fpga_arch.Params.t -> Place.Placement.t -> routed
(** Find the minimum channel width (VPR's headline metric), then return
    a low-stress (1.2x) routing — timing-driven if requested.
    [max_iterations] (default 60) is each probe's PathFinder budget; the
    final routing gets twice that.

    The search opens at E = {!width_estimate} and walks outward: if E
    routes it probes E-1, E-2, E-4, ... until one fails (width 0 is
    unroutable by definition); if E fails it probes E+1, E+2, E+4, ...
    up to {!max_width}.  Then it bisects the last bracket.  The probe
    order is a function of (params, placement) through E alone.

    With [jobs] > 1 (default {!Util.Parallel.default_jobs}) the search
    probes candidate widths speculatively on a Domain pool: each round
    probes the first [jobs] widths of a breadth-first walk of the
    sequential search's decision tree.  Each probe is a pure function of
    the width, so the memoised outcomes replay the sequential decision
    path exactly and the result is bit-identical to [jobs = 1].  Width
    probes are congestion-only; the final low-stress routing is
    timing-driven when [timing] is given (criticalities from one
    unified-STA pass at the final placement).  Only the final routing
    records into [obs]: the speculative probe set depends on the pool
    size, so instrumenting it would make metrics jobs-dependent.

    [table] is the probe memo ([width -> routable?]), owned by the
    caller when given: entries already present are trusted and never
    re-probed, and the table is updated in place with every outcome
    this search learns.  Seeding affects which probes run, never their
    outcomes — callers must only seed entries obtained from an identical
    (params, placement) search.  The opening width is recorded into
    [obs] as the volatile gauge [route.width-estimate], the number of
    probe routings actually run as [route.width-probes], and their
    summed PathFinder iterations and heap pops as
    [route.probe-iterations] and [route.probe-heap-pops] (volatile: the
    probe set depends on the pool size as well as on what [table]
    already holds, so they are excluded from the deterministic metrics
    view); a warm table yields strictly fewer probes than a cold
    search, down to 0 when it covers the whole decision path.
    @raise Failure when unroutable even at width {!max_width}. *)

val sta :
  ?constraints:Sta.Analysis.constraints -> ?graph:Sta.Graph.t ->
  ?obs:Obs.Registry.t -> routed ->
  Sta.Analysis.t
(** Post-route unified STA: a ["routed-elmore"] {!Sta.Delays.provider}
    whose table holds the Elmore delay ({!Timing.net_delays}) of every
    routed (signal, sink block) connection, through
    {!Sta.Analysis.run}, directly comparable with the pre-route
    (placement-distance) analysis: both take their local, logic,
    clock-to-Q and setup delays from {!Place.Td_timing.default_model}.
    [graph] reuses an already-built
    timing graph — it depends only on the problem, not the routing. *)

type stats = {
  channel_width : int;
  minimum_width : int option;
  total_wire_tiles : int; (** wirelength in tile units *)
  switches_used : int;
  long_wire_nodes : int;
      (** routed wire nodes whose segment type has declared length > 1 —
          0 on a uniform length-1 fabric, so tests can assert a mixed
          fabric actually routed through its long wires *)
  critical_path_s : float; (** post-route {!Sta.Analysis} dmax *)
  router_iterations : int; (** PathFinder iterations of the final routing *)
  nets_rerouted : int;     (** rip-up/reroute operations, all iterations *)
  heap_pops : int;         (** wavefront size, all iterations *)
  peak_overuse : int;      (** worst per-iteration overused-node count *)
  par_batches : int;       (** bbox-disjoint reroute batches, all iterations *)
  par_batch_max : int;     (** largest batch seen *)
  par_serial_frac : float; (** fraction of rerouted nets in singleton batches *)
}

val stats : ?sta:Sta.Analysis.t -> routed -> stats
(** [sta] reuses a post-route analysis the caller already ran for the
    [critical_path_s] figure; omitted, one is computed via {!sta}. *)
