(** PathFinder negotiated-congestion routing (McMurchie & Ebeling), the
    algorithm VPR uses.

    Iteration 1 routes every net with an A*-directed Dijkstra (the
    lookahead is the Manhattan gap to the target's extent, admissible
    because a wire of L tiles costs at least L) over node costs
    base x (1 + acc x history) x present; the present-overuse penalty
    grows geometrically between iterations.  Later iterations are
    incremental: only nets whose trees touch an over-capacity node are
    ripped up and rerouted, legal trees keep their routing and occupancy.
    Convergence = no node used beyond its capacity.  With [node_delay],
    nets blend in a criticality-weighted delay term (the timing-driven
    router).

    A routing that will not converge stops early, by the first of three
    rules: the failure predictor ({!predicts_failure}), the trend cutoff
    (from iteration 16, overuse that, while above 12, fell less than
    25 % over the last 8 iterations) and the stagnation rule (no new
    best overuse for 16 iterations; a periodic full rip-up shakes a
    stalled negotiation before it fires).  All three read only the
    routing's own overuse history, so the stopping iteration is the
    same for any [jobs]. *)

type net_spec = {
  index : int;     (** position in the problem's net array *)
  source : int;    (** driver OPIN node *)
  sinks : int list;
  crit : float;    (** timing criticality in [0,1]; 0 = congestion only *)
}

type route_tree = {
  net_index : int;
  nodes : int list;
  parents : (int * int) list; (** (node, parent) edges of the tree *)
}

type iter_stat = {
  iteration : int;
  overused_nodes : int; (** nodes above capacity after the iteration *)
  nets_rerouted : int;  (** nets ripped up and rerouted *)
  heap_pops : int;      (** wavefront size: heap pops this iteration *)
  batches : int;        (** bbox-disjoint reroute batches this iteration *)
  batch_max : int;      (** nets in the largest batch *)
  serial_nets : int;    (** nets that routed in singleton batches *)
}

type result = {
  graph : Rrgraph.t;
  trees : route_tree array;
  iterations : int;
  success : bool;
  iter_stats : iter_stat list; (** chronological, one per iteration *)
}

val route :
  ?max_iterations:int -> ?jobs:int -> ?obs:Obs.Registry.t ->
  ?node_delay:float array -> Rrgraph.t -> net_spec array -> result
(** [max_iterations] (default 30) is the iteration budget; the stopping
    rules may end a failing routing well before it.
    [jobs] bounds the Domain pool used to route a batch's nets
    concurrently; the routed result is bit-identical for every value
    (defaults to [AMDREL_JOBS] / the machine's core count, see
    {!Util.Parallel}).
    [obs] records the ["route.net-heap-pops"] (per committed net) and
    ["route.iter-overuse"] (per iteration) histograms; each iteration
    also emits one [Route_iteration] event to the ambient
    {!Obs.Events} sink.
    Before any search, one O(nodes + edges) check refuses a malformed
    graph: every successor and every net's source and sinks must be a
    node id, and [node_delay] and the graph's per-node arrays must have
    one entry per node.
    @raise Invalid_argument if that check fails; nothing is routed.
    @raise Not_found if some sink is unreachable in the graph. *)

val predicts_failure : max_iterations:int -> int list -> bool
(** The failure predictor, over a routing's total-overuse history
    (latest first, one value per iteration; the length is the current
    iteration).  From iteration 6, and while the latest overuse is above
    12, it fits ln(overuse) against the iteration number by least
    squares over the whole history, and is true when the fit's slope is
    >= 0 or the fit reaches an overuse of 1 only after [max_iterations]:
    the routing cannot converge within its budget.  {!route} gives up
    as soon as this holds. *)

val bbox_disjoint : int * int * int * int -> int * int * int * int -> bool
(** [(xlo, xhi, ylo, yhi)] boxes, bounds inclusive: true when the two
    boxes share no tile. *)

val partition_batches :
  (int * (int * int * int * int)) list ->
  (int * (int * int * int * int)) list list
(** Greedy interval partition of [(id, bbox)] items into batches whose
    members have pairwise-disjoint bboxes: sweep the items in ascending
    [(xlo, id)] order and first-fit each into the earliest batch whose
    running max-xhi it clears (x-disjointness implies bbox-disjointness).
    Every item lands in exactly one batch, members are in ascending id
    order, and concatenating the batches' ids sorted ascending recovers
    the input's ids; fully-overlapping input degrades to singleton
    batches. *)

(** The wavefront's binary min-heap: float priorities, int payloads (RR
    node ids).  Exposed for its property tests; {!route} is its only
    user.  Equal priorities pop in the order its sift code fixes, and
    the routes depend on that order (docs/ARCHITECTURE.md). *)
module Heap : sig
  type t

  val create : unit -> t
  val length : t -> int

  val clear : t -> unit
  (** Empty the heap in O(1), keeping its arrays. *)

  val push : t -> float -> int -> unit

  val min_prio : t -> float
  (** The least priority.  @raise Not_found if the heap is empty. *)

  val pop : t -> int
  (** Remove the entry {!min_prio} reads and return its payload.
      @raise Not_found if the heap is empty. *)
end

val no_overuse : result -> bool
(** Independent capacity re-check (used by tests). *)

val tree_connects : source:int -> sinks:int list -> route_tree -> bool

val tree_acyclic : source:int -> sinks:int list -> route_tree -> bool
(** The parent edges form a forest rooted at [source] and every sink's
    parent chain reaches it without revisiting a node (used by tests). *)
