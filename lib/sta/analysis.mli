(** Forward/backward static timing over a levelized graph.

    Arrival times propagate level by level from the sources; required
    times propagate back from the endpoints, anchored at the
    critical-path delay Dmax (VPR's zero-slack convention, from which
    criticality = 1 - slack / Dmax).  User-visible slack, WNS and TNS
    are measured against the effective period: the clock constraint,
    {e halved} when the platform's double-edge-triggered flip-flops are
    in use (data must traverse in half a clock cycle), or Dmax itself
    when unconstrained.

    Wide levels propagate on the [Util.Parallel] Domain pool — nodes of
    a level depend only on strictly lower levels, so a level maps
    race-free; narrow levels stay sequential.  Results are identical for
    any [jobs]. *)

type constraints = {
  period : float option;
      (** clock period, s; [None] = unconstrained (zero-slack at Dmax) *)
  detff : bool;
      (** double-edge-triggered flip-flops: data is captured on both
          clock edges, so the combinational budget is [period / 2] *)
}

val default_constraints : constraints
(** Unconstrained, DETFF clocking (the platform's BLE design). *)

type t = {
  graph : Graph.t;
  provider : Delays.provider;
  constraints : constraints;
  arrival : float array;            (** per signal, s *)
  required : float array;
      (** per signal, anchored at {!field-dmax}; [infinity] for signals
          on no endpoint-bound path.  The derived view
          [dmax -. downstream]. *)
  downstream : float array;
      (** per signal: worst delay from the signal's output to any
          endpoint ([neg_infinity] when none lies downstream).  The
          primary backward result; Dmax-independent, which is what lets
          {!update} confine re-propagation to moved-block cones *)
  ep_arc : float array;
      (** per signal: worst endpoint arc leaving it (setup / pad
          delay); [neg_infinity] for non-endpoint signals *)
  endpoint_arrival : float array;   (** aligned with [graph.endpoints] *)
  dmax : float;                     (** critical-path delay, s *)
  budget : float;
      (** effective timing budget: [period] (halved under DETFF) or
          [dmax] when unconstrained *)
  wns : float;  (** worst negative slack vs [budget] (0 when unconstrained) *)
  tns : float;  (** total negative slack vs [budget], <= 0 *)
  path_len : float array array;
      (** per (net index, sink position): worst endpoint-to-endpoint
          path length through that connection, s; criticality is this
          over [dmax], cached so {!update} re-extracts only dirty nets *)
  criticality : float array array;
      (** per (net index, sink position), in [0,1] — the same shape
          [Place.Td_timing.analysis] exposes *)
  net_criticality : float array;
      (** per net: worst sink criticality (the router's weight) *)
}

val run :
  ?constraints:constraints -> ?jobs:int -> ?obs:Obs.Registry.t ->
  Graph.t -> Delays.provider -> t
(** One full analysis.  The graph and provider are only read, so
    concurrent [run]s on the same graph are safe.  [obs] accumulates the
    ["sta.phase.forward"/"backward"/"endpoints"/"criticality"] timers
    (summed over every [run] a flow performs) and the
    ["sta.level-nodes"] histogram. *)

val update :
  ?jobs:int -> ?obs:Obs.Registry.t -> changed_blocks:int list ->
  t -> Delays.provider -> t
(** [update ~changed_blocks prev p] re-analyzes after a placement
    change, assuming [p] differs from [prev.provider] only on arcs
    incident to [changed_blocks] (the contract the placement-distance
    provider satisfies when exactly those blocks moved).  Arrival and
    downstream times re-propagate only through the fan-in/fan-out cones
    of the moved blocks' signals, stopping where a recomputed value is
    bit-equal to the stored one; criticality is re-extracted only for
    dirty nets and rescaled against the new Dmax everywhere.  The
    result is {e bit-identical} to a fresh {!run} on the same graph and
    provider, for any [jobs].

    [prev] is consumed: its arrays are reused in place, so only the
    returned analysis may be used afterwards.  [obs] accumulates the
    ["sta.incr.cones"] (moved blocks) and ["sta.incr.nodes-touched"]
    (cone nodes re-evaluated) counters. *)

val endpoint_slack : t -> int -> float
(** Slack of endpoint [i] against the effective budget (negative =
    violated).  Monotone in the period: increasing the constraint can
    only increase every slack. *)

val to_td : t -> Place.Td_timing.analysis
(** The analysis in [Place.Td_timing]'s record shape, for the
    annealer's timing hook. *)
