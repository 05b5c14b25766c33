(** FlowMap: depth-optimal K-LUT technology mapping (Cong & Ding, 1994) —
    the role SIS plays in the paper's flow.

    Phase 1 labels every gate of a two-bounded network with its optimal
    mapped depth, in one topological sweep over each signal's K-feasible
    cuts (sorted signal-id lists: a source's only cut is itself, a gate's
    are itself plus every union of one cut per fanin with at most K
    signals that strictly contains no other such union).  With p the
    worst fanin label, a gate with a cut of sources and gates labelled
    below p gets label max(p, 1) and the smallest such cut; otherwise it
    gets p + 1 and its fanins.  Among equally small cuts it keeps the
    one with the fewest cone signals that a source reaches without
    crossing it: the min cut nearest the sources, which is the cut the
    textbook max-flow formulation's residual graph returns, so the
    mapping equals that formulation's.  Phase 2 covers the network from
    the outputs, one LUT per needed cut. *)

exception Not_two_bounded of string
(** Raised (with a signal name) when a gate has more than two fanins. *)

val map : ?k:int -> Netlist.Logic.t -> Netlist.Logic.t * int
(** Map into K-LUTs (default K = 4), with the label bound on the mapped
    depth: the worst label over outputs and latch-data endpoints.
    Latches, inputs, constants and output names are preserved; function
    is preserved (property-tested). *)
