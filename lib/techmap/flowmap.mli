(** FlowMap: depth-optimal K-LUT technology mapping (Cong & Ding, 1994) —
    the role SIS plays in the paper's flow.

    Phase 1 computes, per gate of a two-bounded network, its label
    (optimal mapped depth) and a K-feasible cut realising it via the
    classic collapse-and-max-flow argument; phase 2 covers the network
    from the outputs, one LUT per needed cut. *)

exception Not_two_bounded of string
(** Raised (with a signal name) when a gate has more than two fanins. *)

type cut_info = {
  label : int;
  cut : int list; (** signal ids forming the LUT inputs *)
}

val compute_labels : Netlist.Logic.t -> k:int -> cut_info array
(** Labels and cuts for every signal (sources get label 0). *)

val cone_function : Netlist.Logic.t -> int -> int list -> Netlist.Tt.t
(** Truth table of the cone rooted at a signal over the ordered cut. *)

val map : ?k:int -> Netlist.Logic.t -> Netlist.Logic.t * int
(** Map into K-LUTs (default K = 4), with the label bound on the mapped
    depth: the worst label over outputs and latch-data endpoints.
    Latches, inputs, constants and output names are preserved; function
    is preserved (property-tested). *)
