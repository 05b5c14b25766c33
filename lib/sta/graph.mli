(** Levelized timing graph over the packed netlist.

    Nodes are the signals of the mapped network (every BLE pin carries
    exactly one signal, so this is the BLE-pin graph of the packing);
    edges are the combinational arcs (fanin to gate) plus the sequential
    endpoint arcs (latch-data setup, output pad).  The graph is
    provider- and placement-independent: build it once per packing and
    share it across every analysis — pre-route, post-route, and the
    per-temperature refreshes inside the annealer.  All tables are
    read-only after {!build}, so a graph is safe to share across
    domains. *)

type endpoint =
  | Reg_data of { latch : int; data : int }
      (** setup check at a flip-flop data pin: the path ends [t_setup]
          after the connection from [data] into [latch] *)
  | Pad_out of { block : int; signal : int }
      (** pad-bound path: [signal] leaves the array at pad [block] *)

type t = {
  problem : Place.Problem.t;
  net : Netlist.Logic.t;      (** the mapped network the graph indexes *)
  n : int;                    (** signal count (node count) *)
  levels : int array array;   (** nodes per topological level, ascending
                                  id; level 0 holds the sources *)
  level_of : int array;       (** level per signal *)
  consumers : int list array; (** combinational consumers per signal,
                                  ascending id (backward-pass pull) *)
  sink_users : int list array array;
      (** per (net index, sink position): the signals the net's signal
          feeds inside that sink block (one entry per fanin occurrence,
          descending id), the grouping criticality extraction takes the
          worst path over; [[]] for an output-pad sink *)
  block_of : int array;
      (** signal -> producing block ([Place.Td_timing.block_of_signal]
          as an array), [-1] when no block produces it (a LUT output
          folded into a merged BLE); the table every provider built on
          this graph shares *)
  endpoints : endpoint array; (** pads (ascending block), then latches
                                  (declaration order) *)
  fanins_of : int array array;
      (** combinational fanins per signal (empty for sources); the
          backward cone of {!Analysis.update} walks these *)
  produced_by : int list array;
      (** block index -> signals it produces, ascending — the seed set
          of a moved block's fan-in/fan-out cones *)
  net_of_signal : int array;
      (** signal -> index into [problem.nets], or [-1] when the signal
          has no routable net *)
  nets_of_block : int list array;
      (** block index -> nets touching it (driver or sink), ascending *)
}

val build : Place.Problem.t -> t

val depth : t -> int
(** Deepest combinational level. *)

val endpoint_name : t -> endpoint -> string
(** Human-readable endpoint identity (latch signal or pad block name). *)

val endpoint_signal : endpoint -> int
(** The signal whose arrival time the endpoint samples. *)
