(** Routing-resource graph for the island-style interconnect of §3.3.

    Geometry (VPR conventions): horizontal channels chanx(x, y) for
    y = 0..ny, vertical channels chany(x, y) for x = 0..nx; the disjoint
    switch box (Fs = 3) joins same-numbered tracks at segment endpoints
    only (a long wire passing over a switch point is not tapped); each
    channel carries the declared segment mix
    ({!Fpga_arch.Params.t.segments}) with per-track stagger from
    {!Fpga_arch.Params.track_plan}; every logic block touches the four
    surrounding channels; pins connect to an Fc fraction of each segment
    type's tracks (per-type Fc_in/Fc_out); each block has one SINK fed
    by its input pins so the router chooses pins naturally; output pins
    are per-BLE. *)

type node_kind =
  | Opin of int * int        (** block index, pin *)
  | Ipin of int * int
  | Sink of int              (** block index *)
  | Chanx of int * int * int (** x-start, y, track *)
  | Chany of int * int * int (** x, y-start, track *)

type node = {
  kind : node_kind;
  capacity : int;
  base_cost : float;
  wire_tiles : int; (** tiles spanned; 0 for pins *)
  seg : int;
      (** segment-type index into {!Fpga_arch.Params.t.segments}; 0
          for pins.  Keys the
          per-type RC in {!Timing} and the per-type capacitance in
          [Power.Model]. *)
}

type t = {
  nodes : node array;
  edges : int array array;
      (** adjacency: node -> successors.  Node ids and the order of each
          successor array are part of the router's determinism
          contract (docs/ARCHITECTURE.md). *)
  node_of_opin : (int * int, int) Hashtbl.t;
  node_of_sink : (int, int) Hashtbl.t;
  width : int;             (** tracks per channel *)
  params : Fpga_arch.Params.t;
  grid : Fpga_arch.Grid.t;
  xlo : int array;
  (** spatial extent per node: drives the router's bounding-box pruning
      and the admissible A* lookahead (a wire's whole span counts — once
      paid for it can be exited at any switch point along it) *)
  xhi : int array;
  ylo : int array;
  yhi : int array;
}

val node_count : t -> int
(** Number of RR nodes in the graph. *)

val track_spans :
  Fpga_arch.Params.t -> width:int -> extent:int -> track:int ->
  (int * int) list
(** The wires along one track of a channel spanning tiles 1..[extent]:
    (start, tiles) per wire, ascending.  Wires are clipped to the
    channel, so edge wires can span fewer tiles than the track's
    declared segment length.  [Bitstream.Fabric] uses this to validate
    that decoded switch patterns join real segment endpoints, and the
    structural tests to pin the stagger. *)

val build :
  Fpga_arch.Params.t -> Fpga_arch.Grid.t -> Place.Placement.t ->
  width:int -> t
(** Build the routing-resource graph for a placed design at the given
    channel [width].  Pure in its inputs: equal parameters, grid,
    placement and width give a structurally identical graph, which is
    what makes speculative width probes safe to run concurrently. *)
