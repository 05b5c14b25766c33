(** Configuration extraction: from a placed-and-routed design to the
    explicit per-tile and per-switch configuration the bitstream encodes.

    CLB tile bits follow the platform of §3.1: per BLE a 2^K-bit LUT, an
    output-register select and a clock enable; a fully connected local
    crossbar gives every LUT input a source code.  Routing bits are the
    ON pass transistors and pin connection-box switches actually used. *)

type ble_config = {
  lut_bits : int;      (** 2^K bits; replicated over unused inputs *)
  registered : bool;
  clock_enable : bool;
  ff_init : bool;      (** power-up state of the flip-flop *)
  input_sources : int array;
      (** K codes: 0..I-1 input pin, I..I+N-1 BLE feedback,
          I+N unconnected *)
}

type clb_config = {
  x : int;
  y : int;
  cluster : int;
  block : int; (** block index, as used in pin descriptors *)
  bles : ble_config array;
}

type node_desc = int * int * int * int * int
(** Canonical wire/pin descriptor: tag (0 chanx, 1 chany, 2 opin, 3 ipin,
    4 sink) plus coordinates. *)

type pad_config = {
  pad_block : int;
  pad_x : int;
  pad_y : int;
  pad_sub : int;
  pad_is_input : bool;
  pad_name : string; (** the external signal (pin-map entry) *)
}

type config = {
  design : string;
  nx : int;
  ny : int;
  width : int;
  track_lengths : int array;
      (** declared segment length per track — the device geometry the
          switch descriptors are laid out against, checked by
          [Fabric.to_logic] against the target device's segment mix *)
  clbs : clb_config list;
  pads : pad_config list;
  switches : (node_desc * node_desc) list;  (** wire-wire pass transistors *)
  pin_links : (node_desc * node_desc) list; (** pin-wire connection boxes *)
}

val track_lengths : Fpga_arch.Params.t -> width:int -> int array
(** Per-track declared segment length, normalised from the segment spec:
    mixes that lay out the same tracks (e.g. [2xL1] and [1xL1+1xL1])
    give the same table, keeping their bitstreams byte-identical. *)

val node_desc : Route.Rrgraph.t -> int -> node_desc

val pad_tt : Netlist.Tt.t -> int -> int
(** Pad a truth table out to K variables (unused inputs don't care).
    @raise Invalid_argument if the table is wider than K. *)

val extract : Route.Router.routed -> config

val bit_count : Fpga_arch.Params.t -> config -> int
(** Total configuration bits (size reports). *)
