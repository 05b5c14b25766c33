(** Fabric emulation: load a decoded bitstream into a software model of
    the FPGA and reconstruct the logic it implements.

    Connectivity is derived purely from the configuration — the ON pass
    transistors form electrical nets exactly as in silicon (pass
    transistors are bidirectional, so a routed net is a connected
    component of configured switches); LUT contents come from the LUT
    bits; crossbar codes select each LUT input.  The resulting network
    can be simulated against the original design. *)

exception Invalid_configuration of string
(** An electrically or geometrically inconsistent configuration
    (undriven selected pin, undriven output pad, bad source code, a
    switch descriptor that is not a real switch point of the device's
    segmented fabric). *)

val validate_geometry : Fpga_arch.Params.t -> Layout.config -> unit
(** Check the configuration against the device geometry: the array must
    be the one {!Fpga_arch.Grid.size_for} gives the stream's own CLB and
    pad counts at the device's [io_rat] (checked first, so a damaged
    header never sizes the track layout), the track table must match
    the device's segment mix, every wire descriptor must name a wire
    the track plan lays out, wire-wire switches may only join two
    same-track wires at a shared segment endpoint (the disjoint Fs = 3
    box taps endpoints only), and connection-box links must join a pin
    to a wire passing its block's tile.
    @raise Invalid_configuration otherwise. *)

val to_logic : Fpga_arch.Params.t -> Layout.config -> Netlist.Logic.t
(** Reconstruct the implemented netlist (after {!validate_geometry}).
    Input pads become primary inputs under their pad names; output pads
    become primary outputs. *)

val of_bitstream : Fpga_arch.Params.t -> string -> Netlist.Logic.t
(** Decode and reconstruct in one step.
    @raise Frames.Corrupt / Invalid_configuration. *)

val functionally_equivalent :
  ?vectors:int -> ?cycles:int -> Fpga_arch.Params.t ->
  reference:Netlist.Logic.t -> string -> bool
(** The programmer's final check: the configured fabric must simulate
    identically to the mapped netlist the flow produced. *)
