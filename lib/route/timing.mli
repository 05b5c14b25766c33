(** Delay estimation over routed nets: Elmore delay on the routing trees.
    {!Router.sta} feeds the per-sink delays into the unified STA engine,
    which owns the post-route critical-path computation.

    Electrical constants derive from the platform's circuit design (§3):
    pass-transistor switches at [switch_width] x minimum; per-tile wire
    RC comes from {!Spice.Routing_exp.wire_rc_per_tile}, one entry per
    declared segment type in the metal configuration that type selects
    ({!Fpga_arch.Params.segment.s_metal}). *)

type constants = {
  r_switch : float;    (** routing switch on-resistance, ohm *)
  c_switch : float;    (** switch junction capacitance, F *)
  r_wire_tile : float; (** per-tile RC of the default segment type *)
  c_wire_tile : float;
  seg_r_tile : float array;
      (** per-tile RC per segment type, indexed by the Rrgraph node
          [seg] field (one entry per
          {!Fpga_arch.Params.effective_segments} element) *)
  seg_c_tile : float array;
  t_lut : float;       (** LUT + local-interconnect delay, s *)
  t_ble_local : float; (** intra-cluster feedback delay, s *)
  t_clk_q : float;
  t_setup : float;
  t_ipin : float;      (** connection-box + input buffer delay, s *)
}

val wire_r : constants -> int -> float
(** [wire_r consts seg] is the per-tile wire resistance of segment type
    [seg]; falls back to [r_wire_tile] when [seg] is out of range (e.g.
    hand-built constants without the arrays). *)

val wire_c : constants -> int -> float

val wire_config_of_metal :
  Fpga_arch.Params.metal -> Spice.Tech.wire_config
(** Map the architecture-level metal choice onto the SPICE wire model.
    Lives here because [Fpga_arch] must not depend on [Spice]. *)

val pass_resistance : Spice.Tech.t -> float -> float
(** Linear-region on-resistance of an NMOS pass transistor of the given
    width multiple. *)

val default_constants : Fpga_arch.Params.t -> constants

val elmore :
  Rrgraph.t -> constants -> source:int -> Pathfinder.route_tree ->
  (int, float) Hashtbl.t
(** Elmore delay from the source to every node of one routing tree. *)

type net_delays = (int, float) Hashtbl.t
(** sink block -> delay *)

val net_delays :
  Rrgraph.t -> constants -> source:int -> Pathfinder.route_tree -> net_delays
(** Post-route critical-path figures come from {!Sta.Analysis} with the
    routed-Elmore delay provider {!Router.sta} builds from these Elmore
    delays; the old standalone [critical_path] estimator is gone. *)
