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
  seg_r_tile : float array;
      (** per-tile RC per segment type, indexed by the Rrgraph node
          [seg] field (one entry per {!Fpga_arch.Params.t.segments}
          element) *)
  seg_c_tile : float array;
  t_ipin : float;      (** connection-box + input buffer delay, s *)
}
(** The routing fabric's electrical constants.  Logic, clock-to-Q and
    setup delays live in {!Place.Td_timing.default_model}, which both
    the pre-route and the post-route ({!Router.sta}) analyses read. *)

val wire_r : constants -> int -> float
(** [wire_r consts seg] is the per-tile wire resistance of segment type
    [seg] ([seg_r_tile.(seg)]). *)

val wire_c : constants -> int -> float
(** [wire_c consts seg] is [seg_c_tile.(seg)]. *)

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
