(** Architecture exploration drivers: the CLB-level studies of §3.1
    (cluster size, LUT size, the input rule) re-run through the full
    flow, plus router-mode and switch-style comparisons. *)

type sweep_point = {
  label : string;
  avg_power_mw : float;    (** geomean over the suite *)
  avg_crit_ns : float;     (** geomean *)
  avg_clusters : float;
  avg_min_width : float;
  avg_utilization : float;
}

val run_suite :
  ?config:Flow.config -> ?jobs:int -> (string * string) list ->
  Flow.result list
(** Run circuits through the flow, skipping (and reporting) failures.
    Circuits fan out across a Domain pool of [jobs] workers (default
    {!Util.Parallel.default_jobs}); results and failure reports keep
    suite order, so the output is identical for any [jobs]. *)

val summarize : string -> Flow.result list -> sweep_point

val cluster_size_sweep :
  ?ns:int list -> ?circuits:(string * string) list -> ?jobs:int -> unit ->
  sweep_point list
(** Paper: N = 5 selected. *)

val lut_size_sweep :
  ?ks:int list -> ?circuits:(string * string) list -> ?jobs:int -> unit ->
  sweep_point list
(** Paper cites K = 4. *)

type input_rule_point = {
  i_value : int;
  rule_value : int;
  utilization : float;
  clusters : float;
}

val input_rule_sweep :
  ?circuits:(string * string) list -> ?jobs:int -> unit ->
  input_rule_point list
(** BLE utilisation versus I; saturates at I = (K/2)(N+1). *)

type arch_point = {
  mix : string;             (** e.g. "2xL1+1xL2+1xL4" *)
  point : sweep_point;      (** [label] is the mix *)
  avg_energy_pj : float;    (** geomean energy per data cycle, pJ *)
}

val segment_mix_sweep :
  ?mixes:string list -> ?circuits:(string * string) list -> ?jobs:int ->
  unit -> arch_point list
(** Segment-mix architecture sweep: each mix runs the circuit suite on
    a fabric whose channels carry that wire-length mix
    ({!Fpga_arch.Params.segments_of_string}), each point searching its
    own minimum channel width, and reports Wmin / critical path / power
    / energy per point, in [mixes] order.  Default mixes: uniform L1,
    L2 and L4, [2xL1+1xL2+1xL4] and [1xL1+1xL4].  Points fan out over a
    [jobs]-domain pool; nested pools degrade to sequential, so results
    are identical for any [jobs]. *)

type td_point = {
  circuit : string;
  routability_crit_ns : float;
  timing_driven_crit_ns : float;
  routability_wire : int;
  timing_driven_wire : int;
}

val timing_driven_comparison :
  ?circuits:(string * string) list -> ?jobs:int -> unit -> td_point list

type switch_point = {
  style : Spice.Routing_exp.switch_style;
  energy_fj : float;
  delay_ps : float;
  area : float;
  eda : float;
}

val switch_style_comparison :
  ?width:float -> ?wire_length:int -> ?cfg:Spice.Tech.wire_config ->
  unit -> switch_point list
(** Pass transistor vs tri-state buffer at the selected operating point. *)
