(** FPGA architecture parameters (what DUTYS captures in the architecture
    file).  Defaults are the platform the paper selected in §3.  The §3
    interconnect circuit — pass-transistor switches, disjoint switch
    boxes (Fs = 3), registrable CLB outputs — is the only one the flow
    models, so it is fixed, not a field; the channel is described by the
    segment mix alone. *)

type metal = Metal_min_min | Metal_min_double | Metal_double_double
(** Routing-wire metal layout (the three configurations of Figs. 8-10):
    minimum width / minimum spacing, minimum width / double spacing (the
    §3.3 selection), double width / double spacing.  Mirrors
    [Spice.Tech.wire_config]; the electrical translation lives in
    [Route.Timing] because this library sits below lib/spice. *)

val metal_name : metal -> string
(** ["min_min"], ["min_double"] or ["double_double"] (archfile keywords). *)

val metal_of_name : string -> metal option

type segment = {
  s_length : int;   (** logic-block tiles spanned by one wire *)
  s_count : int;    (** tracks of this type per pattern repetition *)
  s_fc_in : float;  (** input-pin connection fraction, over this type *)
  s_fc_out : float; (** output-pin connection fraction, over this type *)
  s_metal : metal;
}
(** One segment type of a mixed-length channel.  A channel declaring
    [4xL1 + 4xL2 + 2xL4] repeats that 10-track pattern across the
    channel width (truncated to a prefix when the width is smaller than
    one repetition). *)

type t = {
  name : string;
  k : int;                 (** LUT inputs *)
  n : int;                 (** BLEs per CLB *)
  i : int;                 (** CLB inputs *)
  segments : segment list;
      (** the channel: the mixed-length segment spec, in track-pattern
          order; never empty in valid parameters *)
  switch_width : float;    (** multiples of the minimum transistor width *)
  io_rat : int;            (** IO pads per perimeter grid position *)
  gated_clock : bool;      (** BLE + CLB gated clocks (Tables 2-3) *)
}

val recommended_inputs : k:int -> n:int -> int
(** The paper's empirical rule I = (K/2)(N+1) (~98 % BLE utilisation). *)

val amdrel : t
(** The selected platform: K=4, N=5, I=12, the one-type [1xL1] mix (Fc
    1.0 in and out, min-width/double-spacing metal), 10x switches, gated
    clocks. *)

exception Invalid_params of string

val validate : t -> t
(** Identity on valid parameters, including the segment mix (at least
    one type; positive lengths and counts, per-type Fc in (0, 1]).
    @raise Invalid_params otherwise, with an actionable message. *)

val segments_of_string :
  ?fc_in:float -> ?fc_out:float -> ?metal:metal -> string -> segment list
(** Parse a mix like ["4xL1+4xL2+2xL4"] (count defaults to 1, so ["L2"]
    is one track of length 2 per pattern); Fc and metal default per
    term from the optional arguments.
    @raise Invalid_params on an empty or malformed mix. *)

val mix_name : t -> string
(** The mix as ["4xL1+4xL2+2xL4"] (reports and sweep labels). *)

val track_plan : t -> width:int -> (int * int) array
(** Per-track channel composition: track [t] carries segment type
    [fst plan.(t)] (an index into [segments]) with stagger offset
    [snd plan.(t)].  A single-type channel reduces to offset = t mod
    length. *)

val follows_input_rule : t -> bool

val clb_config_bits : t -> int
(** Configuration bits per CLB tile: LUT contents, register/clock-enable
    selects, and the fully connected input crossbar codes. *)
