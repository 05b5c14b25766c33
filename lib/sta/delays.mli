(** Delay providers for the STA engine.

    A provider answers "how long does this connection take?" for every
    arc of the timing graph, which keeps the propagation engine
    independent of where the delays come from.  Two providers cover the
    flow: the placement-distance provider here (pre-route) and the
    routed-Elmore provider [Route.Router.sta] builds from the actual
    routing trees (post-route).  A provider is plain data, read by
    {!conn} and {!pad}: an analysis holding one marshals like any other
    cached artifact. *)

type wires =
  | Distance of {
      coords : (int * int) array;  (** block index -> (x, y) *)
      t_fixed : float;  (** pin/buffer overhead of an inter-block hop, s *)
      t_per_tile : float;  (** per Manhattan tile of separation, s *)
    }
  | Routed of (int * int, float) Hashtbl.t
      (** (signal, sink block) -> Elmore delay of the routed connection *)

type provider = {
  name : string;  (** provider identity, carried into timing reports *)
  producer : (int, int) Hashtbl.t;
      (** producing block of every cluster-output / input-pad signal *)
  t_local : float;  (** intra-cluster connection, s *)
  t_logic : float;  (** LUT + local-interconnect delay, s *)
  t_clk_q : float;  (** flip-flop clock-to-Q, s *)
  t_setup : float;  (** flip-flop setup, s *)
  wires : wires;  (** inter-block connection delays *)
}

val conn : provider -> int -> int -> float
(** [conn p src dst]: interconnect delay of the connection from signal
    [src] to consuming signal [dst], s; [t_local] within one block or
    when the hop is unknown. *)

val pad : provider -> int -> int -> float
(** [pad p src block]: delay from signal [src] to the output pad at
    block index [block], s; unknown hops cost [t_local] by distance, 0
    routed. *)

val of_placement :
  ?model:Place.Td_timing.delay_model ->
  ?producer:(int, int) Hashtbl.t ->
  Place.Problem.t ->
  coords:(int -> int * int) ->
  provider
(** The pre-route provider: the linear per-tile distance model of
    [Place.Td_timing] (same-block connections cost the local feedback
    delay, inter-block hops a fixed overhead plus a per-Manhattan-tile
    term) at the given block [coords], copied once (O(blocks)).  Safe
    to share across domains: it is only read.

    [producer] supplies the signal-to-producing-block table instead of
    rebuilding it (pass [Sta.Graph.block_of] when a timing graph exists;
    the table is only read).  Rebuilding per provider is wasteful for
    callers that refresh delays every annealing temperature. *)
