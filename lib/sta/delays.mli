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
  producer : int array;
      (** signal -> producing block, [-1] for none: a timing graph's
          [Sta.Graph.block_of], shared, never written *)
  t_local : float;  (** intra-cluster connection, s *)
  t_logic : float;  (** LUT + local-interconnect delay, s *)
  t_clk_q : float;  (** flip-flop clock-to-Q, s *)
  t_setup : float;  (** flip-flop setup, s *)
  wires : wires;  (** inter-block connection delays *)
}

val conn : provider -> int -> int -> float
(** [conn p src dst]: interconnect delay of the connection from signal
    [src] to consuming signal [dst], s.  [t_local] when [dst] has no
    producing block or both signals share one.  Otherwise a distance
    provider costs the hop between the two producing blocks ([t_local]
    when [src] has none), and a routed provider the routed delay from
    [src] into [dst]'s block ([t_local] when no route reaches it). *)

val pad : provider -> int -> int -> float
(** [pad p src block]: delay from signal [src] to the output pad at
    block index [block], s; unknown hops cost [t_local] by distance, 0
    routed. *)

val of_placement :
  ?model:Place.Td_timing.delay_model ->
  producer:int array ->
  Place.Problem.t ->
  coords:(int -> int * int) ->
  provider
(** The pre-route provider: the linear per-tile distance model of
    [Place.Td_timing] (same-block connections cost the local feedback
    delay, inter-block hops a fixed overhead plus a per-Manhattan-tile
    term) at the given block [coords], copied once (O(blocks)).  Safe
    to share across domains: it is only read.

    [producer] is the timing graph's [Sta.Graph.block_of], built once
    per packing and shared by every provider on that graph, so the
    annealer's per-temperature refreshes build no table. *)
