(** DRUID: EDIF normalisation.

    Adapts commercial-tool EDIF output for the downstream academic tools:
    identifier sanitisation, library-cell validation, removal of dangling
    nets, canonical naming — implemented as a round trip through the
    Logic IR with a dead-signal sweep in between.  Duplicate logic is
    left for SIS ([Techmap.Mapper.map_network] optimises before
    mapping). *)

exception Druid_error of string
(** A netlist the flow cannot accept (unknown library cell, unconnected
    instance, conflicting drivers). *)

val normalize : Netlist.Edif.t -> Netlist.Edif.t
(** @raise Druid_error on a netlist the flow cannot accept. *)

val normalize_string : string -> string
(** {!normalize} on EDIF text, returning EDIF text (the standalone
    [druid] tool's pipe mode). *)
