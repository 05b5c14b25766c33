(* DRUID: EDIF normalisation.

   The paper's DRUID adapts commercial-tool EDIF output so the downstream
   academic tools accept it.  Concretely: identifier sanitisation, library
   cell validation, removal of dangling nets, and canonical net/instance
   naming — implemented as a round trip through the Logic IR with a
   dead-signal sweep in between.  Duplicate-logic removal is SIS's job:
   [Techmap.Mapper.map_network] optimises the network before mapping. *)

open Netlist

exception Druid_error of string

let normalize (e : Edif.t) =
  let net =
    try Edif.to_logic e with
    | Edif.Invalid_edif msg -> raise (Druid_error msg)
    | Invalid_argument msg -> raise (Druid_error msg)
  in
  let net = Opt.garbage_collect net in
  Edif.of_logic net

let normalize_string text = Edif.to_string (normalize (Edif.of_string text))
