(* The SIS stage of the flow: BLIF in, K-LUT BLIF out.

   optimise -> decompose to two-bounded -> FlowMap -> verify by random
   simulation against the input network. *)

open Netlist

exception Mapping_changed_function

type report = {
  before : Logic.stats;
  after : Logic.stats;
  k : int;
  predicted_depth : int;
}

let map_network ?(k = 4) ?(verify = true) (net : Logic.t) =
  let before = Logic.stats net in
  (* the optimisation passes mutate in place: keep a pristine reference
     network for the equivalence check *)
  let reference = Logic.copy net in
  let opt = Synth.Opt.optimize (Logic.copy net) in
  let two = Decompose.decompose2 opt in
  let mapped, depth = Flowmap.map ~k two in
  if verify && not (Simcheck.is_equivalent reference mapped) then
    raise Mapping_changed_function;
  let after = Logic.stats mapped in
  (mapped, { before; after; k; predicted_depth = depth })

let map_blif ?k ?verify text =
  let net = Blif.of_string text in
  let mapped, report = map_network ?k ?verify net in
  (Blif.to_string mapped, report)
