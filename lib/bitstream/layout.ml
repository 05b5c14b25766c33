(* Configuration extraction: from a placed-and-routed design to the explicit
   per-tile and per-switch configuration the bitstream encodes.

   CLB tile bits follow the platform of §3.1: per BLE a 2^K-bit LUT, an
   output-register select and a clock enable; a fully connected local
   crossbar gives every LUT input a source code (cluster input pin,
   BLE feedback, or unconnected).  Routing bits are the ON pass transistors
   (wire-to-wire) and the pin connection-box switches actually used. *)

open Netlist

type ble_config = {
  lut_bits : int;          (* 2^K bits; replicated over unused inputs *)
  registered : bool;
  clock_enable : bool;
  ff_init : bool;          (* power-up state of the flip-flop *)
  input_sources : int array; (* K codes: 0..I-1 pin, I..I+N-1 feedback,
                                I+N = unconnected *)
}

type clb_config = {
  x : int;
  y : int;
  cluster : int;
  block : int;               (* block index, as used in pin descriptors *)
  bles : ble_config array;   (* N entries; unused slots all-zero *)
}

(* A routing switch identified by its two wire endpoints (canonical node
   descriptors, see [node_desc]). *)
type node_desc = int * int * int * int * int

(* IO pad record: where the pad sits and which external signal it carries
   (the programming-file pin map that accompanies a device bitstream). *)
type pad_config = {
  pad_block : int; (* block index, as used in pin node descriptors *)
  pad_x : int;
  pad_y : int;
  pad_sub : int;
  pad_is_input : bool;
  pad_name : string;
}

type config = {
  design : string;
  nx : int;
  ny : int;
  width : int;
  track_lengths : int array; (* declared segment length per track: the
                                device geometry a programmer needs to
                                place the switch descriptors — and the
                                compatibility check [Fabric] enforces *)
  clbs : clb_config list;
  pads : pad_config list;
  switches : (node_desc * node_desc) list;   (* wire-wire pass transistors *)
  pin_links : (node_desc * node_desc) list;  (* pin-wire connection boxes *)
}

(* Per-track declared segment length, normalised from the segment spec:
   two mixes that lay out the same tracks (e.g. [2xL1] and [1xL1+1xL1])
   yield the same table, which keeps their bitstreams byte-identical. *)
let track_lengths (params : Fpga_arch.Params.t) ~width =
  let segs = Array.of_list params.Fpga_arch.Params.segments in
  Array.map
    (fun (si, _) -> segs.(si).Fpga_arch.Params.s_length)
    (Fpga_arch.Params.track_plan params ~width)

let node_desc (g : Route.Rrgraph.t) nd : node_desc =
  match g.Route.Rrgraph.nodes.(nd).Route.Rrgraph.kind with
  | Route.Rrgraph.Chanx (xs, y, t) -> (0, xs, y, t, 0)
  | Route.Rrgraph.Chany (x, ys, t) -> (1, x, ys, t, 0)
  | Route.Rrgraph.Opin (b, p) -> (2, b, p, 0, 0)
  | Route.Rrgraph.Ipin (b, p) -> (3, b, p, 0, 0)
  | Route.Rrgraph.Sink b -> (4, b, 0, 0, 0)

let is_wire (g : Route.Rrgraph.t) nd =
  match g.Route.Rrgraph.nodes.(nd).Route.Rrgraph.kind with
  | Route.Rrgraph.Chanx _ | Route.Rrgraph.Chany _ -> true
  | _ -> false

let is_pin (g : Route.Rrgraph.t) nd =
  match g.Route.Rrgraph.nodes.(nd).Route.Rrgraph.kind with
  | Route.Rrgraph.Opin _ | Route.Rrgraph.Ipin _ -> true
  | _ -> false

(* Pad a truth table out to [k] variables (unused inputs don't care). *)
let pad_tt tt k =
  let arity = Tt.arity tt in
  if arity > k then invalid_arg "Layout.pad_tt: LUT too wide";
  let perm = Array.init arity (fun i -> i) in
  ignore perm;
  (* evaluate tt on the low [arity] variables of each k-var row *)
  let bits = ref 0 in
  for row = 0 to (1 lsl k) - 1 do
    if Tt.eval tt (row land ((1 lsl arity) - 1)) then
      bits := !bits lor (1 lsl row)
  done;
  !bits

let extract (routed : Route.Router.routed) =
  let problem = routed.Route.Router.problem in
  let packing = problem.Place.Problem.packing in
  let lnet = packing.Pack.Cluster.net in
  let g = routed.Route.Router.graph in
  let params = g.Route.Rrgraph.params in
  let placement = routed.Route.Router.placement in
  let k = params.Fpga_arch.Params.k in
  let n = params.Fpga_arch.Params.n in
  let i_pins = params.Fpga_arch.Params.i in
  (* ---- input pin assignment from routing: (block, signal) -> ipin ---- *)
  let pin_of = Hashtbl.create 64 in
  Array.iter
    (fun (tr : Route.Pathfinder.route_tree) ->
      let net = problem.Place.Problem.nets.(tr.Route.Pathfinder.net_index) in
      List.iter
        (fun (v, parent) ->
          match g.Route.Rrgraph.nodes.(v).Route.Rrgraph.kind with
          | Route.Rrgraph.Sink b -> (
              match g.Route.Rrgraph.nodes.(parent).Route.Rrgraph.kind with
              | Route.Rrgraph.Ipin (_, pin) ->
                  Hashtbl.replace pin_of (b, net.Place.Problem.signal) pin
              | _ -> ())
          | _ -> ())
        tr.Route.Pathfinder.parents)
    routed.Route.Router.result.Route.Pathfinder.trees;
  (* block index of each cluster *)
  let block_of_cluster = Hashtbl.create 16 in
  Array.iteri
    (fun bidx kind ->
      match kind with
      | Place.Problem.Cluster_block cid -> Hashtbl.replace block_of_cluster cid bidx
      | _ -> ())
    problem.Place.Problem.blocks;
  (* ---- CLB configs ---- *)
  let clbs =
    Array.to_list packing.Pack.Cluster.clusters
    |> List.map (fun (c : Pack.Cluster.t) ->
           let bidx = Hashtbl.find block_of_cluster c.Pack.Cluster.id in
           let x, y = Place.Placement.coords placement bidx in
           let slot_of_signal = Hashtbl.create 8 in
           List.iteri
             (fun j (b : Pack.Ble.t) ->
               Hashtbl.replace slot_of_signal b.Pack.Ble.output j)
             c.Pack.Cluster.bles;
           let source_code s =
             match Hashtbl.find_opt slot_of_signal s with
             | Some j -> i_pins + j (* local feedback *)
             | None -> (
                 match Hashtbl.find_opt pin_of (bidx, s) with
                 | Some pin -> pin
                 | None -> i_pins + n (* unconnected (e.g. global clock) *))
           in
           let bles =
             Array.init n (fun j ->
                 match List.nth_opt c.Pack.Cluster.bles j with
                 | None ->
                     {
                       lut_bits = 0;
                       registered = false;
                       clock_enable = false;
                       ff_init = false;
                       input_sources = Array.make k (i_pins + n);
                     }
                 | Some b ->
                     let tt, fanins =
                       match b.Pack.Ble.lut with
                       | Some lsig -> (
                           match Logic.driver lnet lsig with
                           | Logic.Gate { tt; fanins } -> (tt, Array.to_list fanins)
                           | Logic.Const v ->
                               (* constant-generator LUT *)
                               ((if v then Tt.const1 0 else Tt.const0 0), [])
                           | _ -> (Tt.buf, [ lsig ]))
                       | None ->
                           (* FF-only BLE: LUT in buffer mode on input 0 *)
                           (Tt.buf, b.Pack.Ble.inputs)
                     in
                     let sources =
                       Array.init k (fun idx ->
                           match List.nth_opt fanins idx with
                           | Some s -> source_code s
                           | None -> i_pins + n)
                     in
                     let ff_init =
                       match b.Pack.Ble.ff with
                       | Some f -> (
                           match Logic.driver lnet f with
                           | Logic.Latch { init; _ } -> init
                           | _ -> false)
                       | None -> false
                     in
                     {
                       lut_bits = pad_tt tt k;
                       registered = b.Pack.Ble.ff <> None;
                       clock_enable = b.Pack.Ble.ff <> None;
                       ff_init;
                       input_sources = sources;
                     })
           in
           { x; y; cluster = c.Pack.Cluster.id; block = bidx; bles })
  in
  (* ---- routing switches in use ---- *)
  let switch_set = Hashtbl.create 256 in
  let pin_set = Hashtbl.create 256 in
  Array.iter
    (fun (tr : Route.Pathfinder.route_tree) ->
      List.iter
        (fun (v, parent) ->
          if is_wire g v && is_wire g parent then begin
            let a = node_desc g v and b = node_desc g parent in
            let key = if a < b then (a, b) else (b, a) in
            Hashtbl.replace switch_set key ()
          end
          else if (is_pin g v && is_wire g parent)
                  || (is_wire g v && is_pin g parent) then begin
            let a = node_desc g v and b = node_desc g parent in
            let key = if a < b then (a, b) else (b, a) in
            Hashtbl.replace pin_set key ()
          end)
        tr.Route.Pathfinder.parents)
    routed.Route.Router.result.Route.Pathfinder.trees;
  let sorted tbl = Hashtbl.fold (fun kv () acc -> kv :: acc) tbl [] |> List.sort compare in
  (* ---- IO pads ---- *)
  let pads =
    Array.to_list
      (Array.mapi
         (fun bidx kind ->
           match kind with
           | Place.Problem.Input_pad s | Place.Problem.Output_pad s -> (
               match Place.Placement.location placement bidx with
               | Fpga_arch.Grid.Pad (x, y, sub) ->
                   Some
                     {
                       pad_block = bidx;
                       pad_x = x;
                       pad_y = y;
                       pad_sub = sub;
                       pad_is_input =
                         (match kind with
                         | Place.Problem.Input_pad _ -> true
                         | _ -> false);
                       pad_name = Logic.name lnet s;
                     }
               | Fpga_arch.Grid.Clb _ -> None)
           | Place.Problem.Cluster_block _ -> None)
         problem.Place.Problem.blocks)
    |> List.filter_map (fun x -> x)
  in
  {
    design = lnet.Logic.model;
    nx = g.Route.Rrgraph.grid.Fpga_arch.Grid.nx;
    ny = g.Route.Rrgraph.grid.Fpga_arch.Grid.ny;
    width = routed.Route.Router.width;
    track_lengths = track_lengths params ~width:routed.Route.Router.width;
    clbs = List.sort (fun a b -> compare (a.x, a.y) (b.x, b.y)) clbs;
    pads = List.sort compare pads;
    switches = sorted switch_set;
    pin_links = sorted pin_set;
  }

(* Total configuration bits (for size reports). *)
let bit_count (params : Fpga_arch.Params.t) cfg =
  let clb_bits = Fpga_arch.Params.clb_config_bits params in
  (List.length cfg.clbs * clb_bits)
  + List.length cfg.switches + List.length cfg.pin_links
