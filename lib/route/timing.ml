(* Delay estimation over routed nets: Elmore delay on the routing trees.
   [Router.sta] feeds these per-sink delays into the unified STA engine,
   which owns the post-route critical-path computation.

   Electrical constants derive from the platform's circuit design (§3):
   pass-transistor switches at [switch_width] x minimum, and per segment
   type the wire RC of the metal configuration the type selects (the
   default length-1 mix uses the min-width/double-spacing RC selected in
   §3.3).  Logic, clock-to-Q and setup delays are not here: post-route
   STA reads them from [Place.Td_timing.default_model], as pre-route STA
   does. *)


type constants = {
  r_switch : float;   (* routing switch on-resistance, ohm *)
  c_switch : float;   (* switch junction capacitance, F *)
  seg_r_tile : float array; (* per-tile RC per segment type, indexed by
                               Rrgraph node [seg] (one entry per
                               Params.segments element) *)
  seg_c_tile : float array;
  t_ipin : float;     (* connection-box + input buffer delay, s *)
}

(* Per-tile RC of a wire node's segment type. *)
let wire_r consts seg = consts.seg_r_tile.(seg)
let wire_c consts seg = consts.seg_c_tile.(seg)

let wire_config_of_metal = function
  | Fpga_arch.Params.Metal_min_min -> Spice.Tech.Min_width_min_spacing
  | Fpga_arch.Params.Metal_min_double -> Spice.Tech.Min_width_double_spacing
  | Fpga_arch.Params.Metal_double_double ->
      Spice.Tech.Double_width_double_spacing

(* On-resistance of an NMOS pass transistor of the given width multiple in
   the 0.18 um-class process (linear-region estimate at VDD). *)
let pass_resistance (tech : Spice.Tech.t) width_mult =
  let wl = width_mult *. tech.Spice.Tech.w_min /. tech.Spice.Tech.l_min in
  let vov = tech.Spice.Tech.vdd -. tech.Spice.Tech.vt_n in
  1.0 /. (tech.Spice.Tech.kp_n *. wl *. vov)

let default_constants (params : Fpga_arch.Params.t) =
  let tech = Spice.Tech.stm018 in
  let r_switch = pass_resistance tech params.Fpga_arch.Params.switch_width in
  let c_switch =
    2.0 *. tech.Spice.Tech.cj *. params.Fpga_arch.Params.switch_width
    *. tech.Spice.Tech.w_min
  in
  (* per-segment-type RC from the measured wire model behind the
     Fig. 8-10 sizing experiments, one entry per declared segment type
     in the metal configuration the type selects *)
  let rc =
    List.map
      (fun (s : Fpga_arch.Params.segment) ->
        Spice.Routing_exp.wire_rc_per_tile
          ~config:(wire_config_of_metal s.Fpga_arch.Params.s_metal))
      params.Fpga_arch.Params.segments
    |> Array.of_list
  in
  {
    r_switch;
    c_switch;
    seg_r_tile = Array.map fst rc;
    seg_c_tile = Array.map snd rc;
    t_ipin = 0.25e-9;
  }

(* Elmore delay from the source to every node of one routing tree.

   The tree parents list gives (node, parent) pairs; we accumulate
   downstream capacitance bottom-up, then delays top-down. *)
let elmore (g : Rrgraph.t) consts ~source (tree : Pathfinder.route_tree) =
  let node_r n =
    let node = g.Rrgraph.nodes.(n) in
    match node.Rrgraph.kind with
    | Rrgraph.Chanx _ | Rrgraph.Chany _ ->
        consts.r_switch
        +. (wire_r consts node.Rrgraph.seg
           *. float_of_int node.Rrgraph.wire_tiles)
    | Rrgraph.Ipin _ -> consts.r_switch
    | Rrgraph.Opin _ -> consts.r_switch
    | Rrgraph.Sink _ -> 0.0
  in
  let node_c n =
    let node = g.Rrgraph.nodes.(n) in
    match node.Rrgraph.kind with
    | Rrgraph.Chanx _ | Rrgraph.Chany _ ->
        consts.c_switch
        +. (wire_c consts node.Rrgraph.seg
           *. float_of_int node.Rrgraph.wire_tiles)
    | Rrgraph.Ipin _ -> 5e-15
    | Rrgraph.Opin _ -> consts.c_switch
    | Rrgraph.Sink _ -> 0.0
  in
  let children = Hashtbl.create 16 in
  List.iter
    (fun (v, p) ->
      let cur = Option.value (Hashtbl.find_opt children p) ~default:[] in
      Hashtbl.replace children p (v :: cur))
    tree.Pathfinder.parents;
  (* downstream capacitance *)
  let cdown = Hashtbl.create 16 in
  let rec down v =
    match Hashtbl.find_opt cdown v with
    | Some c -> c
    | None ->
        let kids = Option.value (Hashtbl.find_opt children v) ~default:[] in
        let c = node_c v +. List.fold_left (fun acc k -> acc +. down k) 0.0 kids in
        Hashtbl.replace cdown v c;
        c
  in
  ignore (down source);
  (* delay accumulation *)
  let delay = Hashtbl.create 16 in
  let rec walk v t =
    Hashtbl.replace delay v t;
    let kids = Option.value (Hashtbl.find_opt children v) ~default:[] in
    List.iter (fun k -> walk k (t +. (node_r k *. down k))) kids
  in
  walk source (node_r source *. down source);
  delay

(* Routed delay from the net's source block to each sink block. *)
type net_delays = (int, float) Hashtbl.t (* sink block -> delay *)

let net_delays (g : Rrgraph.t) consts ~source (tree : Pathfinder.route_tree) =
  let d = elmore g consts ~source tree in
  let out : net_delays = Hashtbl.create 8 in
  List.iter
    (fun nd ->
      match g.Rrgraph.nodes.(nd).Rrgraph.kind with
      | Rrgraph.Sink b ->
          let t = Option.value (Hashtbl.find_opt d nd) ~default:0.0 in
          Hashtbl.replace out b (t +. consts.t_ipin)
      | _ -> ())
    tree.Pathfinder.nodes;
  out

