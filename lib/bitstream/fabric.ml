(* Fabric emulation: load a decoded bitstream into a software model of the
   FPGA and reconstruct the logic it implements.

   This is the strongest verification DAGGER offers: connectivity is
   derived purely from the configuration — the ON pass transistors and
   connection-box switches form electrical nets exactly as they would in
   silicon (pass transistors are bidirectional, so a routed net is simply a
   connected component of configured switches), LUT contents come from the
   LUT bits, and the local crossbar codes select each LUT input.  The
   resulting Logic network can be simulated against the original design. *)

open Netlist

exception Invalid_configuration of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_configuration s)) fmt

let desc_str (tag, a, b, t, _) =
  match tag with
  | 0 -> Printf.sprintf "chanx(%d,%d,t%d)" a b t
  | 1 -> Printf.sprintf "chany(%d,%d,t%d)" a b t
  | 2 -> Printf.sprintf "opin(b%d,p%d)" a b
  | 3 -> Printf.sprintf "ipin(b%d,p%d)" a b
  | _ -> Printf.sprintf "desc(%d,%d,%d,%d)" tag a b t

(* Device-geometry validation: the array must be the one the placer
   sizes for the stream's own CLBs and pads, and every configured routing
   switch must be a real switch point of the target device's segmented
   fabric.  Wire descriptors must name wires the track plan actually lays
   out, wire-wire switches may only join two same-track wires where both
   END (the disjoint Fs = 3 box taps segment endpoints only — a long wire
   passing over a switch point has no transistor there), and
   connection-box links must join a pin to a wire running past its
   block's tile.  A bitstream built for a different segment mix fails
   here, loudly, instead of configuring nonsense. *)
let validate_geometry (params : Fpga_arch.Params.t) (cfg : Layout.config) =
  (* first, so a damaged nx/ny never sizes a span list *)
  let n_clbs = List.length cfg.Layout.clbs
  and n_ios = List.length cfg.Layout.pads in
  let { Fpga_arch.Grid.nx; ny; _ } =
    Fpga_arch.Grid.size_for ~n_clbs ~n_ios
      ~io_rat:params.Fpga_arch.Params.io_rat
  in
  if cfg.Layout.nx <> nx || cfg.Layout.ny <> ny then
    fail "a %dx%d array, where %d CLBs and %d pads size a %dx%d device"
      cfg.Layout.nx cfg.Layout.ny n_clbs n_ios nx ny;
  let width = cfg.Layout.width in
  let expected = Layout.track_lengths params ~width in
  if cfg.Layout.track_lengths <> expected then
    fail "bitstream track table [%s] does not match device segment mix %s"
      (String.concat ";"
         (Array.to_list (Array.map string_of_int cfg.Layout.track_lengths)))
      (Fpga_arch.Params.mix_name params);
  let spans_x =
    Array.init width (fun t ->
        Route.Rrgraph.track_spans params ~width ~extent:cfg.Layout.nx ~track:t)
  in
  let spans_y =
    Array.init width (fun t ->
        Route.Rrgraph.track_spans params ~width ~extent:cfg.Layout.ny ~track:t)
  in
  (* tiles of the wire a descriptor names, None if no such wire *)
  let wire_tiles = function
    | 0, xs, _, t, _ when t >= 0 && t < width ->
        List.assoc_opt xs spans_x.(t)
    | 1, _, ys, t, _ when t >= 0 && t < width ->
        List.assoc_opt ys spans_y.(t)
    | _ -> None
  in
  (* the switch points S(x, y) at a wire's two ends *)
  let endpoints desc =
    match (wire_tiles desc, desc) with
    | None, _ -> fail "%s is not a wire of this fabric" (desc_str desc)
    | Some tiles, (0, xs, y, _, _) -> [ (xs - 1, y); (xs + tiles - 1, y) ]
    | Some tiles, (_, x, ys, _, _) -> [ (x, ys - 1); (x, ys + tiles - 1) ]
  in
  let track (_, _, _, t, _) = t in
  List.iter
    (fun (a, b) ->
      if track a <> track b then
        fail "switch %s-%s joins different tracks" (desc_str a) (desc_str b);
      let ea = endpoints a in
      if not (List.exists (fun p -> List.mem p ea) (endpoints b)) then
        fail "switch %s-%s does not join segment endpoints" (desc_str a)
          (desc_str b))
    cfg.Layout.switches;
  let block_xy = Hashtbl.create 16 in
  List.iter
    (fun (clb : Layout.clb_config) ->
      Hashtbl.replace block_xy clb.Layout.block (clb.Layout.x, clb.Layout.y))
    cfg.Layout.clbs;
  List.iter
    (fun (p : Layout.pad_config) ->
      Hashtbl.replace block_xy p.Layout.pad_block (p.Layout.pad_x, p.Layout.pad_y))
    cfg.Layout.pads;
  (* the wire the connection box at tile coordinate [v] taps on a track:
     the same covering-start formula the RR builder uses, including its
     clamp to the channel (edge pads sit off-channel, so their boxes tap
     the nearest wire — tile 0 taps the wire starting at 1) *)
  let segs = Array.of_list params.Fpga_arch.Params.segments in
  let plan = Fpga_arch.Params.track_plan params ~width in
  let covering_start t v =
    let len = segs.(fst plan.(t)).Fpga_arch.Params.s_length in
    let offset = snd plan.(t) in
    let rel = v - (1 - offset) in
    max 1 (v - (rel mod len))
  in
  let adjacent (x, y) desc =
    match (wire_tiles desc, desc) with
    | None, _ -> false
    | Some _, (0, xs, wy, t, _) ->
        (wy = y - 1 || wy = y) && xs = covering_start t x
    | Some _, (_, wx, ys, t, _) ->
        (wx = x - 1 || wx = x) && ys = covering_start t y
  in
  List.iter
    (fun (a, b) ->
      let tag (t, _, _, _, _) = t in
      let wire, pin =
        if tag a <= 1 && tag b >= 2 then (a, b)
        else if tag b <= 1 && tag a >= 2 then (b, a)
        else fail "pin link %s-%s is not pin-to-wire" (desc_str a) (desc_str b)
      in
      let _, blk, _, _, _ = pin in
      match Hashtbl.find_opt block_xy blk with
      | None -> fail "pin link %s references unknown block %d" (desc_str pin) blk
      | Some xy ->
          if not (adjacent xy wire) then
            fail "pin link %s-%s joins a pin to a wire not passing its tile"
              (desc_str pin) (desc_str wire))
    cfg.Layout.pin_links

(* Build the configured netlist.  [params] is the device's architecture
   (K, N, I), as a programmer would know it from the architecture file. *)
let to_logic (params : Fpga_arch.Params.t) (cfg : Layout.config) =
  validate_geometry params cfg;
  let k = params.Fpga_arch.Params.k in
  let n = params.Fpga_arch.Params.n in
  let i_pins = params.Fpga_arch.Params.i in
  (* ---- electrical nets: connected components of configured switches ---- *)
  let descs = Hashtbl.create 256 in
  let touch d =
    if not (Hashtbl.mem descs d) then Hashtbl.replace descs d (Hashtbl.length descs)
  in
  List.iter (fun (a, b) -> touch a; touch b) cfg.Layout.switches;
  List.iter (fun (a, b) -> touch a; touch b) cfg.Layout.pin_links;
  let uf = Util.Union_find.create (max 1 (Hashtbl.length descs)) in
  let union a b = Util.Union_find.union uf (Hashtbl.find descs a) (Hashtbl.find descs b) in
  List.iter (fun (a, b) -> union a b) cfg.Layout.switches;
  List.iter (fun (a, b) -> union a b) cfg.Layout.pin_links;
  let component d =
    match Hashtbl.find_opt descs d with
    | Some idx -> Some (Util.Union_find.find uf idx)
    | None -> None
  in
  (* ---- the reconstructed network ---- *)
  let net = Logic.create ~model:(cfg.Layout.design ^ "_fabric") () in
  (* driver signal of each electrical component, keyed by component root *)
  let comp_driver = Hashtbl.create 64 in
  (* BLE output signals: (block, slot) -> signal id (created lazily so
     feedback and cross-CLB references resolve in any order) *)
  let ble_out = Hashtbl.create 64 in
  List.iter
    (fun (clb : Layout.clb_config) ->
      Array.iteri
        (fun j (_ : Layout.ble_config) ->
          let nm = Printf.sprintf "clb%d_ble%d" clb.Layout.block j in
          Hashtbl.replace ble_out (clb.Layout.block, j) (Logic.add_input net nm))
        clb.Layout.bles)
    cfg.Layout.clbs;
  (* input pads drive their components *)
  List.iter
    (fun (p : Layout.pad_config) ->
      if p.Layout.pad_is_input then begin
        let id = Logic.add_input net p.Layout.pad_name in
        match component (2, p.Layout.pad_block, 0, 0, 0) with
        | Some root -> Hashtbl.replace comp_driver root id
        | None -> () (* an unconnected input pad is legal *)
      end)
    cfg.Layout.pads;
  (* CLB output pins drive their components *)
  List.iter
    (fun (clb : Layout.clb_config) ->
      Array.iteri
        (fun j (ble : Layout.ble_config) ->
          ignore ble;
          match component (2, clb.Layout.block, j, 0, 0) with
          | Some root ->
              Hashtbl.replace comp_driver root
                (Hashtbl.find ble_out (clb.Layout.block, j))
          | None -> ())
        clb.Layout.bles)
    cfg.Layout.clbs;
  (* signal arriving at an input pin, if its component is driven *)
  let at_ipin block pin =
    match component (3, block, pin, 0, 0) with
    | Some root -> Hashtbl.find_opt comp_driver root
    | None -> None
  in
  let const0 = lazy (Logic.add_const net (Logic.fresh_name net "gnd") false) in
  (* ---- realise each BLE ---- *)
  List.iter
    (fun (clb : Layout.clb_config) ->
      Array.iteri
        (fun j (ble : Layout.ble_config) ->
          let out = Hashtbl.find ble_out (clb.Layout.block, j) in
          if ble.Layout.lut_bits = 0 && not ble.Layout.registered then
            (* unused slot: tie low *)
            Logic.set_driver net out (Logic.Const false)
          else begin
            (* resolve the K crossbar codes *)
            let fanins =
              Array.map
                (fun code ->
                  if code < i_pins then
                    match at_ipin clb.Layout.block code with
                    | Some s -> s
                    | None ->
                        fail "CLB %d input pin %d selected but undriven"
                          clb.Layout.block code
                  else if code < i_pins + n then
                    Hashtbl.find ble_out (clb.Layout.block, code - i_pins)
                  else Lazy.force const0)
                ble.Layout.input_sources
            in
            if Array.length fanins <> k then
              fail "CLB %d BLE %d has %d sources" clb.Layout.block j
                (Array.length fanins);
            let tt = Tt.create k ble.Layout.lut_bits in
            (* drop don't-care inputs so the fabric netlist stays tidy *)
            let tt, sup = Tt.compact tt in
            let fanins = Array.of_list (List.map (fun s -> fanins.(s)) sup) in
            if ble.Layout.registered then begin
              let d =
                if Tt.arity tt = 0 then
                  Logic.add_const net (Logic.fresh_name net "c")
                    (Tt.is_const1 tt)
                else
                  Logic.add_gate net (Logic.fresh_name net "lut") tt fanins
              in
              Logic.set_driver net out
                (Logic.Latch { data = d; init = ble.Layout.ff_init })
            end
            else if Tt.arity tt = 0 then
              Logic.set_driver net out (Logic.Const (Tt.is_const1 tt))
            else Logic.set_driver net out (Logic.Gate { tt; fanins })
          end)
        clb.Layout.bles)
    cfg.Layout.clbs;
  (* ---- output pads ---- *)
  List.iter
    (fun (p : Layout.pad_config) ->
      if not p.Layout.pad_is_input then begin
        let src =
          match at_ipin p.Layout.pad_block 0 with
          | Some s -> s
          | None -> fail "output pad %s is undriven" p.Layout.pad_name
        in
        (* a pad-to-pad passthrough makes the output name coincide with the
           input pad's signal: mark that signal as the output directly *)
        if Logic.name net src = p.Layout.pad_name then Logic.set_output net src
        else begin
          let id = Logic.add_gate net p.Layout.pad_name Tt.buf [| src |] in
          Logic.set_output net id
        end
      end)
    cfg.Layout.pads;
  net

(* Emulate a raw bitstream string directly. *)
let of_bitstream (params : Fpga_arch.Params.t) bytes =
  to_logic params (Frames.decode bytes)

(* The programmer's final check: the configured fabric must behave exactly
   like the mapped netlist the flow produced. *)
let functionally_equivalent ?(vectors = 64) ?(cycles = 8)
    (params : Fpga_arch.Params.t) ~reference bytes =
  let fabric = of_bitstream params bytes in
  (* the fabric has no clock pin; output names match the reference's
     primary outputs, input pads its primary inputs *)
  Techmap.Simcheck.is_equivalent ~vectors ~cycles reference fabric
