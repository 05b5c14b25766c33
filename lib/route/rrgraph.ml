(* Routing-resource graph for the island-style interconnect of §3.3.

   Geometry (VPR conventions):
   - horizontal channels chanx(x, y) for x in 1..nx, y in 0..ny (the channel
     above row y; y = 0 is below the first row);
   - vertical channels chany(x, y) for x in 0..nx, y in 1..ny;
   - the switch box S(x, y) joins chanx(x, y), chanx(x+1, y), chany(x, y)
     and chany(x, y+1) with the disjoint pattern (Fs = 3): track t connects
     only to track t of the other three channels, and only where wires
     END — a long wire passing over a switch point is not tapped, so
     switches sit at segment endpoints exactly;
   - each channel carries the declared segment mix (Params.segments):
     track t's type and stagger offset come from Params.track_plan, so
     ends of one type distribute evenly across its tracks; a single-type
     channel reduces to the offset = t mod len stagger;
   - every logic block touches the four surrounding channels; pins connect
     to an Fc fraction of the tracks OF EACH SEGMENT TYPE crossing the
     tile (per-type Fc_in/Fc_out); each block has one SINK node fed by its
     input pins (capacity = I), so the router chooses input pins
     naturally.  Output pins are per-BLE. *)

type node_kind =
  | Opin of int * int (* block index, pin *)
  | Ipin of int * int (* block index, pin *)
  | Sink of int       (* block index *)
  | Chanx of int * int * int (* x-start, y, track *)
  | Chany of int * int * int (* x, y-start, track *)

type node = {
  kind : node_kind;
  capacity : int;
  base_cost : float;
  wire_tiles : int; (* tiles spanned; 0 for pins *)
  seg : int;        (* segment-type index (Params.segments); 0 for pins *)
}

type t = {
  nodes : node array;
  edges : int array array;     (* adjacency: node -> successor nodes *)
  node_of_opin : (int * int, int) Hashtbl.t;
  node_of_sink : (int, int) Hashtbl.t;
  width : int;                 (* tracks per channel *)
  params : Fpga_arch.Params.t;
  grid : Fpga_arch.Grid.t;
  (* spatial extent of each node, for bounding-box-limited routing *)
  xlo : int array;
  xhi : int array;
  ylo : int array;
  yhi : int array;
}

let node_count g = Array.length g.nodes

(* The wires along one track of a channel spanning tiles 1..extent:
   (start, tiles) per wire, ascending.  A track of length [len] with
   stagger [offset] breaks at positions 1 - offset + k*len; wires are
   clipped to the channel, so edge wires can span fewer than [len]
   tiles. *)
let spans ~len ~offset ~extent =
  let out = ref [] in
  let xs = ref (1 - offset) in
  while !xs <= extent do
    let xe = min extent (!xs + len - 1) in
    let x0 = max 1 !xs in
    let tiles = xe - x0 + 1 in
    if tiles > 0 then out := (x0, tiles) :: !out;
    xs := !xs + len
  done;
  List.rev !out

let track_spans (params : Fpga_arch.Params.t) ~width ~extent ~track =
  if track < 0 || track >= width then
    invalid_arg "Rrgraph.track_spans: track out of range";
  let segs = Array.of_list params.Fpga_arch.Params.segments in
  let plan = Fpga_arch.Params.track_plan params ~width in
  let si, offset = plan.(track) in
  spans ~len:segs.(si).Fpga_arch.Params.s_length ~offset ~extent

(* Wires are described by their start coordinate; a chanx wire starting at
   (xs, y) covers tiles xs..xs+len-1, clipped to the grid.  Nodes, their
   successor lists and the wire-start lookups live in flat arrays: node
   ids are dense and assigned in creation order. *)
let build (params : Fpga_arch.Params.t) (grid : Fpga_arch.Grid.t)
    (placement : Place.Placement.t) ~width =
  let problem = placement.Place.Placement.problem in
  let blocks = problem.Place.Problem.blocks in
  let nx = grid.Fpga_arch.Grid.nx and ny = grid.Fpga_arch.Grid.ny in
  let segs = Array.of_list params.Fpga_arch.Params.segments in
  let plan = Fpga_arch.Params.track_plan params ~width in
  let seg_of t = fst plan.(t) in
  let len_of t = segs.(seg_of t).Fpga_arch.Params.s_length in
  let offset_of t = snd plan.(t) in
  (* nodes and their successor lists, grown by doubling; a successor
     list is kept most-recent-first without duplicates, and that order
     is the node's final adjacency order *)
  let dummy = { kind = Sink 0; capacity = 0; base_cost = 0.0; wire_tiles = 0; seg = 0 } in
  let nodes = ref (Array.make 1024 dummy) and succ = ref (Array.make 1024 []) in
  let n_nodes = ref 0 in
  let add kind capacity base_cost wire_tiles seg =
    let id = !n_nodes in
    if id = Array.length !nodes then begin
      let grow a fill =
        let b = Array.make (2 * id) fill in
        Array.blit a 0 b 0 id;
        b
      in
      nodes := grow !nodes dummy;
      succ := grow !succ []
    end;
    !nodes.(id) <- { kind; capacity; base_cost; wire_tiles; seg };
    n_nodes := id + 1;
    id
  in
  let rec mem (b : int) = function [] -> false | x :: r -> x = b || mem b r in
  let add_edge a b =
    let cur = !succ.(a) in
    if not (mem b cur) then !succ.(a) <- b :: cur
  in
  (* ---- wire nodes ---- *)
  (* chanx wires: for y in 0..ny, track t, starts xs where wires tile the
     row in steps of the track's segment length at its stagger offset;
     [chanx_id] maps a start (xs, y, t) to its node, -1 where no wire
     starts *)
  let chanx_id = Array.make ((ny + 1) * width * (nx + 1)) (-1) in
  let chanx_slot x0 y t = (((y * width) + t) * (nx + 1)) + x0 in
  let chany_id = Array.make ((nx + 1) * width * (ny + 1)) (-1) in
  let chany_slot x y0 t = (((x * width) + t) * (ny + 1)) + y0 in
  for y = 0 to ny do
    for t = 0 to width - 1 do
      List.iter
        (fun (x0, tiles) ->
          let id = add (Chanx (x0, y, t)) 1 (float_of_int tiles) tiles (seg_of t) in
          chanx_id.(chanx_slot x0 y t) <- id)
        (spans ~len:(len_of t) ~offset:(offset_of t) ~extent:nx)
    done
  done;
  for x = 0 to nx do
    for t = 0 to width - 1 do
      List.iter
        (fun (y0, tiles) ->
          let id = add (Chany (x, y0, t)) 1 (float_of_int tiles) tiles (seg_of t) in
          chany_id.(chany_slot x y0 t) <- id)
        (spans ~len:(len_of t) ~offset:(offset_of t) ~extent:ny)
    done
  done;
  (* wire lookup: the chanx wire covering tile x at (row) y, track t, or
     -1 when there is none *)
  let chanx_covering x y t =
    let len = len_of t and offset = offset_of t in
    (* wire starts at positions 1 - offset + k*len *)
    let rel = x - (1 - offset) in
    let xs = x - (rel mod len) in
    let x0 = max 1 xs in
    if x0 <= nx && y >= 0 && y <= ny then chanx_id.(chanx_slot x0 y t) else -1
  in
  let chany_covering x y t =
    let len = len_of t and offset = offset_of t in
    let rel = y - (1 - offset) in
    let ys = y - (rel mod len) in
    let y0 = max 1 ys in
    if y0 <= ny && x >= 0 && x <= nx then chany_id.(chany_slot x y0 t) else -1
  in
  (* ---- switch boxes (disjoint, Fs = 3) ---- *)
  (* at S(x, y) for x in 0..nx, y in 0..ny: the four incident wires on track
     t are pairwise connected (bidirectional pass transistors) when the
     switch point falls at a wire end *)
  let ends_at_switch_x xs tiles ~sx = xs - 1 = sx || xs + tiles - 1 = sx in
  let ends_at_switch_y ys tiles ~sy = ys - 1 = sy || ys + tiles - 1 = sy in
  for sx = 0 to nx do
    for sy = 0 to ny do
      for t = 0 to width - 1 do
        (* wires whose END touches this switch point *)
        let touching = ref [] in
        let consider id ends =
          if id >= 0 && ends !nodes.(id) && not (mem id !touching) then
            touching := id :: !touching
        in
        consider (chanx_covering sx sy t) (fun n ->
            match n.kind with
            | Chanx (xs, _, _) -> ends_at_switch_x xs n.wire_tiles ~sx
            | _ -> false);
        consider (chanx_covering (sx + 1) sy t) (fun n ->
            match n.kind with Chanx (xs, _, _) -> xs - 1 = sx | _ -> false);
        consider (chany_covering sx sy t) (fun n ->
            match n.kind with
            | Chany (_, ys, _) -> ends_at_switch_y ys n.wire_tiles ~sy
            | _ -> false);
        consider (chany_covering sx (sy + 1) t) (fun n ->
            match n.kind with Chany (_, ys, _) -> ys - 1 = sy | _ -> false);
        let touching = List.sort_uniq compare !touching in
        List.iter
          (fun a ->
            List.iter (fun b -> if a <> b then begin add_edge a b; add_edge b a end)
              touching)
          touching
      done
    done
  done;
  (* ---- block pins ---- *)
  let node_of_opin = Hashtbl.create 64 in
  let node_of_sink = Hashtbl.create 64 in
  (* tracks of each segment type, in ascending track order *)
  let type_tracks =
    let acc = Array.make (Array.length segs) [] in
    for t = width - 1 downto 0 do
      acc.(seg_of t) <- t :: acc.(seg_of t)
    done;
    Array.map Array.of_list acc
  in
  (* connection-box track count for fraction [fc] of [n] same-type
     tracks: at least one (when any exist), at most all of them *)
  let fc_tracks fc n =
    if n = 0 then 0
    else
      let k = int_of_float (Float.round (fc *. float_of_int n)) in
      max 1 (min n k)
  in
  (* the track-t wires of the channels adjacent to tile (x, y), below,
     above, left, right *)
  let each_adjacent_wire x y t connect =
    let via w = if w >= 0 then connect w in
    via (chanx_covering x (y - 1) t);
    via (chanx_covering x y t);
    via (chany_covering (x - 1) y t);
    via (chany_covering x y t)
  in
  (* connect pin [pin] of the block at (x, y) through [connect] to an Fc
     fraction of each segment type's tracks, offset by pin for diversity *)
  let connect_pin ~fc_of ~pin ~x ~y connect =
    Array.iteri
      (fun si tks ->
        let n = Array.length tks in
        let c = fc_tracks (fc_of segs.(si)) n in
        for j = 0 to c - 1 do
          let t = tks.((pin + (j * n / c)) mod n) in
          each_adjacent_wire x y t connect
        done)
      type_tracks
  in
  let fc_in_of (s : Fpga_arch.Params.segment) = s.Fpga_arch.Params.s_fc_in in
  let fc_out_of (s : Fpga_arch.Params.segment) = s.Fpga_arch.Params.s_fc_out in
  Array.iteri
    (fun b kind ->
      let x, y = Place.Placement.coords placement b in
      match kind with
      | Place.Problem.Cluster_block cid ->
          let cluster =
            problem.Place.Problem.packing.Pack.Cluster.clusters.(cid)
          in
          let n_bles = List.length cluster.Pack.Cluster.bles in
          (* output pins: one per BLE slot *)
          for pin = 0 to n_bles - 1 do
            let id = add (Opin (b, pin)) 1 1.0 0 0 in
            Hashtbl.replace node_of_opin (b, pin) id;
            connect_pin ~fc_of:fc_out_of ~pin ~x ~y (fun w -> add_edge id w)
          done;
          (* input pins -> sink *)
          let sink = add (Sink b) params.Fpga_arch.Params.i 0.0 0 0 in
          Hashtbl.replace node_of_sink b sink;
          for pin = 0 to params.Fpga_arch.Params.i - 1 do
            let id = add (Ipin (b, pin)) 1 0.95 0 0 in
            add_edge id sink;
            connect_pin ~fc_of:fc_in_of ~pin ~x ~y (fun w -> add_edge w id)
          done
      | Place.Problem.Input_pad _ ->
          let id = add (Opin (b, 0)) 1 1.0 0 0 in
          Hashtbl.replace node_of_opin (b, 0) id;
          connect_pin ~fc_of:fc_out_of ~pin:0 ~x ~y (fun w -> add_edge id w)
      | Place.Problem.Output_pad _ ->
          let sink = add (Sink b) 1 0.0 0 0 in
          Hashtbl.replace node_of_sink b sink;
          let id = add (Ipin (b, 0)) 1 0.95 0 0 in
          add_edge id sink;
          connect_pin ~fc_of:fc_in_of ~pin:0 ~x ~y (fun w -> add_edge w id))
    blocks;
  let nodes = Array.sub !nodes 0 !n_nodes in
  let edge_arr = Array.init !n_nodes (fun i -> Array.of_list !succ.(i)) in
  (* spatial extents (pins take their block's coordinates) *)
  let m = Array.length nodes in
  let xlo = Array.make m 0 and xhi = Array.make m 0 in
  let ylo = Array.make m 0 and yhi = Array.make m 0 in
  let block_xy b = Place.Placement.coords placement b in
  Array.iteri
    (fun i nd ->
      let x0, x1, y0, y1 =
        match nd.kind with
        | Chanx (xs, y, _) -> (xs, xs + nd.wire_tiles - 1, y, y + 1)
        | Chany (x, ys, _) -> (x, x + 1, ys, ys + nd.wire_tiles - 1)
        | Opin (b, _) | Ipin (b, _) | Sink b ->
            let x, y = block_xy b in
            (x, x, y, y)
      in
      xlo.(i) <- x0; xhi.(i) <- x1; ylo.(i) <- y0; yhi.(i) <- y1)
    nodes;
  {
    nodes;
    edges = edge_arr;
    node_of_opin;
    node_of_sink;
    width;
    params;
    grid;
    xlo;
    xhi;
    ylo;
    yhi;
  }
