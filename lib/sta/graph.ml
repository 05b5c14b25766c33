(* Levelized timing graph over the packed netlist.

   Nodes are the signals of the mapped network (every BLE pin carries
   exactly one signal, so this is the BLE-pin graph of the packing);
   edges are the combinational arcs (fanin -> gate) plus the sequential
   endpoint arcs (data -> latch setup, signal -> output pad).  The graph
   is provider-independent and placement-independent: it is built once
   per packing and shared by every analysis — pre-route, post-route, and
   the per-temperature refreshes inside the annealer. *)

open Netlist

type endpoint =
  | Reg_data of { latch : int; data : int }
  | Pad_out of { block : int; signal : int }

type t = {
  problem : Place.Problem.t;
  net : Logic.t;
  n : int;
  levels : int array array;
  level_of : int array;
  consumers : int list array;
  sink_users : int list array array;
  block_of : int array;
  endpoints : endpoint array;
  (* incremental-update support: the inverse maps that bound a moved
     block's fan-in/fan-out cones *)
  fanins_of : int array array;
  produced_by : int list array;
  net_of_signal : int array;
  nets_of_block : int list array;
}

let depth g = Array.length g.levels - 1

let endpoint_name g = function
  | Reg_data { latch; _ } -> Logic.name g.net latch
  | Pad_out { block; _ } -> Place.Problem.block_name g.problem block

let endpoint_signal = function
  | Reg_data { data; _ } -> data
  | Pad_out { signal; _ } -> signal

let build (problem : Place.Problem.t) =
  let net = problem.Place.Problem.packing.Pack.Cluster.net in
  let n = Logic.signal_count net in
  let order = Logic.topo_order net in
  (* levelization: sources at 0, a gate one past its deepest fanin *)
  let level_of = Array.make n 0 in
  List.iter
    (fun id ->
      match Logic.driver net id with
      | Logic.Gate { fanins; _ } ->
          level_of.(id) <-
            1 + Array.fold_left (fun acc f -> max acc level_of.(f)) 0 fanins
      | Logic.Input | Logic.Const _ | Logic.Latch _ -> level_of.(id) <- 0)
    order;
  let depth = Array.fold_left max 0 level_of in
  let buckets = Array.make (depth + 1) [] in
  for id = n - 1 downto 0 do
    buckets.(level_of.(id)) <- id :: buckets.(level_of.(id))
  done;
  let levels = Array.map Array.of_list buckets in
  (* combinational consumers, ascending id per signal (the backward pass
     pulls required times through these) *)
  let consumers = Array.make n [] in
  for id = n - 1 downto 0 do
    match Logic.driver net id with
    | Logic.Gate { fanins; _ } ->
        Array.iter (fun f -> consumers.(f) <- id :: consumers.(f)) fanins
    | _ -> ()
  done;
  (* signal -> producing block, -1 for none (a LUT output folded into a
     merged BLE, a constant) *)
  let block_of = Array.make n (-1) in
  Hashtbl.iter
    (fun s b -> block_of.(s) <- b)
    (Place.Td_timing.block_of_signal problem);
  (* readers per signal: (consuming signal, its block) for every fanin
     occurrence whose consumer has a producing block, descending
     consumer id *)
  let readers = Array.make n [] in
  for id = 0 to n - 1 do
    let b = block_of.(id) in
    if b >= 0 then
      List.iter (fun f -> readers.(f) <- (id, b) :: readers.(f))
        (Logic.fanins net id)
  done;
  (* per (net, sink position): the signals the net's signal feeds in
     that sink block, the grouping criticality extraction takes the
     worst path over; empty for an output-pad sink *)
  let sink_users =
    Array.map
      (fun (pnet : Place.Problem.net) ->
        let rs = readers.(pnet.Place.Problem.signal) in
        Array.map
          (fun sb ->
            List.filter_map
              (fun (id, b) -> if b = sb then Some id else None)
              rs)
          pnet.Place.Problem.sinks)
      problem.Place.Problem.nets
  in
  (* endpoints: latch data pins (declaration order), then output pads
     (ascending block index) *)
  let eps = ref [] in
  Array.iteri
    (fun bidx kind ->
      match kind with
      | Place.Problem.Output_pad s ->
          eps := Pad_out { block = bidx; signal = s } :: !eps
      | _ -> ())
    problem.Place.Problem.blocks;
  List.iter
    (fun l ->
      match Logic.driver net l with
      | Logic.Latch { data; _ } -> eps := Reg_data { latch = l; data } :: !eps
      | _ -> ())
    (List.rev (Logic.latches net));
  let endpoints = Array.of_list !eps in
  (* combinational fanins per signal (empty for sources), shared with the
     Logic network — read-only, like every other table here *)
  let fanins_of =
    Array.init n (fun id ->
        match Logic.driver net id with
        | Logic.Gate { fanins; _ } -> fanins
        | _ -> [||])
  in
  (* block -> signals it produces (ascending id): the seed set of a moved
     block's timing cones *)
  let n_blocks = Array.length problem.Place.Problem.blocks in
  let produced_by = Array.make n_blocks [] in
  for s = n - 1 downto 0 do
    let b = block_of.(s) in
    if b >= 0 then produced_by.(b) <- s :: produced_by.(b)
  done;
  (* signal -> routable net index (-1 when the signal has no net) *)
  let net_of_signal = Array.make n (-1) in
  Array.iteri
    (fun ni (pnet : Place.Problem.net) ->
      net_of_signal.(pnet.Place.Problem.signal) <- ni)
    problem.Place.Problem.nets;
  (* block -> nets touching it (driver or sink), for the lazy
     criticality refresh of moved blocks *)
  let nets_of_block = Array.make n_blocks [] in
  Array.iteri
    (fun ni (pnet : Place.Problem.net) ->
      nets_of_block.(pnet.Place.Problem.driver) <-
        ni :: nets_of_block.(pnet.Place.Problem.driver);
      Array.iter
        (fun b -> nets_of_block.(b) <- ni :: nets_of_block.(b))
        pnet.Place.Problem.sinks)
    problem.Place.Problem.nets;
  Array.iteri
    (fun b ns -> nets_of_block.(b) <- List.sort_uniq compare ns)
    nets_of_block;
  {
    problem;
    net;
    n;
    levels;
    level_of;
    consumers;
    sink_users;
    block_of;
    endpoints;
    fanins_of;
    produced_by;
    net_of_signal;
    nets_of_block;
  }
