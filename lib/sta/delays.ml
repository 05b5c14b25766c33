(* Delay providers for the STA engine.

   A provider answers "how long does this connection take?" for every
   arc of the timing graph; the engine itself is provider-agnostic.  The
   flow uses two: the placement-distance provider below (pre-route, the
   linear per-tile model T-VPlace uses) and the routed-Elmore provider
   [Route.Router.sta] builds from the actual routing trees.  Both are
   plain data, so the analyses holding them can be cached. *)

type wires =
  | Distance of {
      coords : (int * int) array;
      t_fixed : float;
      t_per_tile : float;
    }
  | Routed of (int * int, float) Hashtbl.t

type provider = {
  name : string;
  producer : (int, int) Hashtbl.t;
  t_local : float;
  t_logic : float;
  t_clk_q : float;
  t_setup : float;
  wires : wires;
}

let hop coords t_fixed t_per_tile a b =
  let ax, ay = coords.(a) and bx, by = coords.(b) in
  t_fixed +. (t_per_tile *. float_of_int (abs (ax - bx) + abs (ay - by)))

(* Connections between signals produced and consumed in the same block
   cost the local feedback delay.  Inter-block hops cost the distance
   model's hop, or the routed delay into the consuming block.  Signals
   with no known producing block (LUT outputs folded into a merged BLE)
   stay local, and so does a connection no route reaches. *)
let conn p src dst =
  match
    (Hashtbl.find_opt p.producer src, Hashtbl.find_opt p.producer dst, p.wires)
  with
  | Some a, Some b, _ when a = b -> p.t_local
  | Some a, Some b, Distance { coords; t_fixed; t_per_tile } ->
      hop coords t_fixed t_per_tile a b
  | _, Some b, Routed tbl ->
      Option.value (Hashtbl.find_opt tbl (src, b)) ~default:p.t_local
  | _ -> p.t_local

let pad p src block =
  match p.wires with
  | Distance { coords; t_fixed; t_per_tile } -> (
      match Hashtbl.find_opt p.producer src with
      | Some a when a <> block -> hop coords t_fixed t_per_tile a block
      | _ -> p.t_local)
  | Routed tbl -> Option.value (Hashtbl.find_opt tbl (src, block)) ~default:0.0

let of_placement ?(model = Place.Td_timing.default_model) ?producer
    (problem : Place.Problem.t) ~coords =
  let {
    Place.Td_timing.t_local;
    t_per_tile;
    t_fixed;
    t_logic;
    t_clk_q;
    t_setup;
  } =
    model
  in
  let producer =
    (* building the producing-block table is O(signals); callers that
       refresh the provider every temperature step (the annealer's
       incremental hook) pass the graph's shared table instead *)
    match producer with
    | Some tbl -> tbl
    | None -> Place.Td_timing.block_of_signal problem
  in
  {
    name = "placement-distance";
    producer;
    t_local;
    t_logic;
    t_clk_q;
    t_setup;
    wires =
      Distance
        {
          coords = Array.init (Array.length problem.Place.Problem.blocks) coords;
          t_fixed;
          t_per_tile;
        };
  }
