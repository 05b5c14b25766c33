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
  producer : int array;
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
   with no known producing block (-1: LUT outputs folded into a merged
   BLE) stay local, and so does a connection no route reaches; a routed
   connection needs only its consuming block. *)
let conn p src dst =
  let b = p.producer.(dst) in
  if b < 0 then p.t_local
  else
    let a = p.producer.(src) in
    if a = b then p.t_local
    else
      match p.wires with
      | Distance { coords; t_fixed; t_per_tile } ->
          if a < 0 then p.t_local else hop coords t_fixed t_per_tile a b
      | Routed tbl ->
          Option.value (Hashtbl.find_opt tbl (src, b)) ~default:p.t_local

let pad p src block =
  match p.wires with
  | Distance { coords; t_fixed; t_per_tile } ->
      let a = p.producer.(src) in
      if a >= 0 && a <> block then hop coords t_fixed t_per_tile a block
      else p.t_local
  | Routed tbl -> Option.value (Hashtbl.find_opt tbl (src, block)) ~default:0.0

let of_placement ?(model = Place.Td_timing.default_model) ~producer
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
