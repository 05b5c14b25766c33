(* A placement assignment plus the bounding-box wirelength cost. *)

type t = {
  problem : Problem.t;
  loc : Fpga_arch.Grid.location array;       (* per block *)
  clb_at : int array array;                  (* (x, y) -> block or -1 *)
  pad_at : (int * int * int, int) Hashtbl.t; (* (x, y, sub) -> block *)
}

let location t b = t.loc.(b)

let x_of = function Fpga_arch.Grid.Clb (x, _) | Fpga_arch.Grid.Pad (x, _, _) -> x
let y_of = function Fpga_arch.Grid.Clb (_, y) | Fpga_arch.Grid.Pad (_, y, _) -> y
let coords t b = (x_of t.loc.(b), y_of t.loc.(b))

(* Random initial placement. *)
let initial ?(seed = 1) (problem : Problem.t) =
  let rng = Util.Prng.create seed in
  let grid = problem.Problem.grid in
  let clb_slots = Array.of_list (Fpga_arch.Grid.clb_positions grid) in
  let pad_slots = Array.of_list (Fpga_arch.Grid.pad_positions grid) in
  Util.Prng.shuffle rng clb_slots;
  Util.Prng.shuffle rng pad_slots;
  let loc =
    Array.make (Array.length problem.Problem.blocks) (Fpga_arch.Grid.Clb (0, 0))
  in
  let clb_at = Array.make_matrix (grid.Fpga_arch.Grid.nx + 2)
      (grid.Fpga_arch.Grid.ny + 2) (-1) in
  let pad_at = Hashtbl.create 64 in
  let next_clb = ref 0 and next_pad = ref 0 in
  Array.iteri
    (fun b kind ->
      match kind with
      | Problem.Cluster_block _ ->
          let x, y = clb_slots.(!next_clb) in
          incr next_clb;
          loc.(b) <- Fpga_arch.Grid.Clb (x, y);
          clb_at.(x).(y) <- b
      | Problem.Input_pad _ | Problem.Output_pad _ ->
          let x, y, sub = pad_slots.(!next_pad) in
          incr next_pad;
          loc.(b) <- Fpga_arch.Grid.Pad (x, y, sub);
          Hashtbl.replace pad_at (x, y, sub) b)
    problem.Problem.blocks;
  { problem; loc; clb_at; pad_at }

(* ---------- cost ---------- *)

(* VPR's bounding-box wirelength: half-perimeter scaled by a fanout
   correction factor q (Cheng's values, linearised above 3 terminals). *)
let q_factor terminals =
  if terminals <= 3 then 1.0
  else 0.8624 +. (0.1 *. float_of_int (terminals - 3))

let net_bbox t (net : Problem.net) =
  let x0, y0 = coords t net.Problem.driver in
  let xmin = ref x0 and xmax = ref x0 and ymin = ref y0 and ymax = ref y0 in
  Array.iter
    (fun s ->
      let x, y = coords t s in
      if x < !xmin then xmin := x;
      if x > !xmax then xmax := x;
      if y < !ymin then ymin := y;
      if y > !ymax then ymax := y)
    net.Problem.sinks;
  (!xmin, !xmax, !ymin, !ymax)

let net_cost t net =
  let xmin, xmax, ymin, ymax = net_bbox t net in
  let terminals = 1 + Array.length net.Problem.sinks in
  q_factor terminals *. float_of_int (xmax - xmin + (ymax - ymin))

let total_cost t =
  Array.fold_left (fun acc net -> acc +. net_cost t net) 0.0
    t.problem.Problem.nets

(* ---------- incremental bounding boxes (VPR's update_bb) ----------

   The annealer evaluates millions of moves; rescanning every touched
   net's terminals per move is the placement hot path.  A [box] caches a
   net's extents plus how many terminals sit on each boundary: moving a
   terminal updates the box in O(1) unless the last occupant of a
   boundary moves inward, in which case the extent is unknown and the
   net is rescanned (VPR's get_bb_from_scratch case — rare, amortized
   away).  Extents are integers, so a maintained box yields costs
   bit-identical to {!net_cost}'s scan. *)

type box = {
  mutable xmin : int;
  mutable xmax : int;
  mutable ymin : int;
  mutable ymax : int;
  mutable on_xmin : int;  (* terminals currently at each boundary *)
  mutable on_xmax : int;
  mutable on_ymin : int;
  mutable on_ymax : int;
}

type bbox_cache = {
  boxes : box array;      (* per net *)
  qs : float array;       (* q_factor per net, precomputed *)
  touch : (int * int) array array;
      (* per block: (net index, terminal multiplicity) pairs, ascending
         net index.  Multiplicity covers degenerate nets whose driver
         re-appears among the sinks (never produced by Problem.build,
         but representable and exercised by tests). *)
}

let scan_box t ni box =
  let net = t.problem.Problem.nets.(ni) in
  let x0, y0 = coords t net.Problem.driver in
  box.xmin <- x0;
  box.xmax <- x0;
  box.ymin <- y0;
  box.ymax <- y0;
  box.on_xmin <- 1;
  box.on_xmax <- 1;
  box.on_ymin <- 1;
  box.on_ymax <- 1;
  for k = 0 to Array.length net.Problem.sinks - 1 do
    let l = t.loc.(net.Problem.sinks.(k)) in
    let x = x_of l and y = y_of l in
    if x < box.xmin then begin box.xmin <- x; box.on_xmin <- 1 end
    else if x = box.xmin then box.on_xmin <- box.on_xmin + 1;
    if x > box.xmax then begin box.xmax <- x; box.on_xmax <- 1 end
    else if x = box.xmax then box.on_xmax <- box.on_xmax + 1;
    if y < box.ymin then begin box.ymin <- y; box.on_ymin <- 1 end
    else if y = box.ymin then box.on_ymin <- box.on_ymin + 1;
    if y > box.ymax then begin box.ymax <- y; box.on_ymax <- 1 end
    else if y = box.ymax then box.on_ymax <- box.on_ymax + 1
  done

let copy_box ~src ~dst =
  dst.xmin <- src.xmin;
  dst.xmax <- src.xmax;
  dst.ymin <- src.ymin;
  dst.ymax <- src.ymax;
  dst.on_xmin <- src.on_xmin;
  dst.on_xmax <- src.on_xmax;
  dst.on_ymin <- src.on_ymin;
  dst.on_ymax <- src.on_ymax

let empty_box () =
  { xmin = 0; xmax = 0; ymin = 0; ymax = 0;
    on_xmin = 0; on_xmax = 0; on_ymin = 0; on_ymax = 0 }

let bbox_cache t =
  let nets = t.problem.Problem.nets in
  let n_nets = Array.length nets in
  let boxes = Array.init n_nets (fun _ -> empty_box ()) in
  for ni = 0 to n_nets - 1 do
    scan_box t ni boxes.(ni)
  done;
  let qs =
    Array.map
      (fun (net : Problem.net) ->
        q_factor (1 + Array.length net.Problem.sinks))
      nets
  in
  let touch = Array.make (Array.length t.problem.Problem.blocks) [] in
  let bump b ni =
    match touch.(b) with
    | (ni', m) :: rest when ni' = ni -> touch.(b) <- (ni', m + 1) :: rest
    | l -> touch.(b) <- (ni, 1) :: l
  in
  Array.iteri
    (fun ni (net : Problem.net) ->
      bump net.Problem.driver ni;
      Array.iter (fun s -> bump s ni) net.Problem.sinks)
    nets;
  (* per-net terminal walks emit ascending runs, so sorting by net index
     and merging runs yields exact multiplicities *)
  let touch =
    Array.map
      (fun l ->
        List.sort compare l
        |> List.fold_left
             (fun acc (ni, m) ->
               match acc with
               | (ni', m') :: rest when ni' = ni -> (ni', m' + m) :: rest
               | _ -> (ni, m) :: acc)
             []
        |> List.rev |> Array.of_list)
      touch
  in
  { boxes; qs; touch }

let box_cost cache ni =
  let b = cache.boxes.(ni) in
  cache.qs.(ni) *. float_of_int (b.xmax - b.xmin + (b.ymax - b.ymin))

(* Move [count] terminals of a box from [src] to [dst].  Returns false
   when a boundary lost its last occupant and the new extent is unknown
   (the caller must {!scan_box}). *)
let shift_box box ~count ~src:(ox, oy) ~dst:(nx, ny) =
  let exact = ref true in
  if nx <> ox then begin
    if ox = box.xmin then box.on_xmin <- box.on_xmin - count;
    if ox = box.xmax then box.on_xmax <- box.on_xmax - count;
    if nx < box.xmin then begin
      box.xmin <- nx;
      box.on_xmin <- count
    end
    else if nx = box.xmin then box.on_xmin <- box.on_xmin + count;
    if nx > box.xmax then begin
      box.xmax <- nx;
      box.on_xmax <- count
    end
    else if nx = box.xmax then box.on_xmax <- box.on_xmax + count;
    if box.on_xmin = 0 || box.on_xmax = 0 then exact := false
  end;
  if ny <> oy then begin
    if oy = box.ymin then box.on_ymin <- box.on_ymin - count;
    if oy = box.ymax then box.on_ymax <- box.on_ymax - count;
    if ny < box.ymin then begin
      box.ymin <- ny;
      box.on_ymin <- count
    end
    else if ny = box.ymin then box.on_ymin <- box.on_ymin + count;
    if ny > box.ymax then begin
      box.ymax <- ny;
      box.on_ymax <- count
    end
    else if ny = box.ymax then box.on_ymax <- box.on_ymax + count;
    if box.on_ymin = 0 || box.on_ymax = 0 then exact := false
  end;
  !exact

(* ---------- legality (used by tests) ---------- *)

let legal t =
  let grid = t.problem.Problem.grid in
  let ok = ref true in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun b kind ->
      (match (kind, t.loc.(b)) with
      | Problem.Cluster_block _, Fpga_arch.Grid.Clb (x, y) ->
          if not (Fpga_arch.Grid.in_clb_range grid (x, y)) then ok := false
      | (Problem.Input_pad _ | Problem.Output_pad _), Fpga_arch.Grid.Pad (x, y, sub)
        ->
          if not (Fpga_arch.Grid.is_perimeter grid (x, y)) then ok := false;
          if sub < 0 || sub >= grid.Fpga_arch.Grid.io_rat then ok := false
      | _ -> ok := false);
      if Hashtbl.mem seen t.loc.(b) then ok := false;
      Hashtbl.replace seen t.loc.(b) ())
    t.problem.Problem.blocks;
  !ok
