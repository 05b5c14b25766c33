(* Adaptive simulated annealing, following VPR's schedule:
   - initial temperature = 20 x the cost standard deviation of random moves;
   - moves per temperature = inner_num * Nblocks^(4/3);
   - temperature update factor chosen from the acceptance rate;
   - window (range) limiting tracks an 0.44 target acceptance rate;
   - exit when T drops below a small fraction of the cost per net.

   With [timing] options the annealer runs in VPR's path-timing-driven
   mode: cost = (1 - lambda) * bb/bb_norm + lambda * td/td_norm, where the
   timing cost of a connection is criticality^crit_exp x estimated delay;
   criticalities and normalisations refresh at every temperature (through
   the incremental hook, when the flow provides one, so the refresh costs
   a cone update rather than a full re-analysis).

   A move costs O(touched nets + their sinks).  Per-net bounding boxes
   are cached with count-at-boundary bookkeeping ([Placement.bbox_cache]),
   so the wirelength delta needs no terminal rescans, and each touched
   net's timing cost is computed once per move — from the block
   locations and the criticality powers refreshed per temperature — then
   copied on accept.  The move loop allocates no list, tuple, closure or
   float per net or sink.  The float sums keep a fixed order (the
   annealer's determinism contract in docs/ARCHITECTURE.md).  Boxes keep
   integer extents, so cached costs are bit-identical to
   [Placement.net_cost] — and both running totals are nevertheless
   resummed from the per-net arrays at every temperature step and at
   exit, because a total accumulated incrementally across millions of
   moves carries unbounded float drift (the bb_total half of this was a
   real bug: td_total was resummed per temperature, bb_total never). *)

type options = {
  seed : int;
  inner_num : float;  (* VPR's -inner_num; 1.0 reproduces the default effort *)
}

let default_options = { seed = 1; inner_num = 1.0 }

type timing_options = {
  lambda : float;     (* timing tradeoff; VPR default 0.5 *)
  crit_exp : float;   (* criticality exponent; VPR default 1.0 *)
  model : Td_timing.delay_model;
  analyze : coords:(int -> int * int) -> Td_timing.analysis;
      (* the timing analysis, called with the current block coordinates;
         the annealer owns no STA of its own (lib/place cannot depend on
         lib/sta), so the flow injects the unified engine here *)
  make_incremental :
    (unit ->
    coords:(int -> int * int) -> changed_blocks:int list -> Td_timing.analysis)
    option;
      (* factory for a per-run incremental analysis chain: called once
         per annealing run, the returned hook is then fed the blocks
         moved since its previous call.  The chain owns its own state
         (and its own full-refresh cadence), so multi-start runs each
         get an independent chain and stay shared-nothing. *)
}

let default_timing ?make_incremental ~analyze () =
  {
    lambda = 0.5;
    crit_exp = 1.0;
    model = Td_timing.default_model;
    analyze;
    make_incremental;
  }

type result = {
  placement : Placement.t;
  initial_cost : float;
  final_cost : float;   (* bounding-box cost (comparable across modes) *)
  estimated_dmax : float option; (* timing-driven mode: final estimate *)
  moves : int;
  accepted : int;
}

(* Slot bookkeeping.  A move of block [b] to [target] swaps it with the
   target's occupant (if any); undoing it is the same swap back, so both
   directions run the same four slot operations — clear, clear, put,
   put.  Both slot tables are arrays holding -1 or a block, so after
   every swap they are a function of [loc] alone. *)
let pad_index (pl : Placement.t) x y s =
  Placement.pad_slot pl.Placement.problem.Problem.grid x y s

let occupant (pl : Placement.t) = function
  | Fpga_arch.Grid.Clb (x, y) -> pl.Placement.clb_at.(x).(y)
  | Fpga_arch.Grid.Pad (x, y, s) -> pl.Placement.pad_at.(pad_index pl x y s)

let clear (pl : Placement.t) = function
  | Fpga_arch.Grid.Clb (x, y) -> pl.Placement.clb_at.(x).(y) <- -1
  | Fpga_arch.Grid.Pad (x, y, s) -> pl.Placement.pad_at.(pad_index pl x y s) <- -1

let put (pl : Placement.t) blk l =
  pl.Placement.loc.(blk) <- l;
  match l with
  | Fpga_arch.Grid.Clb (x, y) -> pl.Placement.clb_at.(x).(y) <- blk
  | Fpga_arch.Grid.Pad (x, y, s) -> pl.Placement.pad_at.(pad_index pl x y s) <- blk

(* [b1] onto [l1] and, when [b2 >= 0], [b2] onto [l2]; both slots are
   cleared first so a swap never stomps the slot it fills. *)
let swap pl b1 l1 b2 l2 =
  clear pl l1;
  clear pl l2;
  put pl b1 l1;
  if b2 >= 0 then put pl b2 l2

let apply_move pl b target =
  let from = pl.Placement.loc.(b) and o = occupant pl target in
  swap pl b target o from;
  fun () -> swap pl b from o target

(* a location's grid coordinates, defined here so the move loop inlines
   them (calls into Placement are not inlined) *)
let x_of = function Fpga_arch.Grid.Clb (x, _) | Fpga_arch.Grid.Pad (x, _, _) -> x
let y_of = function Fpga_arch.Grid.Clb (_, y) | Fpga_arch.Grid.Pad (_, y, _) -> y

(* ---------------------------------------------------------------- *)
(* Annealing state.  One run = [init] + [temp_step] until finished +
   [finalize]; splitting the schedule into resumable temperature steps
   is what lets the pruned multi-start advance every seed to the same
   milestone before comparing costs.  Every state owns its per-net
   arrays, so suspended states never alias. *)

type state = {
  pl : Placement.t;
  rng : Util.Prng.t;
  problem : Problem.t;
  timing : timing_options option;
  hook :
    (coords:(int -> int * int) -> changed_blocks:int list -> Td_timing.analysis)
    option;
  cache : Placement.bbox_cache;
  tmp_boxes : Placement.box array;     (* per net, move-evaluation copies *)
  tmp_settled : bool array;            (* tmp box was rescanned this move *)
  bb_costs : float array;              (* per net, at the current placement *)
  td_costs : float array;
  bb_new : float array;                (* per net, after the evaluated move *)
  td_new : float array;
  touched : int array;                 (* the evaluated move's nets, ascending *)
  mutable n_touched : int;
  mutable occ : int;                   (* the evaluated move's swapped block, or -1 *)
  mutable crit_pow : float array array; (* criticality^crit_exp per connection *)
  mutable bb_total : float;
  mutable td_total : float;
  mutable bb_scale : float;
  mutable td_scale : float;
  mutable temperature : float;
  mutable window : float;
  mutable moves : int;
  mutable accepted : int;
  mutable changed : bool array;        (* moved since last timing refresh *)
  mutable changed_list : int list;
  mutable steps : int;                 (* completed temperature steps *)
  mutable finished : bool;
  initial_cost : float;
  inner : int;
  pad_locs : Fpga_arch.Grid.location array;
  trivial : bool;
}

let sum_prefix arr n =
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. arr.(i)
  done;
  !s

let n_nets st = Array.length st.problem.Problem.nets

(* Net [ni]'s timing cost at the current placement, written to
   [dst.(ni)]: sum over its sinks, in array order, of criticality^crit_exp
   x the distance-model delay. *)
let td_cost_into st dst ni =
  match st.timing with
  | None -> dst.(ni) <- 0.0
  | Some t ->
      let net = st.problem.Problem.nets.(ni) in
      let loc = st.pl.Placement.loc and crit = st.crit_pow.(ni) in
      let dx = x_of loc.(net.Problem.driver) and dy = y_of loc.(net.Problem.driver) in
      let acc = ref 0.0 in
      for si = 0 to Array.length net.Problem.sinks - 1 do
        let s = loc.(net.Problem.sinks.(si)) in
        let delay =
          t.model.Td_timing.t_fixed
          +. (t.model.Td_timing.t_per_tile
             *. float_of_int (abs (dx - x_of s) + abs (dy - y_of s)))
        in
        acc := !acc +. (crit.(si) *. delay)
      done;
      dst.(ni) <- !acc

let refresh_scales st =
  match st.timing with
  | None ->
      st.bb_scale <- 1.0;
      st.td_scale <- 0.0
  | Some t ->
      st.bb_scale <- (1.0 -. t.lambda) /. Float.max st.bb_total 1e-9;
      st.td_scale <- t.lambda /. Float.max st.td_total 1e-12

let propose st =
  let grid = st.problem.Problem.grid in
  let b = Util.Prng.int st.rng (Array.length st.problem.Problem.blocks) in
  match st.problem.Problem.blocks.(b) with
  | Problem.Cluster_block _ ->
      let bx = x_of st.pl.Placement.loc.(b) and by = y_of st.pl.Placement.loc.(b) in
      let d = Int.max 1 (int_of_float st.window) in
      let x = bx + Util.Prng.int st.rng ((2 * d) + 1) - d in
      let y = by + Util.Prng.int st.rng ((2 * d) + 1) - d in
      let x = Int.max 1 (Int.min grid.Fpga_arch.Grid.nx x) in
      let y = Int.max 1 (Int.min grid.Fpga_arch.Grid.ny y) in
      if x = bx && y = by then None else Some (b, Fpga_arch.Grid.Clb (x, y))
  | Problem.Input_pad _ | Problem.Output_pad _ ->
      let target = Util.Prng.pick st.rng st.pad_locs in
      if target = st.pl.Placement.loc.(b) then None else Some (b, target)

(* The nets touching block [b] or, when [o >= 0], block [o]: the
   ascending, duplicate-free merge of their [cache.touch] rows, into
   [st.touched]. *)
let gather_touched st b o =
  let tb = st.cache.Placement.touch.(b) in
  let t_o = if o >= 0 then st.cache.Placement.touch.(o) else [||] in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < Array.length tb || !j < Array.length t_o do
    let nb = if !i < Array.length tb then fst tb.(!i) else max_int in
    let no = if !j < Array.length t_o then fst t_o.(!j) else max_int in
    let ni = Int.min nb no in
    if nb = ni then incr i;
    if no = ni then incr j;
    st.touched.(!n) <- ni;
    incr n
  done;
  st.n_touched <- !n

(* Shift the move-evaluation copy of every net touching [mover] for its
   [src] -> [dst] relocation; a box whose boundary emptied is rescanned
   from the (already fully updated) placement and settles — later movers
   are already reflected in the rescan, so it takes no further shifts. *)
let shift_mover st mover src dst =
  let src = (x_of src, y_of src) and dst = (x_of dst, y_of dst) in
  let touch = st.cache.Placement.touch.(mover) in
  for k = 0 to Array.length touch - 1 do
    let ni, count = touch.(k) in
    if not st.tmp_settled.(ni) then
      if not (Placement.shift_box st.tmp_boxes.(ni) ~count ~src ~dst) then begin
        Placement.scan_box st.pl ni st.tmp_boxes.(ni);
        st.tmp_settled.(ni) <- true
      end
  done

(* Evaluate a move: apply it, cost every touched net once at the new
   placement into [bb_new]/[td_new], and return the scaled cost delta.
   The caller then commits (copies those costs and the temp boxes in) or
   swaps back; the cache is never written before a commit. *)
let eval_move st b target =
  let from = st.pl.Placement.loc.(b) in
  let o = occupant st.pl target in
  st.occ <- o;
  gather_touched st b o;
  let bb_before = ref 0.0 and td_before = ref 0.0 in
  for i = 0 to st.n_touched - 1 do
    let ni = st.touched.(i) in
    bb_before := !bb_before +. st.bb_costs.(ni);
    td_before := !td_before +. st.td_costs.(ni);
    Placement.copy_box ~src:st.cache.Placement.boxes.(ni)
      ~dst:st.tmp_boxes.(ni);
    st.tmp_settled.(ni) <- false
  done;
  swap st.pl b target o from;
  shift_mover st b from target;
  if o >= 0 then shift_mover st o target from;
  let bb_after = ref 0.0 and td_after = ref 0.0 in
  for i = 0 to st.n_touched - 1 do
    let ni = st.touched.(i) in
    let box = st.tmp_boxes.(ni) in
    st.bb_new.(ni) <-
      st.cache.Placement.qs.(ni)
      *. float_of_int
           (box.Placement.xmax - box.Placement.xmin
           + (box.Placement.ymax - box.Placement.ymin));
    td_cost_into st st.td_new ni;
    bb_after := !bb_after +. st.bb_new.(ni);
    td_after := !td_after +. st.td_new.(ni)
  done;
  ((!bb_after -. !bb_before) *. st.bb_scale)
  +. ((!td_after -. !td_before) *. st.td_scale)

let mark_changed st b =
  if not st.changed.(b) then begin
    st.changed.(b) <- true;
    st.changed_list <- b :: st.changed_list
  end

(* Accept the evaluated move of [b]: per touched net, ascending, the
   totals drop the old cost and gain the new one. *)
let commit st b =
  let bb = ref st.bb_total and td = ref st.td_total in
  for i = 0 to st.n_touched - 1 do
    let ni = st.touched.(i) in
    Placement.copy_box ~src:st.tmp_boxes.(ni) ~dst:st.cache.Placement.boxes.(ni);
    bb := !bb -. st.bb_costs.(ni);
    td := !td -. st.td_costs.(ni);
    st.bb_costs.(ni) <- st.bb_new.(ni);
    st.td_costs.(ni) <- st.td_new.(ni);
    bb := !bb +. st.bb_costs.(ni);
    td := !td +. st.td_costs.(ni)
  done;
  st.bb_total <- !bb;
  st.td_total <- !td;
  mark_changed st b;
  if st.occ >= 0 then mark_changed st st.occ

let try_move st temperature =
  match propose st with
  | None -> ()
  | Some (b, target) ->
      st.moves <- st.moves + 1;
      let from = st.pl.Placement.loc.(b) in
      let delta = eval_move st b target in
      if delta <= 0.0 || Util.Prng.float st.rng < exp (-.delta /. temperature)
      then begin
        st.accepted <- st.accepted + 1;
        commit st b
      end
      else swap st.pl b from st.occ target

let exit_scale st =
  (* the floor guards degenerate placements whose cost reaches zero
     (e.g. only pad-to-pad nets): the schedule must still terminate *)
  Float.max 1e-9
    (match st.timing with
    | None -> 0.005 *. st.bb_total /. float_of_int (n_nets st)
    | Some _ ->
        (* costs are normalised to ~1 in timing mode *)
        0.005 /. float_of_int (n_nets st))

(* New criticalities (and their crit_exp powers) from the timing hook,
   then every net's timing cost and the resummed total. *)
let refresh_timing st =
  match (st.timing, st.hook) with
  | Some t, Some hook ->
      let a =
        hook ~coords:(Placement.coords st.pl) ~changed_blocks:st.changed_list
      in
      st.crit_pow <-
        Array.map (Array.map (fun c -> c ** t.crit_exp)) a.Td_timing.criticality;
      List.iter (fun b -> st.changed.(b) <- false) st.changed_list;
      st.changed_list <- [];
      for ni = 0 to n_nets st - 1 do
        td_cost_into st st.td_costs ni
      done;
      st.td_total <- sum_prefix st.td_costs (n_nets st)
  | _ -> ()

let trivial_state options problem pl =
  {
    pl;
    rng = Util.Prng.create options.seed;
    problem;
    timing = None;
    hook = None;
    cache = { Placement.boxes = [||]; qs = [||]; touch = [||] };
    tmp_boxes = [||];
    tmp_settled = [||];
    bb_costs = [||];
    td_costs = [||];
    bb_new = [||];
    td_new = [||];
    touched = [||];
    n_touched = 0;
    occ = -1;
    crit_pow = [||];
    bb_total = 0.0;
    td_total = 0.0;
    bb_scale = 1.0;
    td_scale = 0.0;
    temperature = 0.0;
    window = 1.0;
    moves = 0;
    accepted = 0;
    changed = [||];
    changed_list = [];
    steps = 0;
    finished = true;
    initial_cost = 0.0;
    inner = 0;
    pad_locs = [||];
    trivial = true;
  }

let init ?(options = default_options) ?timing (problem : Problem.t) =
  let rng = Util.Prng.create options.seed in
  let pl = Placement.initial ~seed:options.seed problem in
  let grid = problem.Problem.grid in
  let n_blocks = Array.length problem.Problem.blocks in
  let n_nets = Array.length problem.Problem.nets in
  if n_nets = 0 || n_blocks <= 1 then trivial_state options problem pl
  else begin
    let cache = Placement.bbox_cache pl in
    let bb_costs = Array.init n_nets (Placement.box_cost cache) in
    let bb_total = sum_prefix bb_costs n_nets in
    let hook =
      Option.map
        (fun t ->
          match t.make_incremental with
          | Some f -> f ()
          | None -> fun ~coords ~changed_blocks:_ -> t.analyze ~coords)
        timing
    in
    let st =
      {
        pl;
        rng;
        problem;
        timing;
        hook;
        cache;
        tmp_boxes = Array.init n_nets (fun _ -> Placement.empty_box ());
        tmp_settled = Array.make n_nets false;
        bb_costs;
        td_costs = Array.make n_nets 0.0;
        bb_new = Array.make n_nets 0.0;
        td_new = Array.make n_nets 0.0;
        touched = Array.make n_nets 0;
        n_touched = 0;
        occ = -1;
        crit_pow = [||];
        bb_total;
        td_total = 0.0;
        bb_scale = 1.0;
        td_scale = 0.0;
        temperature = 0.0;
        window = float_of_int (max grid.Fpga_arch.Grid.nx 1);
        moves = 0;
        accepted = 0;
        changed = Array.make n_blocks false;
        changed_list = [];
        steps = 0;
        finished = false;
        initial_cost = bb_total;
        inner =
          (int_of_float
             (options.inner_num *. (float_of_int n_blocks ** (4.0 /. 3.0)))
          |> max 16);
        pad_locs =
          Array.of_list
            (List.map
               (fun (x, y, s) -> Fpga_arch.Grid.Pad (x, y, s))
               (Fpga_arch.Grid.pad_positions grid));
        trivial = false;
      }
    in
    refresh_timing st;
    refresh_scales st;
    (* initial temperature from random-move statistics *)
    let sample_deltas = Array.make (min 200 (20 * n_blocks)) 0.0 in
    for idx = 0 to Array.length sample_deltas - 1 do
      match propose st with
      | None -> ()
      | Some (b, target) ->
          let from = pl.Placement.loc.(b) in
          sample_deltas.(idx) <- eval_move st b target;
          swap pl b from st.occ target
    done;
    st.temperature <- (20.0 *. Util.Stats.stddev sample_deltas) +. 1e-9;
    st
  end

(* One temperature step: refresh criticalities / normalisations, run the
   inner move loop, cool and adapt the window, and detect the schedule
   exit (running the final greedy pass before marking finished). *)
let temp_step ?obs st =
  if not st.finished then begin
    let t0 = Unix.gettimeofday () in
    refresh_timing st;
    (* both totals resum from the exact per-net arrays: incremental
       accumulation across the inner loops must not survive a
       temperature boundary (bb_total's missing resum was the drift
       bug this mirrors td_total's fix onto) *)
    st.bb_total <- sum_prefix st.bb_costs (n_nets st);
    refresh_scales st;
    let accepted_before = st.accepted in
    let move_loop temperature =
      let loop () =
        for _ = 1 to st.inner do
          try_move st temperature
        done
      in
      match obs with
      | Some o ->
          let moves_before = st.moves in
          Obs.Registry.time o "place.move-eval" loop;
          Obs.Registry.incr ~by:(st.moves - moves_before) o "place.moves-evaluated"
      | None -> loop ()
    in
    move_loop st.temperature;
    let rate =
      float_of_int (st.accepted - accepted_before) /. float_of_int st.inner
    in
    (match obs with
    | Some o -> Obs.Registry.observe o "place.accept-rate" rate
    | None -> ());
    Obs.Events.emit
      (Obs.Events.Place_temperature
         {
           step = st.steps;
           temperature = st.temperature;
           accept_rate = rate;
           wall_s = Unix.gettimeofday () -. t0;
         });
    let alpha =
      if rate > 0.96 then 0.5
      else if rate > 0.8 then 0.9
      else if rate > 0.15 then 0.95
      else 0.8
    in
    st.temperature <- st.temperature *. alpha;
    st.window <- st.window *. (1.0 -. 0.44 +. rate);
    st.window <-
      Float.max 1.0
        (Float.min st.window
           (float_of_int st.problem.Problem.grid.Fpga_arch.Grid.nx));
    st.steps <- st.steps + 1;
    if st.temperature < exit_scale st then begin
      (* final greedy pass at T ~ 0 *)
      move_loop 1e-9;
      st.bb_total <- sum_prefix st.bb_costs (n_nets st);
      st.finished <- true
    end
  end

let finalize st =
  let estimated_dmax =
    if st.trivial then None
    else
      match st.hook with
      | Some hook ->
          let a =
            hook ~coords:(Placement.coords st.pl) ~changed_blocks:st.changed_list
          in
          List.iter (fun b -> st.changed.(b) <- false) st.changed_list;
          st.changed_list <- [];
          Some a.Td_timing.dmax
      | None -> None
  in
  (* exact exit cost: resummed from per-net costs, themselves exact *)
  if not st.trivial then st.bb_total <- sum_prefix st.bb_costs (n_nets st);
  {
    placement = st.pl;
    initial_cost = st.initial_cost;
    final_cost = st.bb_total;
    estimated_dmax;
    moves = st.moves;
    accepted = st.accepted;
  }

let run ?options ?timing ?obs (problem : Problem.t) =
  let st = init ?options ?timing problem in
  while not st.finished do
    temp_step ?obs st
  done;
  finalize st

(* Multi-start annealing: [starts] independent runs on seeds
   seed, seed+1, ..., the best final bounding-box cost wins.  Each run
   only reads the shared problem and derives all randomness from its own
   seed, so the runs parallelise shared-nothing across a Domain pool and
   the winner — ties broken toward the lowest seed offset, as a
   sequential scan would — is identical for any [jobs]. *)

(* Budget-adaptive pruning: advance every live seed [prune_interval]
   temperature steps, then compare the merged snapshot of their exact
   (resummed) bounding-box totals and kill the unfinished seeds trailing
   the incumbent by more than [margin].  Every comparison happens at a
   barrier over the same deterministic snapshot and the incumbent is
   never killed, so the surviving set — and hence the winner — is
   identical for any [jobs]. *)
let run_pruned ~options ~timing ~jobs ~starts ~margin ~interval ~obs problem =
  let states =
    Util.Parallel.map ?jobs
      (fun k ->
        init ~options:{ options with seed = options.seed + k } ?timing problem)
      (Array.init starts Fun.id)
  in
  let live = Array.make starts true in
  let running = ref true in
  while !running do
    let active =
      Array.of_list
        (List.filter
           (fun i -> live.(i) && not states.(i).finished)
           (List.init starts Fun.id))
    in
    if Array.length active = 0 then running := false
    else begin
      ignore
        (Util.Parallel.map ?jobs
           (fun i ->
             let st = states.(i) in
             let n = ref 0 in
             while (not st.finished) && !n < interval do
               temp_step ?obs st;
               incr n
             done)
           active);
      (* milestone: exact totals were resummed at each state's last
         temperature boundary, so the snapshot is drift-free *)
      let best = ref infinity in
      Array.iteri
        (fun i st -> if live.(i) && st.bb_total < !best then best := st.bb_total)
        states;
      let cutoff = (1.0 +. margin) *. !best in
      Array.iteri
        (fun i st ->
          if live.(i) && (not st.finished) && st.bb_total > cutoff then
            live.(i) <- false)
        states
    end
  done;
  let results =
    Array.to_list
      (Array.mapi
         (fun i st -> if live.(i) && st.finished then Some (finalize st) else None)
         states)
    |> List.filter_map Fun.id
  in
  match results with
  | [] -> assert false (* the incumbent is never killed *)
  | first :: rest ->
      (* strict < keeps the earliest surviving seed on ties *)
      List.fold_left
        (fun best r -> if r.final_cost < best.final_cost then r else best)
        first rest

let run_multistart ?(options = default_options) ?timing ?jobs ?(starts = 1)
    ?prune_margin ?(prune_interval = 4) ?obs (problem : Problem.t) =
  if starts <= 1 then run ~options ?timing ?obs problem
  else
    (* starts > 1 anneals inside Parallel.map, which runs inline at
       jobs=1 but on pool domains otherwise — suppress progress events
       so the emitted sequence stays jobs-independent *)
    Obs.Events.without @@ fun () ->
    (* an infinite margin never prunes: every start runs to completion *)
    run_pruned ~options ~timing ~jobs ~starts
      ~margin:(Option.value prune_margin ~default:infinity)
      ~interval:(max 1 prune_interval) ~obs problem
