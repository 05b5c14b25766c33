(** Adaptive simulated annealing, following VPR's schedule: initial
    temperature from random-move statistics, inner_num x Nblocks^(4/3)
    moves per temperature, acceptance-driven cooling and range limiting.

    With [timing] options the annealer runs in VPR's path-timing-driven
    mode: cost = (1-lambda) x bb/bb_norm + lambda x td/td_norm, where a
    connection's timing cost is criticality^crit_exp x estimated delay;
    criticalities and normalisations refresh every temperature.

    Move evaluation is incremental and costs O(touched nets + their
    sinks): per-net bounding boxes are cached ({!Placement.bbox_cache}),
    each touched net's timing cost is computed once per move and reused
    on accept, and the move loop allocates nothing per net or sink.
    Both cost totals are resummed from the exact per-net arrays at
    every temperature boundary and at exit — [final_cost] equals a
    from-scratch {!Placement.total_cost} of the returned placement up
    to the summation order (same ascending net order, hence
    bit-identical). *)

type options = {
  seed : int;
  inner_num : float; (** 1.0 reproduces VPR's default effort *)
}

val default_options : options

type timing_options = {
  lambda : float;   (** timing tradeoff; VPR default 0.5 *)
  crit_exp : float; (** criticality exponent; VPR default 1.0 *)
  model : Td_timing.delay_model;
  analyze : coords:(int -> int * int) -> Td_timing.analysis;
      (** the timing analysis, refreshed at every temperature with the
          current block coordinates.  The annealer has no STA of its own
          (lib/place cannot depend on lib/sta); the flow injects the
          unified engine ([Sta.Analysis] over a shared timing graph,
          adapted via [Sta.Analysis.to_td]).  The hook must be pure —
          multi-start runs call it concurrently from several domains. *)
  make_incremental :
    (unit ->
    coords:(int -> int * int) -> changed_blocks:int list -> Td_timing.analysis)
    option;
      (** factory for an incremental analysis chain.  When present, each
          annealing run calls it once at initialisation and then feeds
          the returned hook the list of blocks moved since its previous
          call (first call: [[]]); the hook may re-propagate only the
          affected timing cones ([Sta.Analysis.update]) as long as the
          result is identical to a fresh analysis.  The chain owns its
          own state, so multi-start runs stay shared-nothing: the
          factory must be safe to call from any domain, and each
          returned hook is only ever used by the run that created it. *)
}

val default_timing :
  ?make_incremental:
    (unit ->
    coords:(int -> int * int) -> changed_blocks:int list -> Td_timing.analysis) ->
  analyze:(coords:(int -> int * int) -> Td_timing.analysis) ->
  unit ->
  timing_options
(** lambda 0.5, crit_exp 1.0, default distance model, the given
    analysis (and optional incremental factory). *)

type result = {
  placement : Placement.t;
  initial_cost : float;
  final_cost : float;  (** bounding-box cost (comparable across modes) *)
  estimated_dmax : float option; (** timing-driven mode only *)
  moves : int;
  accepted : int;
}

val apply_move :
  Placement.t -> int -> Fpga_arch.Grid.location -> unit -> unit
(** Move/swap a block to a target slot (the annealer's own slot
    operations); returns a function that swaps it back.  Exposed for
    testing. *)

val run :
  ?options:options -> ?timing:timing_options -> ?obs:Obs.Registry.t ->
  Problem.t -> result
(** One annealing run.  Fully deterministic in [options.seed]: all
    randomness derives from the explicit {!Util.Prng} stream.  [obs]
    records the per-temperature acceptance rate into the
    ["place.accept-rate"] histogram, the inner move loops under the
    ["place.move-eval"] timer and their moves into the
    ["place.moves-evaluated"] counter; each temperature step also emits
    one [Place_temperature] event to the ambient {!Obs.Events} sink. *)

val run_multistart :
  ?options:options -> ?timing:timing_options -> ?jobs:int -> ?starts:int ->
  ?prune_margin:float -> ?prune_interval:int ->
  ?obs:Obs.Registry.t -> Problem.t -> result
(** [starts] independent runs on seeds [seed, seed+1, ...]; the lowest
    final bounding-box cost wins, ties broken toward the lowest seed
    offset.  Runs are shared-nothing and execute on a Domain pool of
    [jobs] workers (default {!Util.Parallel.default_jobs}); the winner
    is identical for any [jobs].  [starts <= 1] is exactly {!run}.

    [prune_margin] enables budget-adaptive pruning: every
    [prune_interval] (default 4) temperature steps all live starts
    synchronise, their exact (resummed) bounding-box totals are compared
    as one merged snapshot, and unfinished starts trailing the incumbent
    by more than [prune_margin] (a fraction: [0.5] = 50% above the best)
    are abandoned.  The incumbent is never pruned and every decision
    happens at a deterministic barrier, so the winner is still identical
    for any [jobs] — pruning trades exhaustiveness for wall-clock only.
    Without [prune_margin] every start runs to completion.
    ["place.moves-evaluated"] sums the moves of every start, pruned
    ones included, where [moves] is the winner's alone. *)
