(** The integrated design framework: VHDL to configuration bitstream.

    This is the paper's primary contribution — the complete tool-supported
    flow of Fig. 11: VHDL Parser, DIVINER (synthesis), DRUID (EDIF
    fix-up), E2FMT (EDIF to BLIF), SIS (LUT mapping), T-VPack (packing),
    DUTYS (architecture), VPR (place & route), PowerModel and DAGGER.
    Every stage also runs standalone through the bin/ executables.

    The tools compose into one table of seven stages ({!stages})

    {v synth -> techmap -> pack -> place -> route -> sta -> bitstream v}

    and a stage's name is its whole telemetry vocabulary: its registry
    timer, its trace span (a child of the [flow] span), the [stage] of
    its [stage-begin], [stage-end] and [cache] events, and the tag of a
    {!Flow_error} it raises.  A tool inside a multi-tool stage records a
    sub-timer [<stage>.<tool>] ([synth.vhdl-parser], [place.vpr-place],
    ...) and nothing else.

    Each stage is wrapped, when {!config.cache_dir} is set, in a lookup
    against a content-addressed store ({!Cache.Store}).  A stage's key
    digests its stage name, a code-version tag, the content hash of its
    input artifact and the config fields that influence its output — so
    a warm re-run of an unchanged design returns every artifact from the
    store byte-identically (same bitstream bytes, same timing report),
    while an edited source re-runs only the stages whose inputs actually
    changed.  Keys hash the {e real} input artifact rather than the
    upstream stage's key, giving early cutoff: a source edit that
    synthesises to the same netlist stops recomputing after synth.  On a
    stage hit the stage's timers, span and begin/end events are skipped
    along with the work, and the [cache.hit]/[cache.miss]/[cache.store]/
    [cache.bytes] counters record the traffic; the deterministic
    counters and gauges derived from cached artifacts ([place.*],
    [vpr-route.*], [sta.dmax] …) are re-emitted identically either way.
    docs/ARCHITECTURE.md documents the stage graph, the full key schema
    and the invalidation rules. *)

type config = {
  params : Fpga_arch.Params.t;
  seed : int;
  io_rat : int;
      (** unread by the flow, which places at [params.io_rat], the pad
          count the bitstream's fabric check sizes the array by.  Kept
          only for perfbench's copy of the place stage; step 3 of the
          ROADMAP's [benchmark] item deletes it. *)
  search_min_width : bool; (** search the minimum channel width *)
  route_width : int;       (** channel width when [search_min_width] is off *)
  timing_driven : bool;    (** VPR's path-timing-driven place & route,
                               driven by the unified STA engine
                               ({!Sta.Analysis} over a timing graph
                               shared across placement, routing and the
                               final reports) *)
  clock_period : float option;
      (** target clock period in seconds for slack/WNS/TNS; [None]
          measures slack against the achieved critical path instead.
          The fabric's flip-flops are double-edge-triggered, so a
          period [p] leaves [p/2] for combinational logic. *)
  verify_mapping : bool;   (** random-simulation equivalence after SIS *)
  power_options : Power.Model.options;
  jobs : int option;       (** Domain pool size for the parallel stages;
                               [None] = [AMDREL_JOBS] or the machine's
                               recommended domain count.  Outputs are
                               bit-identical for any value. *)
  place_starts : int;      (** independent annealing seeds; best final
                               cost wins (1 = single start) *)
  incremental_sta : bool;
      (** refresh the annealer's timing through {!Sta.Analysis.update}
          cone re-propagation instead of a full analysis per
          temperature.  Bit-identical results either way; this is a
          speed switch (kept as a switch so the equivalence stays
          testable end to end — the [flow incremental STA equivalence]
          test flips it). *)
  sta_full_refresh_every : int;
      (** run a full analysis every Kth refresh of the incremental
          chain (a drift backstop; [<= 0] makes every refresh full) *)
  place_prune_margin : float option;
      (** multi-start budget pruning: abandon starts whose cost trails
          the incumbent by more than this fraction at each milestone
          ([None] runs every start to completion).  Deterministic and
          jobs-independent; see {!Place.Anneal.run_multistart}. *)
  place_prune_interval : int;
      (** temperature steps between pruning milestones *)
  cache_dir : string option;
      (** directory of the content-addressed stage-result store
          ([_amdrel_cache/] by convention; the CLI defaults to it,
          [--no-cache] maps to [None]).  [None] disables memoisation
          entirely: every stage recomputes, nothing touches the disk.
          Safe to share between concurrent runs — entries are written
          atomically and corrupt entries read as misses.  The speed-only
          config knobs ([jobs], [incremental_sta],
          [sta_full_refresh_every]) are excluded from stage keys, so
          flipping them still hits; every output-affecting field is
          included (see docs/ARCHITECTURE.md for the field-by-field
          schema). *)
}

val default_config : config
(** The paper's platform, mapping verification on, width search on,
    routability-driven, single placement start, automatic job count,
    caching off. *)

type result = {
  design : string;
  synthesized : Netlist.Logic.t; (** DIVINER's library-gate network *)
  mapped : Netlist.Logic.t;
  mapped_stats : Netlist.Logic.stats;
  packing : Pack.Cluster.packing;
  n_clusters : int;
  utilization : float;
  grid : Fpga_arch.Grid.t;
  placement_cost : float;
  routed : Route.Router.routed;
  route_stats : Route.Router.stats;
  power : Power.Model.report;
  bitstream : Bitstream.Dagger.generated;
  bitstream_verified : bool;  (** DAGGER structural round-trip *)
  fabric_verified : bool;     (** bitstream emulated on the fabric model *)
  sta_pre : Sta.Analysis.t;
      (** unified STA at the final placement (placement-distance delays) *)
  sta_post : Sta.Analysis.t;
      (** unified STA over the routed design (routed-Elmore delays);
          feed either to {!Sta.Report.paths} for critical-path reports *)
  metrics : Obs.Registry.snapshot;
      (** the full typed telemetry of the run: every stage timer
          (wall + CPU), counter, gauge and histogram, merged across
          domains (see {!Obs.Registry}).  Key schema in
          docs/OBSERVABILITY.md. *)
}

val stages : string list
(** The seven stage names in flow order: [synth], [techmap], [pack],
    [place], [route], [sta], [bitstream]. *)

exception Flow_error of string * exn
(** The failed stage's name (one of {!stages}) and the underlying
    failure. *)

(** {1 The stage computations}

    Each stage's work is a plain function
    [config -> Obs.Registry.t -> input -> output], so any caller can run
    one stage or chain several: the standalone [vpr], [powermodel] and
    [dagger] tools place and route through {!place} and {!route}.
    {!run_vhdl} wraps each one in its stage's cache lookup, registry
    timer, span and events, and records the headline gauges and counters
    ([place.final-cost], [sta.dmax], [vpr-route.*], ...) after it.  A
    function records its tools' [<stage>.<tool>] sub-timers and whatever
    the layers it calls record into the registry, never its stage's own
    timer, and raises the layer's own exception, not {!Flow_error}. *)

val synth : config -> Obs.Registry.t -> string -> Netlist.Logic.t
(** VHDL Parser + DIVINER: source text (possibly several entities; the
    last is the top) to library gates.  Sub-timers [synth.vhdl-parser]
    and [synth.diviner-synth]. *)

val techmap : config -> Obs.Registry.t -> Netlist.Logic.t -> Netlist.Logic.t
(** DIVINER's EDIF writer, DRUID, E2FMT and SIS K-LUT mapping at
    [params.k] (checked by random simulation when [verify_mapping]).
    Sub-timers [techmap.diviner-edif], [techmap.druid], [techmap.e2fmt]
    and [techmap.sis-flowmap]. *)

val pack : config -> Obs.Registry.t -> Netlist.Logic.t -> Pack.Cluster.packing
(** T-VPack at [params.n] BLEs and [params.i] inputs per cluster. *)

val place :
  config -> Obs.Registry.t -> Pack.Cluster.packing -> Place.Anneal.result
(** VPR placement at [params.io_rat] pads per perimeter position:
    {!Place.Anneal.run_multistart} over [place_starts] starts from
    [seed], pruned by [place_prune_margin]/[place_prune_interval], and
    path-timing-driven through the unified STA when [timing_driven].
    Sub-timers [place.vpr-setup] and [place.vpr-place]. *)

val route :
  config -> Obs.Registry.t -> Place.Placement.t -> Route.Router.routed
(** VPR routing on [params]: the minimum-width search when
    [search_min_width], else one routing at [route_width];
    timing-driven when [timing_driven].
    @raise Failure when unroutable. *)

val sta :
  config -> Obs.Registry.t -> Route.Router.routed ->
  Sta.Analysis.t * Sta.Analysis.t
(** The pre-route (placement-distance) and post-route (routed-Elmore)
    analyses against [clock_period]: {!result}'s [sta_pre] and
    [sta_post]. *)

val bitstream :
  config -> Obs.Registry.t -> Route.Router.routed ->
  Power.Model.report * Bitstream.Dagger.generated * bool * bool
(** PowerModel at [power_options], DAGGER's bitstream, its structural
    verification and its fabric emulation: {!result}'s [power],
    [bitstream], [bitstream_verified] and [fabric_verified].  Sub-timers
    [bitstream.powermodel], [bitstream.dagger], [bitstream.dagger-verify]
    and [bitstream.fabric-emulation]. *)

(** {1 The integrated flow} *)

val stage_time : Obs.Registry.snapshot -> float * float
(** [(wall_s, cpu_s)] summed over the stage timers of a compile's
    metrics: the undotted timer keys, one per {!stages} entry that ran
    (a cache hit records none).  Dotted sub-timers are inside a stage
    and are not added again.  [parallel.speedup] is the ratio of the
    two, and the bench's stress table reports the wall sum. *)

val run_vhdl : ?config:config -> ?obs:Obs.Registry.t -> string -> result
(** The full flow from VHDL source text (possibly several entities; the
    last is the top).  [?obs] supplies the metric registry to record
    into (a fresh one is created when omitted); spans are emitted into
    the ambient {!Obs.Span} trace and events into the ambient
    {!Obs.Events} sink, if any. *)

val timing_report_obj : ?design:string -> result -> Obs.Emit.t
(** One JSON object holding the pre-route and post-route
    {!Sta.Report.to_json} reports side by side ([design] overrides the
    name recorded in the result; the CLI passes the input's base name).
    The shape is pinned by the golden fixtures under [test/fixtures/] —
    extend additively. *)

val timing_report_json : ?design:string -> result -> string
(** [timing_report_obj] rendered compactly, newline-terminated. *)

val result_obj : ?source:string -> result -> Obs.Emit.t
(** One JSON object per compiled design: the per-design record
    ([BASE.result.json]) every [amdrel_flow] mode writes — headline QoR
    figures (LUTs, FFs, CLBs, grid, channel width, critical path, power,
    bitstream bits, verified verdict) plus the full metric registry
    under ["metrics"].  [source] records the input path.  The compile
    service embeds the same object under ["result"] in submit
    responses.  Schema in docs/OBSERVABILITY.md. *)

val result_json : ?source:string -> result -> string
(** [result_obj] rendered compactly, newline-terminated. *)

val summary : Obs.Emit.t -> string
(** One line from a per-design record ({!result_obj}, or an [ok: false]
    record carrying [design] and [error]):
    LUTs/FFs/CLBs/grid/Wmin (the routed width when no search ran)/
    critical path/power/bits and the [verified] verdict, or
    [NAME FAILED: error]. *)
