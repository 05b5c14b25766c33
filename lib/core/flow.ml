(* The integrated design framework: VHDL -> configuration bitstream.

   This is the paper's primary contribution — the complete tool-supported
   flow of Fig. 11: VHDL Parser, DIVINER (synthesis), DRUID (EDIF fix-up),
   E2FMT (EDIF to BLIF), SIS (LUT mapping), T-VPack (packing), DUTYS
   (architecture file), VPR (place & route), PowerModel and DAGGER.  Every
   stage can also run standalone through the bin/ executables.

   The flow is one table of seven stages

     synth -> techmap -> pack -> place -> route -> sta -> bitstream

   and each stage's work is one exported function of the config, the
   registry and the stage's input artifact.  [run_stage] wraps it and is
   the only place a stage is instrumented: its name is the cache-key
   prefix, the registry timer, the [stage-begin]/[stage-end]/[cache]
   event stage (and so the stage's span in a [--trace] file) and the
   [Flow_error] tag.  A tool inside a multi-tool stage records one
   sub-timer, [<stage>.<tool>], and nothing else.  With
   [config.cache_dir] set a stage is looked up in a content-addressed
   store (lib/cache) first.  A stage's key is the digest of (stage
   name, code-version tag, content hash of its input artifact, the
   config fields that influence its output) — so a warm re-run of an
   unchanged design returns every artifact from the store
   byte-identically, and an edited source re-runs only the stages whose
   inputs actually changed (hashing the real input artifact, not the
   upstream key, gives early cutoff: a source edit that synthesises to
   the same netlist stops re-running at synth).  The full
   key schema and invalidation rules live in docs/ARCHITECTURE.md. *)

open Netlist
module R = Obs.Registry

type config = {
  params : Fpga_arch.Params.t;
  seed : int;
  io_rat : int;            (* unread: the flow places at
                              [params.io_rat] (see flow.mli) *)
  search_min_width : bool; (* search the minimum channel width *)
  route_width : int;       (* channel width when [search_min_width] is off *)
  timing_driven : bool;    (* VPR's path-timing-driven place & route *)
  clock_period : float option; (* target clock period (seconds) the STA
                                  checks slack against; None = unconstrained
                                  (slacks measured against achieved Dmax) *)
  verify_mapping : bool;   (* random-simulation equivalence after SIS *)
  power_options : Power.Model.options;
  jobs : int option;       (* Domain pool size; None = AMDREL_JOBS or the
                              recommended domain count *)
  place_starts : int;      (* independent annealing seeds; best wins *)
  incremental_sta : bool;  (* cone-limited STA refreshes in the annealer *)
  sta_full_refresh_every : int;
                           (* full-analysis cadence of the incremental
                              chain (every Kth refresh); <= 0 = always
                              full *)
  place_prune_margin : float option;
                           (* multi-start pruning margin (fraction above
                              the incumbent); None = run all to the end *)
  place_prune_interval : int; (* temperature steps between prune points *)
  cache_dir : string option;
                           (* stage-result store directory; None = no
                              caching (every stage recomputes) *)
}

let default_config =
  {
    params = Fpga_arch.Params.amdrel;
    seed = 1;
    io_rat = 2;
    search_min_width = true;
    route_width = 12;
    timing_driven = false;
    clock_period = None;
    verify_mapping = true;
    power_options = Power.Model.default_options;
    jobs = None;
    place_starts = 1;
    incremental_sta = true;
    sta_full_refresh_every = 8;
    place_prune_margin = Some 0.5;
    place_prune_interval = 4;
    cache_dir = None;
  }

type result = {
  design : string;
  synthesized : Logic.t;            (* DIVINER's library-gate network *)
  mapped : Logic.t;
  mapped_stats : Logic.stats;
  packing : Pack.Cluster.packing;
  n_clusters : int;
  utilization : float;
  grid : Fpga_arch.Grid.t;
  placement_cost : float;
  routed : Route.Router.routed;
  route_stats : Route.Router.stats;
  power : Power.Model.report;
  bitstream : Bitstream.Dagger.generated;
  bitstream_verified : bool;
  fabric_verified : bool;   (* bitstream emulated on the fabric model *)
  sta_pre : Sta.Analysis.t;         (* unified STA at the final placement *)
  sta_post : Sta.Analysis.t;        (* unified STA over the routed design *)
  metrics : R.snapshot;
}

exception Flow_error of string * exn
(** Stage name and underlying failure. *)

(* ---------- the seven stage computations ---------- *)

let sta_constraints config =
  { Sta.Analysis.default_constraints with
    Sta.Analysis.period = config.clock_period }

(* VHDL Parser + DIVINER: library gates from source text.  Parsing and
   elaboration have no knobs. *)
let synth (_ : config) obs text =
  let file =
    R.time obs "synth.vhdl-parser" (fun () ->
        Netlist.Vhdl_parser.file_of_string text)
  in
  let top = List.nth file (List.length file - 1) in
  R.time obs "synth.diviner-synth" (fun () ->
      Synth.Diviner.synthesize_ast ~library:file top)

(* DIVINER end: EDIF out; DRUID: normalise; E2FMT: back to BLIF/logic;
   SIS: LUT mapping.  Only the mapped network comes out: the
   intermediate EDIF forms are worthless without the mapping. *)
let techmap config obs net =
  let edif =
    R.time obs "techmap.diviner-edif" (fun () -> Netlist.Edif.of_logic net)
  in
  let normalized =
    R.time obs "techmap.druid" (fun () -> Synth.Druid.normalize edif)
  in
  let net2 =
    R.time obs "techmap.e2fmt" (fun () -> Netlist.Edif.to_logic normalized)
  in
  fst
    (R.time obs "techmap.sis-flowmap" (fun () ->
         Techmap.Mapper.map_network ~k:config.params.Fpga_arch.Params.k
           ~verify:config.verify_mapping net2))

(* T-VPack *)
let pack config (_ : R.t) mapped =
  Pack.Cluster.pack ~n:config.params.Fpga_arch.Params.n
    ~i:config.params.Fpga_arch.Params.i mapped

(* VPR placement.  vpr-setup also levelises the unified timing graph:
   it depends only on the packed netlist, so one build serves the
   annealer's per-temperature refreshes and its criticalities. *)
let place config obs packing =
  let problem, sta_graph =
    R.time obs "place.vpr-setup" (fun () ->
        let problem =
          Place.Problem.build ~io_rat:config.params.Fpga_arch.Params.io_rat
            packing
        in
        (problem, Sta.Graph.build problem))
  in
  let constraints = sta_constraints config in
  let provider_at coords =
    Sta.Delays.of_placement ~producer:sta_graph.Sta.Graph.block_of problem
      ~coords
  in
  let sta_at coords =
    Sta.Analysis.run ~constraints ?jobs:config.jobs ~obs sta_graph
      (provider_at coords)
  in
  (* Incremental analysis chains for the annealer: one per annealing
     run (the factory is called at each run's initialisation), each
     holding the previous analysis and re-propagating only the moved
     blocks' cones, with a full re-analysis every
     [sta_full_refresh_every]-th refresh as a drift backstop — the
     incremental update is bit-exact, so the backstop guards the code,
     not the numbers. *)
  let make_incremental () =
    let state = ref None in
    let calls = ref 0 in
    fun ~coords ~changed_blocks ->
      let k = config.sta_full_refresh_every in
      let a =
        match !state with
        | Some prev when k > 0 && !calls mod k <> 0 ->
            Sta.Analysis.update ?jobs:config.jobs ~obs ~changed_blocks prev
              (provider_at coords)
        | _ ->
            R.incr obs "sta.incr.full-refresh";
            sta_at coords
      in
      incr calls;
      state := Some a;
      Sta.Analysis.to_td a
  in
  R.time obs "place.vpr-place" (fun () ->
      let timing =
        if config.timing_driven then
          Some
            (Place.Anneal.default_timing
               ?make_incremental:
                 (if config.incremental_sta then Some make_incremental
                  else None)
               ~analyze:(fun ~coords -> Sta.Analysis.to_td (sta_at coords))
               ())
        else None
      in
      Place.Anneal.run_multistart
        ~options:{ Place.Anneal.seed = config.seed; inner_num = 1.0 }
        ?timing ?jobs:config.jobs ~starts:config.place_starts
        ?prune_margin:config.place_prune_margin
        ~prune_interval:config.place_prune_interval ~obs problem)

(* VPR routing: the minimum-width search, or one routing at
   [config.route_width]. *)
let route config obs placement =
  let timing =
    if config.timing_driven then Some Place.Td_timing.default_model else None
  in
  if config.search_min_width then
    Route.Router.route_min_width ?timing ?jobs:config.jobs ~obs config.params
      placement
  else
    Route.Router.route_fixed ?timing ?jobs:config.jobs ~obs config.params
      placement ~width:config.route_width

(* Unified STA: the placement-distance analysis at the final placement
   and the routed-Elmore analysis over the actual route trees, both on
   one timing graph. *)
let sta config obs (routed : Route.Router.routed) =
  let problem = routed.Route.Router.problem in
  let constraints = sta_constraints config in
  let graph = Sta.Graph.build problem in
  let provider =
    Sta.Delays.of_placement ~producer:graph.Sta.Graph.block_of problem
      ~coords:(Place.Placement.coords routed.Route.Router.placement)
  in
  let pre =
    Sta.Analysis.run ~constraints ?jobs:config.jobs ~obs graph provider
  in
  (pre, Route.Router.sta ~constraints ~graph ~obs routed)

(* PowerModel + DAGGER + the two bitstream verifications: all pure
   functions of the routed design and the power options. *)
let bitstream config obs routed =
  let power =
    R.time obs "bitstream.powermodel" (fun () ->
        Power.Model.estimate ~options:config.power_options routed)
  in
  let generated =
    R.time obs "bitstream.dagger" (fun () -> Bitstream.Dagger.generate routed)
  in
  let bytes = generated.Bitstream.Dagger.bytes in
  let verified =
    R.time obs "bitstream.dagger-verify" (fun () ->
        Bitstream.Dagger.verify routed bytes = Bitstream.Dagger.Verified)
  in
  let emulated =
    R.time obs "bitstream.fabric-emulation" (fun () ->
        Bitstream.Dagger.verify_functional routed bytes)
  in
  (power, generated, verified, emulated)

(* ---------- the stage table ---------- *)

(* The seven stages in flow order.  [version] is part of every cache key
   of its stage, so bumping it invalidates exactly that stage's entries
   — the cheap, explicit alternative to hashing the binary.  Bump on any
   change that alters a stage's output for identical inputs, or the type
   it stores. *)
module Stage = struct
  type t = { name : string; version : int }

  let synth = { name = "synth"; version = 1 }
  and techmap = { name = "techmap"; version = 2 } (* mapped network alone *)
  and pack = { name = "pack"; version = 1 }
  and place = { name = "place"; version = 2 } (* array pad table *)
  and route = { name = "route"; version = 6 } (* embeds the placement *)
  and sta = { name = "sta"; version = 3 } (* array producer, sink users *)
  and bitstream = { name = "bitstream"; version = 2 } (* AMD2 track table *)
end

let stages =
  List.map
    (fun s -> s.Stage.name)
    Stage.[ synth; techmap; pack; place; route; sta; bitstream ]

(* Content hash of an artifact: digest of its unshared Marshal bytes.
   Marshal is deterministic for a given value graph (Hashtbl layouts
   included, since the stdlib tables are unseeded and every artifact is
   built by a deterministic operation sequence), and a value
   round-tripped through the store re-marshals to the same bytes — so
   hashes agree between a computed artifact and its cached copy, and
   across jobs values by the flow's determinism contract. *)
let artifact_hash v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let fp_bool b = if b then "1" else "0"
let fp_float f = Printf.sprintf "%h" f
let fp_float_opt = function None -> "-" | Some f -> fp_float f

type ctx = { config : config; obs : R.t; store : Cache.Store.t option }

(* Run one stage, computing [f config obs input] (one of the functions
   above).  With a store, the lookup comes first and emits the [cache]
   event; [key] (invoked only then) lists the content hashes and config
   fingerprints the stage's output depends on.  A hit returns the stored
   artifact and runs nothing — no timer or begin/end event.  Otherwise
   [f] runs between [stage-begin] and [stage-end], inside the registry
   timer of the stage's name, with any failure raised as
   [Flow_error (name, e)]; its result is stored for next time.
   Nothing is timed or stored when [f] raises. *)
let run_stage ctx (s : Stage.t) key f input =
  let compute () = f ctx.config ctx.obs input in
  let run () =
    Obs.Events.emit (Obs.Events.Stage_begin { stage = s.name });
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        Obs.Events.emit
          (Obs.Events.Stage_end
             { stage = s.name; wall_s = Unix.gettimeofday () -. t0 }))
      (fun () ->
        try R.time ctx.obs s.name compute
        with e -> raise (Flow_error (s.name, e)))
  in
  match ctx.store with
  | None -> run ()
  | Some store -> (
      let k =
        Cache.Store.key
          (s.name :: Printf.sprintf "%s@%d" s.name s.version :: key ())
      in
      let found = Cache.Store.find store k in
      Obs.Events.emit
        (Obs.Events.Cache_lookup
           { stage = s.name; hit = Option.is_some found });
      match found with
      | Some v -> v
      | None ->
          let v = run () in
          Cache.Store.store store k v;
          v)

(* A compile's stage time: wall and CPU seconds summed over the stage
   timers, the undotted keys.  Dotted timers ([place.vpr-place],
   [sta.phase.forward]) time work inside a stage, so adding them would
   count it twice. *)
let stage_time metrics =
  List.fold_left
    (fun (w, c) (e : R.entry) ->
      match e.R.value with
      | R.Timer { wall_s; cpu_s; _ } when not (String.contains e.R.key '.') ->
          (w +. wall_s, c +. cpu_s)
      | _ -> (w, c))
    (0.0, 0.0) metrics

(* The seven stages, from VHDL source text to the bitstream, recording
   into [ctx.obs]. *)
let run_stages ctx text =
  let config = ctx.config and obs = ctx.obs in
  let p = config.params in
  (* synth keys on the source bytes alone.  Early cutoff happens one
     stage later — an edited source that still elaborates to the same
     network gives techmap an unchanged input hash. *)
  let net =
    run_stage ctx Stage.synth
      (fun () -> [ Digest.to_hex (Digest.string text) ])
      synth text
  in
  let mapped =
    run_stage ctx Stage.techmap
      (fun () ->
        [
          artifact_hash net;
          string_of_int p.Fpga_arch.Params.k;
          fp_bool config.verify_mapping;
        ])
      techmap net
  in
  let packing =
    run_stage ctx Stage.pack
      (fun () ->
        [
          artifact_hash mapped;
          string_of_int p.Fpga_arch.Params.n;
          string_of_int p.Fpga_arch.Params.i;
        ])
      pack mapped
  in
  (* The speed-only knobs (jobs, incremental_sta, sta_full_refresh_every)
     are deliberately absent from the place key: they are bit-identical
     switches, so flipping them must keep hitting the same entry. *)
  let anneal =
    run_stage ctx Stage.place
      (fun () ->
        [
          artifact_hash packing;
          string_of_int p.Fpga_arch.Params.io_rat;
          string_of_int config.seed;
          string_of_int config.place_starts;
          fp_bool config.timing_driven;
          fp_float_opt config.clock_period;
          fp_float_opt config.place_prune_margin;
          string_of_int config.place_prune_interval;
        ])
      place packing
  in
  let placement = anneal.Place.Anneal.placement in
  (* the exit cost is resummed from exact per-net costs; recording the
     from-scratch recomputation beside it turns any future drift
     regression into a metrics diff (CI asserts the two are equal).
     Emitted outside the cached stage so warm runs report the same
     deterministic gauges and counters as cold ones. *)
  R.set obs "place.final-cost" anneal.Place.Anneal.final_cost;
  R.set obs "place.final-cost-recomputed"
    (Place.Placement.total_cost placement);
  R.incr ~by:anneal.Place.Anneal.moves obs "place.moves";
  (* Speculative width-search probes stay un-instrumented (the probe set
     depends on the pool size); only the final routing records, keeping
     every metric jobs-independent. *)
  let routed =
    run_stage ctx Stage.route
      (fun () ->
        [
          artifact_hash placement;
          artifact_hash p;
          fp_bool config.search_min_width;
          (if config.search_min_width then "-"
           else string_of_int config.route_width);
          fp_bool config.timing_driven;
        ])
      route placement
  in
  (* Headline STA figures ride in the registry as gauges (sta.* entries
     are seconds-of-delay/slack, not durations). *)
  let routed_hash = lazy (artifact_hash routed) in
  let sta_pre, sta_post =
    run_stage ctx Stage.sta
      (fun () -> [ Lazy.force routed_hash; fp_float_opt config.clock_period ])
      sta routed
  in
  R.set obs "sta.dmax" sta_post.Sta.Analysis.dmax;
  R.set obs "sta.wns" sta_post.Sta.Analysis.wns;
  R.set obs "sta.tns" sta_post.Sta.Analysis.tns;
  (* [stats] reuses the post-route analysis for its critical path *)
  let route_stats = Route.Router.stats ~sta:sta_post routed in
  (* router observability rides in the registry next to the stage timers,
     so benches and reports capture the iteration counters with no extra
     plumbing.  Derived from the routed artifact, so warm runs re-emit
     identical values. *)
  R.incr ~by:route_stats.Route.Router.router_iterations obs
    "vpr-route.iterations";
  R.incr ~by:route_stats.Route.Router.nets_rerouted obs
    "vpr-route.nets-rerouted";
  R.incr ~by:route_stats.Route.Router.heap_pops obs "vpr-route.heap-pops";
  R.incr ~by:route_stats.Route.Router.peak_overuse obs
    "vpr-route.peak-overuse";
  R.incr ~by:route_stats.Route.Router.long_wire_nodes obs
    "vpr-route.long-wires";
  R.incr ~by:route_stats.Route.Router.par_batches obs "route.par.batches";
  R.incr ~by:route_stats.Route.Router.par_batch_max obs "route.par.batch-max";
  R.set obs "route.par.serial-frac" route_stats.Route.Router.par_serial_frac;
  let power, generated, bitstream_verified, fabric_verified =
    run_stage ctx Stage.bitstream
      (fun () -> [ Lazy.force routed_hash; artifact_hash config.power_options ])
      bitstream routed
  in
  (* pool observability: the configured worker count and the measured
     CPU/wall ratio summed over the stage timers (~1.0 sequential,
     approaches the job count when the parallel stages dominate).  Both
     are volatile gauges: time-derived, so excluded from the
     deterministic metrics view. *)
  let wall_sum, cpu_sum = stage_time (R.snapshot obs) in
  R.set ~volatile:true obs "parallel.jobs"
    (float_of_int (Util.Parallel.resolve_jobs ?jobs:config.jobs ()));
  R.set ~volatile:true obs "parallel.speedup"
    (if wall_sum > 0.0 then cpu_sum /. wall_sum else 1.0);
  {
    design = net.Logic.model;
    synthesized = net;
    mapped;
    mapped_stats = Logic.stats mapped;
    packing;
    n_clusters = Pack.Cluster.cluster_count packing;
    utilization = Pack.Cluster.utilization packing;
    grid = routed.Route.Router.problem.Place.Problem.grid;
    placement_cost = anneal.Place.Anneal.final_cost;
    routed;
    route_stats;
    power;
    bitstream = generated;
    bitstream_verified;
    fabric_verified;
    sta_pre;
    sta_post;
    metrics = R.snapshot obs;
  }

(* The full flow from VHDL source text. *)
let run_vhdl ?(config = default_config) ?obs text =
  let obs = match obs with Some o -> o | None -> R.create () in
  let store = Option.map (fun d -> Cache.Store.open_ ~obs d) config.cache_dir in
  run_stages { config; obs; store } text

(* Machine-readable timing report: the pre-route (placement-distance)
   and post-route (routed-Elmore) analyses side by side, one JSON object
   per design.  This exact shape is pinned by the golden fixtures under
   test/fixtures/ — extend it additively. *)
let timing_report_obj ?design (r : result) =
  let name = match design with Some d -> d | None -> r.design in
  let pre = r.sta_pre and post = r.sta_post in
  Obs.Emit.Obj
    [
      ("design", Obs.Emit.String name);
      ("pre_route", Sta.Report.json pre (Sta.Report.paths pre));
      ("post_route", Sta.Report.json post (Sta.Report.paths post));
    ]

let timing_report_json ?design r =
  Obs.Emit.to_string (timing_report_obj ?design r) ^ "\n"

(* One result as a JSON object: the per-design record every amdrel_flow
   mode writes (docs/OBSERVABILITY.md documents the schema).  The
   compile service embeds the same object under ["result"] in submit
   responses, so the two entry points stay schema-identical by
   construction. *)
let result_obj ?source (r : result) =
  let open Obs.Emit in
  Obj
    ([ ("design", String r.design); ("ok", Bool true) ]
    @ (match source with Some s -> [ ("source", String s) ] | None -> [])
    @ [
        ("luts", Int r.mapped_stats.Logic.n_gates);
        ("ffs", Int r.mapped_stats.Logic.n_latches);
        ("clbs", Int r.n_clusters);
        ("nx", Int r.grid.Fpga_arch.Grid.nx);
        ("ny", Int r.grid.Fpga_arch.Grid.ny);
        ("width", Int r.route_stats.Route.Router.channel_width);
        ( "min_width",
          match r.route_stats.Route.Router.minimum_width with
          | Some w -> Int w
          | None -> Null );
        ("critical_path_s", Float r.route_stats.Route.Router.critical_path_s);
        ("power_w", Float r.power.Power.Model.total_w);
        ("bits", Int r.bitstream.Bitstream.Dagger.bits);
        ("verified", Bool (r.bitstream_verified && r.fabric_verified));
        ("metrics", R.to_json r.metrics);
      ])

let result_json ?source r = Obs.Emit.to_string (result_obj ?source r) ^ "\n"

(* One line per design, from its record ([result_obj] or an ok:false
   record): what every amdrel_flow mode prints. *)
let summary record =
  let module J = Obs.Jsonin in
  let get kind key = Option.bind (J.member key record) kind in
  let int key = Option.value (get J.get_int key) ~default:0 in
  let num key = Option.value (get J.get_float key) ~default:nan in
  let str key = Option.value (get J.get_string key) ~default:"?" in
  if get J.get_bool "ok" <> Some true then
    Printf.sprintf "%-12s FAILED: %s" (str "design") (str "error")
  else
    Printf.sprintf
      "%-12s %4d LUTs %3d FFs %3d CLBs %dx%d W=%d crit=%.2fns P=%.2fmW \
       bits=%d %s"
      (str "design") (int "luts") (int "ffs") (int "clbs") (int "nx")
      (int "ny")
      (Option.value (get J.get_int "min_width") ~default:(int "width"))
      (num "critical_path_s" *. 1e9)
      (num "power_w" *. 1e3)
      (int "bits")
      (if get J.get_bool "verified" = Some true then "[verified+emulated]"
       else "[MISMATCH]")
