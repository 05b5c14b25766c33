(* The integrated design framework: VHDL -> configuration bitstream.

   This is the paper's primary contribution — the complete tool-supported
   flow of Fig. 11: VHDL Parser, DIVINER (synthesis), DRUID (EDIF fix-up),
   E2FMT (EDIF to BLIF), SIS (LUT mapping), T-VPack (packing), DUTYS
   (architecture file), VPR (place & route), PowerModel and DAGGER.  Every
   stage can also run standalone through the bin/ executables.

   The flow is organised as seven individually memoisable stages

     synth -> techmap -> pack -> place -> route -> sta -> bitstream

   each wrapped in a lookup against a content-addressed store
   (lib/cache) when [config.cache_dir] is set.  A stage's key is the
   digest of (stage name, code-version tag, content hash of its input
   artifact, the config fields that influence its output) — so a warm
   re-run of an unchanged design returns every artifact from the store
   byte-identically, and an edited source re-runs only the stages whose
   inputs actually changed (hashing the real input artifact, not the
   upstream key, gives early cutoff: a source edit that synthesises to
   the same netlist stops re-running at synth).  The full key schema
   and invalidation rules live in docs/ARCHITECTURE.md. *)

open Netlist
module R = Obs.Registry

type config = {
  params : Fpga_arch.Params.t;
  seed : int;
  io_rat : int;
  search_min_width : bool; (* binary-search the minimum channel width *)
  route_width : int;       (* channel width when [search_min_width] is off *)
  timing_driven : bool;    (* VPR's path-timing-driven place & route *)
  clock_period : float option; (* target clock period (seconds) the STA
                                  checks slack against; None = unconstrained
                                  (slacks measured against achieved Dmax) *)
  verify_mapping : bool;   (* random-simulation equivalence after SIS *)
  verify_bitstream : bool; (* DAGGER round-trip check *)
  verify_fabric : bool;    (* emulate the bitstream on the fabric model *)
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
    verify_bitstream = true;
    verify_fabric = true;
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
  source_stats : Logic.stats;       (* after synthesis, library gates *)
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
  edif : string;                    (* intermediate products, for the tools *)
  blif_mapped : string;
  metrics : R.snapshot;
}

exception Flow_error of string * exn
(** Stage name and underlying failure. *)

(* Each stage is one registry timer (wall + CPU seconds) and one trace
   span of the same name.  Nothing is recorded when the stage fails. *)
let timed obs label f =
  Obs.Events.emit (Obs.Events.Stage_begin { stage = label });
  let t0 = Unix.gettimeofday () in
  let finish () =
    Obs.Events.emit
      (Obs.Events.Stage_end
         { stage = label; wall_s = Unix.gettimeofday () -. t0 })
  in
  match
    Obs.Span.with_ ~name:label (fun () ->
        try R.time obs label f with e -> raise (Flow_error (label, e)))
  with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* ---------- stage memoisation ---------- *)

(* Per-stage code-version tags.  A tag is part of every cache key for
   that stage, so bumping it invalidates exactly the stage(s) whose
   algorithm or cached-result shape changed — the cheap, explicit
   alternative to hashing the binary.  Bump on any change that alters a
   stage's output for identical inputs, or the type it stores. *)
let v_synth = "synth@1"
and v_techmap = "techmap@1"
and v_pack = "pack@1"
and v_place = "place@1"
and v_route = "route@2" (* @2: mixed-length segmented RR graph *)
and v_sta = "sta@1"
and v_bitstream = "bitstream@2" (* @2: AMD2 frames with track table *)

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

let make_ctx ~config ~obs =
  {
    config;
    obs;
    store = Option.map (fun d -> Cache.Store.open_ ~obs d) config.cache_dir;
  }

(* Wrap one stage in a store lookup.  [key] (invoked only when a store
   is configured) lists the content hashes and config fingerprints the
   stage's output depends on.  On a hit the compute function — and with
   it every timer and span inside — is skipped entirely, which is why
   warm runs show neither the stage timers nor the stage spans; on a
   miss the computed value is stored for next time.  Nothing is stored
   when [compute] raises. *)
let stage ctx name version key compute =
  match ctx.store with
  | None -> compute ()
  | Some store -> (
      let k = Cache.Store.key (name :: version :: key ()) in
      match Cache.Store.find store k with
      | Some v ->
          Obs.Events.emit (Obs.Events.Cache_lookup { stage = name; hit = true });
          v
      | None ->
          Obs.Events.emit
            (Obs.Events.Cache_lookup { stage = name; hit = false });
          let v = compute () in
          Cache.Store.store store k v;
          v)

(* Shared back half of every entry point: from a Logic network in
   library-gate form to the bitstream, recording into [ctx.obs]. *)
let run_stages ~ctx (net : Logic.t) =
  let config = ctx.config and obs = ctx.obs in
  let p = config.params in
  let source_stats = Logic.stats net in
  (* DIVINER end: EDIF out; DRUID: normalise; E2FMT: back to BLIF/logic;
     SIS: LUT mapping.  One cache stage: the intermediate EDIF forms are
     worthless without the mapping that follows them. *)
  let edif_text, mapped =
    stage ctx "techmap" v_techmap
      (fun () ->
        [
          artifact_hash net;
          string_of_int p.Fpga_arch.Params.k;
          fp_bool config.verify_mapping;
        ])
      (fun () ->
        let edif =
          timed obs "diviner-edif" (fun () -> Netlist.Edif.of_logic net)
        in
        let edif_text = Netlist.Edif.to_string edif in
        let normalized =
          timed obs "druid" (fun () -> Synth.Druid.normalize edif)
        in
        let net2 =
          timed obs "e2fmt" (fun () -> Netlist.Edif.to_logic normalized)
        in
        let mapped, _map_report =
          timed obs "sis-flowmap" (fun () ->
              Techmap.Mapper.map_network ~k:p.Fpga_arch.Params.k
                ~verify:config.verify_mapping net2)
        in
        (edif_text, mapped))
  in
  let blif_mapped = Netlist.Blif.to_string mapped in
  (* T-VPack *)
  let packing =
    stage ctx "pack" v_pack
      (fun () ->
        [
          artifact_hash mapped;
          string_of_int p.Fpga_arch.Params.n;
          string_of_int p.Fpga_arch.Params.i;
        ])
      (fun () ->
        timed obs "t-vpack" (fun () ->
            Pack.Cluster.pack ~n:p.Fpga_arch.Params.n ~i:p.Fpga_arch.Params.i
              mapped))
  in
  let sta_constraints =
    { Sta.Analysis.default_constraints with
      Sta.Analysis.period = config.clock_period }
  in
  (* VPR placement.  vpr-setup also levelises the unified timing graph:
     it depends only on the packed netlist, so one build serves the
     annealer's per-temperature refreshes and its criticalities.  The
     speed-only knobs (jobs, incremental_sta, sta_full_refresh_every)
     are deliberately absent from the key: they are bit-identical
     switches, so flipping them must keep hitting the same entry. *)
  let anneal =
    stage ctx "place" v_place
      (fun () ->
        [
          artifact_hash packing;
          string_of_int config.io_rat;
          string_of_int config.seed;
          string_of_int config.place_starts;
          fp_bool config.timing_driven;
          fp_float_opt config.clock_period;
          fp_float_opt config.place_prune_margin;
          string_of_int config.place_prune_interval;
        ])
      (fun () ->
        let problem, sta_graph =
          timed obs "vpr-setup" (fun () ->
              let problem = Place.Problem.build ~io_rat:config.io_rat packing in
              (problem, Sta.Graph.build problem))
        in
        let provider_at coords =
          (* the graph's producing-block table doubles as the provider's,
             saving an O(signals) rebuild on every annealing refresh *)
          Sta.Delays.of_placement ~producer:sta_graph.Sta.Graph.block_of
            problem ~coords
        in
        let sta_at coords =
          Sta.Analysis.run ~constraints:sta_constraints ?jobs:config.jobs ~obs
            sta_graph (provider_at coords)
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
                  Sta.Analysis.update ?jobs:config.jobs ~obs ~changed_blocks
                    prev (provider_at coords)
              | _ ->
                  R.incr obs "sta.incr.full-refresh";
                  sta_at coords
            in
            incr calls;
            state := Some a;
            Sta.Analysis.to_td a
        in
        timed obs "vpr-place" (fun () ->
            let timing =
              if config.timing_driven then
                Some
                  (Place.Anneal.default_timing
                     ?make_incremental:
                       (if config.incremental_sta then Some make_incremental
                        else None)
                     ~analyze:(fun ~coords ->
                       Sta.Analysis.to_td (sta_at coords))
                     ())
              else None
            in
            Place.Anneal.run_multistart
              ~options:{ Place.Anneal.seed = config.seed; inner_num = 1.0 }
              ?timing ?jobs:config.jobs ~starts:config.place_starts
              ?prune_margin:config.place_prune_margin
              ~prune_interval:config.place_prune_interval ~obs problem))
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
  (* VPR routing.  Speculative width-search probes stay un-instrumented
     (the probe set depends on the pool size); only the final routing
     records, keeping every metric jobs-independent. *)
  let routed =
    stage ctx "route" v_route
      (fun () ->
        [
          artifact_hash placement;
          artifact_hash p;
          fp_bool config.search_min_width;
          (if config.search_min_width then "-"
           else string_of_int config.route_width);
          fp_bool config.timing_driven;
        ])
      (fun () ->
        timed obs "vpr-route" (fun () ->
            let timing =
              if config.timing_driven then Some Place.Td_timing.default_model
              else None
            in
            if config.search_min_width then
              Route.Router.route_min_width ?timing ?jobs:config.jobs ~obs p
                placement
            else
              Route.Router.route_fixed ?timing ?jobs:config.jobs ~obs p
                placement ~width:config.route_width))
  in
  (* Unified STA: the placement-distance analysis at the final placement
     and the routed-Elmore analysis over the actual route trees, both on
     the shared timing graph.  Headline figures ride in the registry as
     gauges (sta.* entries are seconds-of-delay/slack, not durations). *)
  let routed_hash = lazy (artifact_hash routed) in
  let sta_pre, sta_post =
    stage ctx "sta" v_sta
      (fun () -> [ Lazy.force routed_hash; fp_float_opt config.clock_period ])
      (fun () ->
        timed obs "sta" (fun () ->
            let sta_graph = Sta.Graph.build routed.Route.Router.problem in
            let provider =
              Sta.Delays.of_placement
                ~producer:sta_graph.Sta.Graph.block_of
                routed.Route.Router.problem
                ~coords:
                  (Place.Placement.coords routed.Route.Router.placement)
            in
            let pre =
              Sta.Analysis.run ~constraints:sta_constraints ?jobs:config.jobs
                ~obs sta_graph provider
            in
            let post =
              Route.Router.sta ~constraints:sta_constraints ~graph:sta_graph
                ~obs routed
            in
            (pre, post)))
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
  (* PowerModel + DAGGER + the two bitstream verifications, one stage:
     all pure functions of the routed design and the options. *)
  let power, bitstream, bitstream_verified, fabric_verified =
    stage ctx "bitstream" v_bitstream
      (fun () ->
        [
          Lazy.force routed_hash;
          artifact_hash config.power_options;
          fp_bool config.verify_bitstream;
          fp_bool config.verify_fabric;
        ])
      (fun () ->
        let power =
          timed obs "powermodel" (fun () ->
              Power.Model.estimate ~options:config.power_options routed)
        in
        let bitstream =
          timed obs "dagger" (fun () -> Bitstream.Dagger.generate routed)
        in
        let bitstream_verified =
          (not config.verify_bitstream)
          || Bitstream.Dagger.verify routed bitstream.Bitstream.Dagger.bytes
             = Bitstream.Dagger.Verified
        in
        let fabric_verified =
          (not config.verify_fabric)
          || timed obs "fabric-emulation" (fun () ->
                 Bitstream.Dagger.verify_functional routed
                   bitstream.Bitstream.Dagger.bytes)
        in
        (power, bitstream, bitstream_verified, fabric_verified))
  in
  (* pool observability: the configured worker count and the measured
     CPU/wall ratio summed over the stage timers (~1.0 sequential,
     approaches the job count when the parallel stages dominate).  Both
     are volatile gauges: time-derived, so excluded from the
     deterministic metrics view. *)
  let cpu_sum, wall_sum =
    List.fold_left
      (fun (c, w) (e : R.entry) ->
        match e.R.value with
        | R.Timer { wall_s; cpu_s; _ } when not (String.contains e.R.key '.')
          ->
            (c +. cpu_s, w +. wall_s)
        | _ -> (c, w))
      (0.0, 0.0) (R.snapshot obs)
  in
  R.set ~volatile:true obs "parallel.jobs"
    (float_of_int (Util.Parallel.resolve_jobs ?jobs:config.jobs ()));
  R.set ~volatile:true obs "parallel.speedup"
    (if wall_sum > 0.0 then cpu_sum /. wall_sum else 1.0);
  {
    design = net.Logic.model;
    source_stats;
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
    bitstream;
    bitstream_verified;
    fabric_verified;
    sta_pre;
    sta_post;
    edif = edif_text;
    blif_mapped;
    metrics = R.snapshot obs;
  }

(* Run from a Logic network already in library-gate form (the entry point
   the BLIF-based tools share). *)
let run_network ?(config = default_config) ?obs (net : Logic.t) =
  let obs = match obs with Some o -> o | None -> R.create () in
  let ctx = make_ctx ~config ~obs in
  Obs.Span.with_ ~name:"flow"
    ~args:[ ("design", Obs.Emit.String net.Logic.model) ]
    (fun () -> run_stages ~ctx net)

(* Full flow from VHDL source text. *)
let run_vhdl ?(config = default_config) ?obs text =
  let obs = match obs with Some o -> o | None -> R.create () in
  let ctx = make_ctx ~config ~obs in
  Obs.Span.with_ ~name:"flow" (fun () ->
      let net =
        (* synth keys on the source bytes alone: parsing and elaboration
           have no knobs.  Early cutoff happens one stage later — an
           edited source that still elaborates to the same network gives
           techmap an unchanged input hash. *)
        stage ctx "synth" v_synth
          (fun () -> [ Digest.to_hex (Digest.string text) ])
          (fun () ->
            let file =
              timed obs "vhdl-parser" (fun () ->
                  Netlist.Vhdl_parser.file_of_string text)
            in
            let top = List.nth file (List.length file - 1) in
            timed obs "diviner-synth" (fun () ->
                Synth.Diviner.synthesize_ast ~library:file top))
      in
      Obs.Span.annotate [ ("design", Obs.Emit.String net.Logic.model) ];
      run_stages ~ctx net)

(* Entry from a BLIF netlist (skips the VHDL/EDIF front end). *)
let run_blif ?(config = default_config) ?obs text =
  let net = Netlist.Blif.of_string text in
  run_network ~config ?obs net

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

(* One-line summary used by reports and the CLI. *)
let summary r =
  Printf.sprintf
    "%-12s %4d LUTs %3d FFs %3d CLBs %dx%d W=%s crit=%.2fns P=%.2fmW bits=%d %s"
    r.design r.mapped_stats.Logic.n_gates r.mapped_stats.Logic.n_latches
    r.n_clusters r.grid.Fpga_arch.Grid.nx r.grid.Fpga_arch.Grid.ny
    (match r.route_stats.Route.Router.minimum_width with
    | Some w -> string_of_int w
    | None -> string_of_int r.route_stats.Route.Router.channel_width)
    (r.route_stats.Route.Router.critical_path_s *. 1e9)
    (r.power.Power.Model.total_w *. 1e3)
    r.bitstream.Bitstream.Dagger.bits
    (match (r.bitstream_verified, r.fabric_verified) with
    | true, true -> "[verified+emulated]"
    | true, false -> "[FABRIC MISMATCH]"
    | false, _ -> "[BITSTREAM MISMATCH]")
