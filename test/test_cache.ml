(* The content-addressed stage store and the flow's memoisation on top
   of it: key schema, corrupt-entry tolerance, warm-run byte-identity,
   invalidation granularity, and the router's probe memo. *)

module R = Obs.Registry

let fresh_dir () = Filename.temp_dir "amdrel-cache-test" ""

(* The names of a trace's events of the given phases, in order: by
   default its spans (B and X). *)
let trace_names ?(ph = [ "B"; "X" ]) tr =
  let str k ev = Option.bind (Obs.Jsonin.member k ev) Obs.Jsonin.get_string in
  match Obs.Jsonin.member "traceEvents" tr with
  | Some (Obs.Emit.List evs) ->
      List.filter_map
        (fun ev ->
          match str "ph" ev with
          | Some p when List.mem p ph -> str "name" ev
          | _ -> None)
        evs
  | _ -> Alcotest.fail "traceEvents missing"

(* One flow run against a given cache directory, with its own registry
   and the trace amdrel_flow --trace draws from its events, so
   hits/misses and skipped stages are observable per run. *)
let run_cached ?(config = Core.Flow.default_config) ~dir vhdl =
  let obs = R.create () in
  let r, events =
    Obs.Events.collect (fun () ->
        Core.Flow.run_vhdl
          ~config:{ config with Core.Flow.cache_dir = Some dir }
          ~obs vhdl)
  in
  let records = List.map Obs.Events.to_json events in
  (r, obs, Obs.Events.to_chrome ~design:r.Core.Flow.design records)

let bytes_of r = r.Core.Flow.bitstream.Bitstream.Dagger.bytes

(* ---------- the store itself ---------- *)

let test_store_roundtrip () =
  let dir = fresh_dir () in
  let obs = R.create () in
  let s = Cache.Store.open_ ~obs dir in
  let k = Cache.Store.key [ "stage"; "v1"; "abc" ] in
  Alcotest.(check (option string)) "miss before store" None (Cache.Store.find s k);
  Cache.Store.store s k "payload";
  Alcotest.(check (option string)) "hit after store" (Some "payload")
    (Cache.Store.find s k);
  Alcotest.(check int) "one miss" 1 (R.counter (R.snapshot obs) "cache.miss");
  Alcotest.(check int) "one hit" 1 (R.counter (R.snapshot obs) "cache.hit");
  Alcotest.(check int) "one store" 1 (R.counter (R.snapshot obs) "cache.store");
  Alcotest.(check bool) "bytes counted" true
    (R.counter (R.snapshot obs) "cache.bytes" > 0);
  (* a second handle on the same directory sees the entry: the cache is
     the directory, not the process *)
  let s2 = Cache.Store.open_ dir in
  Alcotest.(check (option string)) "shared on disk" (Some "payload")
    (Cache.Store.find s2 k)

let test_key_schema () =
  let k = Cache.Store.key in
  Alcotest.(check string) "stable across calls" (k [ "a"; "b" ]) (k [ "a"; "b" ]);
  Alcotest.(check bool) "content-sensitive" false (k [ "a"; "b" ] = k [ "a"; "c" ]);
  Alcotest.(check bool) "part-boundary-sensitive" false
    (k [ "ab"; "" ] = k [ "a"; "b" ]);
  Alcotest.(check bool) "order-sensitive" false (k [ "a"; "b" ] = k [ "b"; "a" ]);
  Alcotest.(check bool) "32-char hex digest" true
    (String.length (k [ "x" ]) = 32
    && String.for_all
         (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
         (k [ "x" ]))

let test_corrupt_entry_skipped () =
  let dir = fresh_dir () in
  let obs = R.create () in
  let s = Cache.Store.open_ ~obs dir in
  let k = Cache.Store.key [ "stage"; "v1"; "x" ] in
  Cache.Store.store s k [ 1; 2; 3 ];
  let p = Cache.Store.path s k in
  (* truncate the entry mid-stream (a crashed writer without the atomic
     rename would leave exactly this) *)
  let ic = open_in_bin p in
  let half = really_input_string ic (in_channel_length ic / 2) in
  close_in ic;
  let oc = open_out_bin p in
  output_string oc half;
  close_out oc;
  Alcotest.(check (option (list int))) "truncated entry reads as miss" None
    (Cache.Store.find s k);
  Alcotest.(check bool) "corruption counted" true
    (R.counter (R.snapshot obs) "cache.corrupt" >= 1);
  (* arbitrary garbage is equally non-fatal *)
  let oc = open_out_bin p in
  output_string oc "not a marshal stream";
  close_out oc;
  Alcotest.(check (option (list int))) "garbage entry reads as miss" None
    (Cache.Store.find s k);
  (* recompute-and-store over the corpse restores service *)
  Cache.Store.store s k [ 1; 2; 3 ];
  Alcotest.(check (option (list int))) "restored after re-store"
    (Some [ 1; 2; 3 ])
    (Cache.Store.find s k);
  (* an entry whose echoed key disagrees with its filename (e.g. a file
     copied between key slots) reads as a miss, never as a wrong value *)
  let ic = open_in_bin p in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let k2 = Cache.Store.key [ "stage"; "v1"; "y" ] in
  let oc = open_out_bin (Cache.Store.path s k2) in
  output_string oc raw;
  close_out oc;
  Alcotest.(check (option (list int))) "key-mismatched entry reads as miss" None
    (Cache.Store.find s k2)

(* ---------- flow memoisation ---------- *)

let test_flow_warm_hits () =
  let dir = fresh_dir () in
  let vhdl = Core.Bench_circuits.counter 8 in
  let cold, obs_c, tr_c = run_cached ~dir vhdl in
  Alcotest.(check int) "cold: no hits" 0
    (R.counter (R.snapshot obs_c) "cache.hit");
  Alcotest.(check int) "cold: every stage stored" 7
    (R.counter (R.snapshot obs_c) "cache.store");
  let warm, obs_w, tr_w = run_cached ~dir vhdl in
  Alcotest.(check int) "warm: all seven stages hit" 7
    (R.counter (R.snapshot obs_w) "cache.hit");
  Alcotest.(check int) "warm: no misses" 0
    (R.counter (R.snapshot obs_w) "cache.miss");
  Alcotest.(check int) "warm: nothing stored" 0
    (R.counter (R.snapshot obs_w) "cache.store");
  Alcotest.(check string) "bitstream byte-identical" (bytes_of cold)
    (bytes_of warm);
  Alcotest.(check string) "timing report byte-identical"
    (Core.Flow.timing_report_json cold)
    (Core.Flow.timing_report_json warm);
  (* one stage vocabulary: on the cold run the stage table names the
     undotted timers (in snapshot order) and the B/E spans inside the
     flow root *)
  Alcotest.(check (list string)) "the stage table"
    [ "synth"; "techmap"; "pack"; "place"; "route"; "sta"; "bitstream" ]
    Core.Flow.stages;
  Alcotest.(check (list string)) "cold undotted timers are the stages"
    Core.Flow.stages
    (List.filter_map
       (fun (e : R.entry) ->
         match e.R.value with
         | R.Timer _ when not (String.contains e.R.key '.') -> Some e.R.key
         | _ -> None)
       cold.Core.Flow.metrics);
  Alcotest.(check (list string)) "the flow root's stage spans are the stages"
    ("flow" :: Core.Flow.stages)
    (trace_names ~ph:[ "B" ] tr_c);
  (* a multi-tool stage times each tool as <stage>.<tool>, inside the
     stage's own time *)
  let wall key =
    match R.find cold.Core.Flow.metrics key with
    | Some (R.Timer { wall_s; _ }) -> wall_s
    | _ -> Alcotest.failf "timer %s missing" key
  in
  List.iter
    (fun (stage, tools) ->
      let sum =
        List.fold_left (fun acc t -> acc +. wall (stage ^ "." ^ t)) 0.0 tools
      in
      Alcotest.(check bool) (stage ^ " sub-timers within the stage") true
        (sum <= wall stage))
    [
      ("synth", [ "vhdl-parser"; "diviner-synth" ]);
      ("techmap", [ "diviner-edif"; "druid"; "e2fmt"; "sis-flowmap" ]);
      ("place", [ "vpr-setup"; "vpr-place" ]);
      ( "bitstream",
        [ "powermodel"; "dagger"; "dagger-verify"; "fabric-emulation" ] );
    ];
  (* skipped stages leave neither a timer in the registry nor a span in
     the trace *)
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " timed on cold run") true
        (R.find cold.Core.Flow.metrics stage <> None);
      Alcotest.(check bool) (stage ^ " not timed on warm run") false
        (R.find warm.Core.Flow.metrics stage <> None);
      Alcotest.(check bool) (stage ^ " span in cold trace") true
        (List.mem stage (trace_names tr_c));
      Alcotest.(check bool) (stage ^ " span absent from warm trace") false
        (List.mem stage (trace_names tr_w)))
    Core.Flow.stages;
  (* the deterministic figures derived from cached artifacts are
     re-emitted identically on the warm path *)
  List.iter
    (fun g ->
      let v = R.find cold.Core.Flow.metrics g in
      Alcotest.(check bool) (g ^ " re-emitted on warm run") true
        (v <> None && v = R.find warm.Core.Flow.metrics g))
    [
      "place.final-cost"; "place.moves"; "sta.dmax"; "vpr-route.iterations";
      "vpr-route.heap-pops";
    ]

let test_flow_invalidation () =
  let dir = fresh_dir () in
  let vhdl = Core.Bench_circuits.counter 8 in
  let cold, _, _ = run_cached ~dir vhdl in
  (* source-byte edit that elaborates to the same network: only synth
     re-runs (early cutoff — techmap keys on the artifact, not the key
     chain) *)
  let edited, obs_e, _ = run_cached ~dir (vhdl ^ "\n-- a trailing comment\n") in
  Alcotest.(check int) "comment edit: only synth misses" 1
    (R.counter (R.snapshot obs_e) "cache.miss");
  Alcotest.(check int) "comment edit: downstream hits" 6
    (R.counter (R.snapshot obs_e) "cache.hit");
  Alcotest.(check string) "comment edit: bitstream unchanged" (bytes_of cold)
    (bytes_of edited);
  (* stage-config perturbation: a new placement seed invalidates place
     and everything downstream, keeps the whole front end *)
  let config = { Core.Flow.default_config with Core.Flow.seed = 2 } in
  let _, obs_s, _ = run_cached ~config ~dir vhdl in
  Alcotest.(check int) "seed change: front end hits" 3
    (R.counter (R.snapshot obs_s) "cache.hit");
  Alcotest.(check int) "seed change: place and below miss" 4
    (R.counter (R.snapshot obs_s) "cache.miss");
  (* arch-param perturbation: segment length feeds routing only — the
     placement (which ignores routing params) still hits *)
  let params =
    Fpga_arch.Params.validate
      {
        Fpga_arch.Params.amdrel with
        Fpga_arch.Params.segments = Fpga_arch.Params.segments_of_string "L2";
      }
  in
  let config = { Core.Flow.default_config with Core.Flow.params } in
  let _, obs_p, _ = run_cached ~config ~dir vhdl in
  Alcotest.(check int) "segment change: hits through place" 4
    (R.counter (R.snapshot obs_p) "cache.hit");
  Alcotest.(check int) "segment change: route and below miss" 3
    (R.counter (R.snapshot obs_p) "cache.miss")

let test_flow_jobs_key_stable () =
  let dir = fresh_dir () in
  let vhdl = Core.Bench_circuits.counter 8 in
  let cfg jobs = { Core.Flow.default_config with Core.Flow.jobs = Some jobs } in
  let cold, _, _ = run_cached ~config:(cfg 1) ~dir vhdl in
  let warm, obs_w, _ = run_cached ~config:(cfg 4) ~dir vhdl in
  Alcotest.(check int) "jobs=4 hits every jobs=1 entry" 7
    (R.counter (R.snapshot obs_w) "cache.hit");
  Alcotest.(check int) "no misses across pool sizes" 0
    (R.counter (R.snapshot obs_w) "cache.miss");
  Alcotest.(check string) "bitstream identical" (bytes_of cold) (bytes_of warm)

(* ---------- the router's probe memo ---------- *)

let test_routability_table_fewer_probes () =
  let net = Synth.Diviner.synthesize (Core.Bench_circuits.counter 8) in
  let mapped, _ = Techmap.Mapper.map_network ~k:4 ~verify:false net in
  let packing = Pack.Cluster.pack ~n:5 ~i:12 mapped in
  let problem = Place.Problem.build packing in
  let placement = (Place.Anneal.run problem).Place.Anneal.placement in
  let params = Fpga_arch.Params.amdrel in
  let probes obs =
    match R.find (R.snapshot obs) "route.width-probes" with
    | Some (R.Gauge v) -> int_of_float v
    | _ -> Alcotest.fail "route.width-probes not recorded"
  in
  let table = Hashtbl.create 16 in
  let o1 = R.create () in
  let cold = Route.Router.route_min_width ~table ~obs:o1 params placement in
  let o2 = R.create () in
  let warm = Route.Router.route_min_width ~table ~obs:o2 params placement in
  Alcotest.(check (option int)) "same min width" cold.Route.Router.min_width
    warm.Route.Router.min_width;
  Alcotest.(check bool) "identical route trees" true
    (cold.Route.Router.result.Route.Pathfinder.trees
    = warm.Route.Router.result.Route.Pathfinder.trees);
  Alcotest.(check bool) "cold search probes at least once" true (probes o1 >= 1);
  Alcotest.(check bool) "warm table: strictly fewer probes" true
    (probes o2 < probes o1);
  (* the table from an identical search covers the whole decision path *)
  Alcotest.(check int) "warm table: zero probes" 0 (probes o2)

(* ---------- the headline regression: mult12 warm re-run ---------- *)

let test_mult12_warm_regression () =
  let dir = fresh_dir () in
  let vhdl = Core.Bench_circuits.multiplier 12 in
  let cold, _, tr_c = run_cached ~dir vhdl in
  let warm, obs_w, tr_w = run_cached ~dir vhdl in
  Alcotest.(check bool) "cache.hit > 0" true
    (R.counter (R.snapshot obs_w) "cache.hit" > 0);
  Alcotest.(check int) "no warm misses" 0
    (R.counter (R.snapshot obs_w) "cache.miss");
  Alcotest.(check string) "byte-identical bitstream" (bytes_of cold)
    (bytes_of warm);
  Alcotest.(check string) "byte-identical timing report"
    (Core.Flow.timing_report_json ~design:"mult12" cold)
    (Core.Flow.timing_report_json ~design:"mult12" warm);
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " span in cold trace") true
        (List.mem s (trace_names tr_c));
      Alcotest.(check bool) (s ^ " span absent from warm trace") false
        (List.mem s (trace_names tr_w)))
    Core.Flow.stages;
  (* nothing ran, so the warm trace is the flow root and one cache
     instant per stage *)
  Alcotest.(check (list string)) "warm trace spans: the flow root alone"
    [ "flow" ] (trace_names tr_w);
  Alcotest.(check (list string)) "warm trace instants: one cache per stage"
    (List.map (fun _ -> "cache") Core.Flow.stages)
    (trace_names ~ph:[ "i" ] tr_w)

let suite =
  [
    ("store roundtrip + counters", `Quick, test_store_roundtrip);
    ("key schema", `Quick, test_key_schema);
    ("corrupt entry skipped", `Quick, test_corrupt_entry_skipped);
    ("flow warm hits, byte-identical", `Quick, test_flow_warm_hits);
    ("flow invalidation granularity", `Quick, test_flow_invalidation);
    ("flow keys stable across jobs", `Quick, test_flow_jobs_key_stable);
    ( "routability table fewer probes",
      `Quick,
      test_routability_table_fewer_probes );
    ("mult12 warm regression", `Slow, test_mult12_warm_regression);
  ]
