(* lib/obs: the shared JSON emitter, the typed metric registry (with its
   deterministic cross-domain merge) and the Chrome trace drawn from
   progress-event records. *)

(* ---------- Emit ---------- *)

let test_emit_structure () =
  let open Obs.Emit in
  Alcotest.(check string) "scalars and separators"
    {|{"a": 1, "b": [true, null, "x"], "c": 0.5}|}
    (to_string
       (Obj
          [
            ("a", Int 1);
            ("b", List [ Bool true; Null; String "x" ]);
            ("c", Float 0.5);
          ]));
  Alcotest.(check string) "empty containers" {|{"a": [], "b": {}}|}
    (to_string (Obj [ ("a", List []); ("b", Obj []) ]))

let test_emit_escaping () =
  let open Obs.Emit in
  Alcotest.(check string) "quote backslash newline" "\"a\\\"b\\\\c\\nd\""
    (to_string (String "a\"b\\c\nd"));
  Alcotest.(check string) "control characters as \\uXXXX" "\"x\\u0001y\""
    (to_string (String "x\001y"))

let test_emit_floats () =
  let open Obs.Emit in
  Alcotest.(check string) "%.9g float" "1.25" (to_string (Float 1.25));
  Alcotest.(check string) "nan renders null" "null" (to_string (Float nan));
  Alcotest.(check string) "inf renders null" "null"
    (to_string (Float infinity))

(* ---------- Registry basics ---------- *)

let test_registry_kinds () =
  let module R = Obs.Registry in
  let r = R.create () in
  R.incr r "c";
  R.incr ~by:4 r "c";
  R.set r "g" 1.0;
  R.set r "g" 2.5;
  R.add_time r "t" ~wall_s:0.5 ~cpu_s:0.25;
  R.add_time r "t" ~wall_s:0.5 ~cpu_s:0.25;
  R.observe r "h" 3.0;
  let s = R.snapshot r in
  Alcotest.(check bool) "counter sums" true (R.find s "c" = Some (R.Counter 5));
  Alcotest.(check bool) "gauge last write" true
    (R.find s "g" = Some (R.Gauge 2.5));
  (match R.find s "t" with
  | Some (R.Timer { wall_s; cpu_s; intervals }) ->
      Alcotest.(check (float 1e-12)) "timer wall" 1.0 wall_s;
      Alcotest.(check (float 1e-12)) "timer cpu" 0.5 cpu_s;
      Alcotest.(check int) "timer intervals" 2 intervals
  | _ -> Alcotest.fail "timer missing");
  (* snapshot order is the creating domain's first-record order *)
  Alcotest.(check (list string)) "snapshot order" [ "c"; "g"; "t"; "h" ]
    (List.map (fun (e : R.entry) -> e.R.key) s);
  (* the counter accessor reads 0 for absent keys and other kinds *)
  Alcotest.(check (list int)) "counter accessor" [ 5; 0; 0 ]
    (List.map (R.counter s) [ "c"; "g"; "absent" ])

let test_registry_kind_conflict () =
  let module R = Obs.Registry in
  let r = R.create () in
  R.incr r "k";
  match R.observe r "k" 1.0 with
  | () -> Alcotest.fail "expected Invalid_argument on kind conflict"
  | exception Invalid_argument _ -> ()

let test_registry_time_records () =
  let module R = Obs.Registry in
  let r = R.create () in
  let v = R.time r "work" (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 v;
  (match R.find (R.snapshot r) "work" with
  | Some (R.Timer { intervals; wall_s; _ }) ->
      Alcotest.(check int) "one interval" 1 intervals;
      Alcotest.(check bool) "wall non-negative" true (wall_s >= 0.0)
  | _ -> Alcotest.fail "timer missing");
  (* nothing recorded when f raises *)
  (try R.time r "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "no record on raise" true
    (R.find (R.snapshot r) "boom" = None)

(* ---------- Histogram properties ---------- *)

(* Samples derived from small ints (including negatives and zero) so
   exact float equality on min/max is sound. *)
let samples_arb = QCheck.(list_of_size (Gen.int_range 1 200) (int_range (-50) 1000))

let prop_hist_invariants =
  QCheck.Test.make ~count:300 ~name:"histogram count/min/max exact, percentiles ordered"
    samples_arb (fun xs ->
      QCheck.assume (xs <> []);
      let module R = Obs.Registry in
      let r = R.create () in
      List.iter (fun x -> R.observe r "h" (float_of_int x)) xs;
      match R.find (R.snapshot r) "h" with
      | Some (R.Histogram { count; min; max; p50; p90 }) ->
          let fx = List.map float_of_int xs in
          count = List.length xs
          && min = List.fold_left Float.min (List.hd fx) fx
          && max = List.fold_left Float.max (List.hd fx) fx
          && min <= p50 && p50 <= p90 && p90 <= max
      | _ -> false)

let prop_hist_order_insensitive =
  QCheck.Test.make ~count:200
    ~name:"histogram merge is order-insensitive (deterministic JSON)"
    samples_arb (fun xs ->
      let module R = Obs.Registry in
      let json order =
        let r = R.create () in
        List.iter (fun x -> R.observe r "h" (float_of_int x)) order;
        List.iter (fun x -> R.incr ~by:x r "c") order;
        Obs.Emit.to_string (R.to_json ~deterministic:true (R.snapshot r))
      in
      let a = json xs in
      a = json (List.rev xs) && a = json (List.sort compare xs))

(* Histogram edge cases around the percentile walk: a single sample and
   an all-one-bucket population must report exact percentiles (the
   bucket upper bound clamps into [min, max]), and a count-zero snapshot
   must serialise to finite numbers, never NaN. *)
let test_hist_edge_cases () =
  let module R = Obs.Registry in
  (* one sample: every percentile is that sample, exactly *)
  let r = R.create () in
  R.observe r "one" 0.3;
  (match R.find (R.snapshot r) "one" with
  | Some (R.Histogram { count; min; max; p50; p90 }) ->
      Alcotest.(check int) "count" 1 count;
      Alcotest.(check (float 0.0)) "min" 0.3 min;
      Alcotest.(check (float 0.0)) "max" 0.3 max;
      Alcotest.(check (float 0.0)) "p50 = the sample" 0.3 p50;
      Alcotest.(check (float 0.0)) "p90 = the sample" 0.3 p90
  | _ -> Alcotest.fail "histogram missing");
  (* several samples in one log2 bucket: percentiles clamp to max *)
  let r = R.create () in
  List.iter (R.observe r "bucket") [ 5.0; 6.0; 7.5 ];
  (match R.find (R.snapshot r) "bucket" with
  | Some (R.Histogram { count; min; max; p50; p90 }) ->
      Alcotest.(check int) "count" 3 count;
      Alcotest.(check (float 0.0)) "min" 5.0 min;
      Alcotest.(check (float 0.0)) "p50 clamps to max" 7.5 p50;
      Alcotest.(check (float 0.0)) "p90 clamps to max" 7.5 p90;
      Alcotest.(check (float 0.0)) "max" 7.5 max
  | _ -> Alcotest.fail "histogram missing");
  (* non-positive samples land in the <= 0 bucket, whose bound is 0 *)
  let r = R.create () in
  List.iter (R.observe r "nonpos") [ -3.0; 0.0 ];
  (match R.find (R.snapshot r) "nonpos" with
  | Some (R.Histogram { min; max; p50; p90; _ }) ->
      Alcotest.(check (float 0.0)) "min" (-3.0) min;
      Alcotest.(check (float 0.0)) "p50 finite" 0.0 p50;
      Alcotest.(check (float 0.0)) "p90 finite" 0.0 p90;
      Alcotest.(check (float 0.0)) "max" 0.0 max
  | _ -> Alcotest.fail "histogram missing");
  (* a count-zero histogram is unreachable through observe, but the
     serialiser must still render one (e.g. from a future merge of
     empty shards) without NaN *)
  let synthetic =
    [
      {
        R.key = "empty";
        value = R.Histogram { count = 0; min = 0.0; max = 0.0; p50 = 0.0; p90 = 0.0 };
        volatile = false;
      };
    ]
  in
  let json = Obs.Emit.to_string (R.to_json ~deterministic:true synthetic) in
  Alcotest.(check bool) "no NaN in empty-histogram JSON" false
    (let lower = String.lowercase_ascii json in
     let n = String.length lower in
     let rec scan i = i + 3 <= n && (String.sub lower i 3 = "nan" || scan (i + 1)) in
     scan 0)

(* ---------- Cross-domain merge determinism ---------- *)

let test_merge_across_domains () =
  let module R = Obs.Registry in
  let record r chunk =
    List.iter
      (fun v ->
        R.incr r "events";
        R.observe r "dist" (float_of_int v))
      chunk
  in
  let render r =
    Obs.Emit.to_string (R.to_json ~deterministic:true (R.snapshot r))
  in
  (* a sequential registry vs one filled from a 4-domain pool must
     render identically (deterministic view) and lose no record: 8 small
     chunks, then 4 chunks of 25 000 that hammer the shared keys from
     every domain at once *)
  List.iter
    (fun (n, size) ->
      let chunks = Array.init n (fun i -> List.init size (fun j -> (i * size) + j)) in
      let seq = R.create () in
      Array.iter (record seq) chunks;
      let par = R.create () in
      ignore (Util.Parallel.map ~jobs:4 (record par) chunks);
      Alcotest.(check string) "sequential = 4-domain merge" (render seq)
        (render par);
      let snap = R.snapshot par in
      Alcotest.(check int) "all records merged" (n * size)
        (R.counter snap "events");
      match R.find snap "dist" with
      | Some (R.Histogram h) ->
          Alcotest.(check int) "all samples merged" (n * size) h.R.count
      | _ -> Alcotest.fail "histogram missing")
    [ (8, 25); (4, 25_000) ];
  (* snapshot order: the creating domain's first-record order, then the
     keys only other domains recorded, ascending — "y", first recorded
     elsewhere, takes its place from the owner's own first record *)
  let r = R.create () in
  R.incr r "z";
  Domain.join (Domain.spawn (fun () -> List.iter (R.incr r) [ "b"; "a"; "y" ]));
  List.iter (R.incr r) [ "c"; "y" ];
  Alcotest.(check (list string)) "snapshot order across domains"
    [ "z"; "c"; "y"; "a"; "b" ]
    (List.map (fun (e : R.entry) -> e.R.key) (R.snapshot r))

(* ---------- Chrome trace drawn from event records ---------- *)

module J = Obs.Jsonin

let str k ev = Option.bind (J.member k ev) J.get_string
let num k ev = Option.bind (J.member k ev) J.get_float

let trace_events trace =
  match J.member "traceEvents" trace with
  | Some (Obs.Emit.List evs) -> evs
  | _ -> Alcotest.fail "traceEvents missing"

(* A trace's structure: its events without the timestamps and
   durations — names, phases and args.  Two runs of one flow must agree
   on it whatever their jobs and wherever they ran. *)
let trace_structure trace =
  List.map
    (function
      | Obs.Emit.Obj fs ->
          Obs.Emit.to_string
            (Obs.Emit.Obj
               (List.filter (fun (k, _) -> k <> "ts" && k <> "dur") fs))
      | ev -> Obs.Emit.to_string ev)
    (trace_events trace)

(* Walk the traceEvents array: B/E stack discipline (every E closes the
   most recent open B with the same name, no earlier than its B and the
   spans and instants inside it), every X span and instant inside an
   open B, and the stack empty at the end.  [slack] (µs) absorbs the
   rounding of an X span's start, [t_s - wall_s], at the clock's
   resolution. *)
let check_chrome_events ?(slack = 1.0) events =
  let stack = ref [] in
  List.iter
    (fun ev ->
      let field get k =
        match get k ev with Some v -> v | None -> Alcotest.failf "no %s" k
      in
      let name = field str "name" and ts = field num "ts" in
      Alcotest.(check bool) "ts non-negative" true (ts >= 0.0);
      let inside t_end =
        match !stack with
        | (_, bts, last) :: _ ->
            Alcotest.(check bool) (name ^ " starts inside its span") true
              (ts +. slack >= bts);
            last := Float.max !last t_end
        | [] -> Alcotest.failf "%s outside every span" name
      in
      match str "ph" ev with
      | Some "B" -> stack := (name, ts, ref ts) :: !stack
      | Some "E" -> (
          match !stack with
          | (bname, _, last) :: rest ->
              Alcotest.(check string) "E closes most recent B" bname name;
              Alcotest.(check bool) "E after what it holds" true
                (ts +. slack >= !last);
              stack := rest;
              (* a closed span is part of what its parent holds *)
              if rest <> [] then inside ts
          | [] -> Alcotest.fail "E without open B")
      | Some "X" -> (
          match num "dur" ev with
          | Some d ->
              Alcotest.(check bool) "dur non-negative" true (d >= 0.0);
              inside (ts +. d)
          | None -> Alcotest.fail "X without dur")
      | Some "i" -> inside ts
      | _ -> Alcotest.fail "event ph must be B, E, X or i")
    events;
  Alcotest.(check int) "all spans closed" 0 (List.length !stack)

(* The rendering itself, on records as a daemon frames them: a stage's
   begin/end pair is a B/E span, an iteration or temperature an X span
   ending at its t_s and lasting its wall_s, a cache lookup an instant;
   heartbeat and done draw nothing, and the args drop the event name,
   the stamps, the durations and the daemon's id. *)
let test_chrome_export () =
  let open Obs.Emit in
  (* one daemon frame: id, event, seq, the payload, then t_s *)
  let frame seq event ?t_s payload =
    Obj
      ((("id", Int 7) :: ("event", String event) :: ("seq", Int seq) :: payload)
      @ match t_s with Some t -> [ ("t_s", Float t) ] | None -> [])
  in
  let route = ("stage", String "route") in
  let records =
    [
      frame 0 "cache" ~t_s:0.5 [ route; ("hit", Bool false) ];
      frame 1 "stage-begin" ~t_s:1.0 [ route ];
      frame 2 "route-iteration" ~t_s:1.5
        [ ("iteration", Int 1); ("heap_pops", Int 9); ("wall_s", Float 0.25) ];
      frame 3 "heartbeat" ~t_s:1.75 [];
      frame 4 "place-temperature" ~t_s:1.875
        [ ("step", Int 0); ("accept_rate", Float 0.5); ("wall_s", Float 0.125) ];
      frame 5 "stage-end" ~t_s:2.0 [ route; ("wall_s", Float 1.0) ];
      frame 6 "done" [ ("ok", Bool true) ];
    ]
  in
  let trace =
    J.parse (to_string (Obs.Events.to_chrome ~design:"t\"x" records))
  in
  (match J.member "displayTimeUnit" trace with
  | Some (String "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit");
  let events = trace_events trace in
  check_chrome_events ~slack:0.0 events;
  Alcotest.(check (list string)) "one trace event per drawn record"
    [
      {|{"name": "flow", "cat": "amdrel", "ph": "B", "pid": 1, "tid": 1, "args": {"design": "t\"x"}}|};
      {|{"name": "cache", "cat": "amdrel", "ph": "i", "pid": 1, "tid": 1, "s": "t", "args": {"stage": "route", "hit": false}}|};
      {|{"name": "route", "cat": "amdrel", "ph": "B", "pid": 1, "tid": 1}|};
      {|{"name": "route.iteration", "cat": "amdrel", "ph": "X", "pid": 1, "tid": 1, "args": {"iteration": 1, "heap_pops": 9}}|};
      {|{"name": "place.temperature", "cat": "amdrel", "ph": "X", "pid": 1, "tid": 1, "args": {"step": 0, "accept_rate": 0.5}}|};
      {|{"name": "route", "cat": "amdrel", "ph": "E", "pid": 1, "tid": 1}|};
      {|{"name": "flow", "cat": "amdrel", "ph": "E", "pid": 1, "tid": 1}|};
    ]
    (trace_structure trace);
  (* µs timestamps: an X span starts at t_s - wall_s; the root closes
     at the last stamped record *)
  let floats = Alcotest.(list (option (float 1e-6))) in
  Alcotest.check floats "ts, µs"
    [ Some 0.0; Some 5e5; Some 1e6; Some 1.25e6; Some 1.75e6; Some 2e6; Some 2e6 ]
    (List.map (num "ts") events);
  Alcotest.check floats "X durations, µs" [ Some 2.5e5; Some 1.25e5 ]
    (List.filter_map
       (fun ev -> if str "ph" ev = Some "X" then Some (num "dur" ev) else None)
       events)

(* ---------- Flow integration ---------- *)

(* A cold, width-searched mult12 at jobs 1 and 4, each run with its
   progress events collected; the trace and metrics tests below compare
   the two. *)
let mult12_runs =
  lazy
    (List.map
       (fun jobs ->
         Obs.Events.collect (fun () ->
             Core.Flow.run_vhdl
               ~config:
                 { Core.Flow.default_config with Core.Flow.jobs = Some jobs }
               (Core.Bench_circuits.multiplier 12)))
       [ 1; 4 ])

(* The trace amdrel_flow --trace writes is drawn from the event stream,
   which the jobs-dependent paths (width probes, multi-start annealing)
   do not feed: its structure is identical at jobs 1 and 4.  It holds
   the flow root with the design name, the seven stages in flow order,
   one route.iteration span per iteration of the final routing and the
   annealer's place.temperature spans, in a valid Chrome export. *)
let test_flow_trace () =
  let trace (r, events) =
    J.parse
      (Obs.Emit.to_string
         (Obs.Events.to_chrome ~design:r.Core.Flow.design
            (List.map Obs.Events.to_json events)))
  in
  match Lazy.force mult12_runs with
  | [ ((r1, _) as run1); run4 ] ->
      let t1 = trace run1 in
      Alcotest.(check (list string))
        "trace structure identical at jobs=1 and jobs=4" (trace_structure t1)
        (trace_structure (trace run4));
      let events = trace_events t1 in
      check_chrome_events events;
      let named ph name =
        List.length
          (List.filter
             (fun ev -> str "ph" ev = Some ph && str "name" ev = Some name)
             events)
      in
      Alcotest.(check (list string)) "B spans: the flow root, then the stages"
        ("flow" :: Core.Flow.stages)
        (List.filter_map
           (fun ev -> if str "ph" ev = Some "B" then str "name" ev else None)
           events);
      Alcotest.(check (option string)) "the root names the design"
        (Some "mult12")
        (Option.bind (J.member "args" (List.hd events)) (str "design"));
      Alcotest.(check int) "one route.iteration span per final iteration"
        (Obs.Registry.counter r1.Core.Flow.metrics "vpr-route.iterations")
        (named "X" "route.iteration");
      Alcotest.(check bool) "place.temperature spans" true
        (named "X" "place.temperature" > 0)
  | _ -> Alcotest.fail "expected two runs"

(* The metric registry at jobs=1 and jobs=4 on a full mult12 flow:
   the deterministic JSON view must be byte-identical. *)
let test_flow_metrics_jobs_identical () =
  let a, b =
    match Lazy.force mult12_runs with
    | [ (a, _); (b, _) ] -> (a, b)
    | _ -> Alcotest.fail "expected two runs"
  in
  let render (r : Core.Flow.result) =
    Obs.Emit.to_string
      (Obs.Registry.to_json ~deterministic:true r.Core.Flow.metrics)
  in
  Alcotest.(check string) "metrics byte-identical at jobs=1 vs jobs=4"
    (render a) (render b);
  (* the contractual histogram keys exist with sane shapes *)
  List.iter
    (fun key ->
      match Obs.Registry.find a.Core.Flow.metrics key with
      | Some (Obs.Registry.Histogram { count; min; max; p50; p90 }) ->
          Alcotest.(check bool) (key ^ " populated") true (count > 0);
          Alcotest.(check bool) (key ^ " ordered") true
            (min <= p50 && p50 <= p90 && p90 <= max)
      | _ -> Alcotest.failf "%s histogram missing" key)
    [
      "route.net-heap-pops"; "route.iter-overuse"; "place.accept-rate";
      "sta.level-nodes";
    ]

(* The long-running-process guarantee the compile service leans on:
   two back-to-back runs in ONE process, each into a fresh registry,
   produce byte-identical deterministic metric JSON — i.e. identical to
   what two fresh processes would produce.  Nothing recorded by the
   first run (registry state, per-domain buffers, DLS caches) may leak
   into the second. *)
let test_back_to_back_runs_identical () =
  let run () =
    let obs = Obs.Registry.create () in
    let r =
      Core.Flow.run_vhdl
        ~config:{ Core.Flow.default_config with Core.Flow.jobs = Some 2 }
        ~obs
        (Core.Bench_circuits.counter 8)
    in
    Obs.Emit.to_string
      (Obs.Registry.to_json ~deterministic:true r.Core.Flow.metrics)
  in
  let first = run () in
  let second = run () in
  Alcotest.(check string) "second run byte-identical to first" first second

let suite =
  [
    ("emit structure", `Quick, test_emit_structure);
    ("emit escaping", `Quick, test_emit_escaping);
    ("emit floats", `Quick, test_emit_floats);
    ("registry kinds", `Quick, test_registry_kinds);
    ("registry kind conflict", `Quick, test_registry_kind_conflict);
    ("registry time", `Quick, test_registry_time_records);
    QCheck_alcotest.to_alcotest prop_hist_invariants;
    QCheck_alcotest.to_alcotest prop_hist_order_insensitive;
    ("histogram edge cases", `Quick, test_hist_edge_cases);
    ("merge across domains", `Quick, test_merge_across_domains);
    ("chrome export", `Quick, test_chrome_export);
    ("flow trace", `Slow, test_flow_trace);
    ("flow metrics jobs-identical (mult12)", `Slow,
     test_flow_metrics_jobs_identical);
    ("back-to-back runs identical (counter8)", `Slow,
     test_back_to_back_runs_identical);
  ]
