(* lib/obs: the shared JSON emitter, the typed metric registry (with its
   deterministic cross-domain merge) and the span tracer / Chrome
   trace-event export. *)

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

(* ---------- Span tracing ---------- *)

let test_span_nesting () =
  let tr = Obs.Span.create () in
  Obs.Span.with_trace tr (fun () ->
      Alcotest.(check bool) "trace ambient" true (Obs.Span.active ());
      Obs.Span.with_ ~name:"a" (fun () ->
          Obs.Span.with_ ~name:"b" (fun () -> ());
          Obs.Span.with_ ~name:"c" (fun () -> Obs.Span.annotate [ ("k", Obs.Emit.Int 7) ])));
  Alcotest.(check bool) "no trace ambient after" false (Obs.Span.active ());
  match Obs.Span.roots tr with
  | [ a ] ->
      Alcotest.(check string) "root name" "a" a.Obs.Span.name;
      Alcotest.(check (list string)) "children in order" [ "b"; "c" ]
        (List.map (fun (s : Obs.Span.span) -> s.Obs.Span.name)
           a.Obs.Span.children);
      List.iter
        (fun (s : Obs.Span.span) ->
          Alcotest.(check bool) "duration non-negative" true
            (s.Obs.Span.t1_us >= s.Obs.Span.t0_us);
          Alcotest.(check bool) "child inside parent" true
            (s.Obs.Span.t0_us >= a.Obs.Span.t0_us
            && s.Obs.Span.t1_us <= a.Obs.Span.t1_us))
        a.Obs.Span.children;
      let c = List.nth a.Obs.Span.children 1 in
      Alcotest.(check bool) "annotation attached" true
        (List.mem_assoc "k" c.Obs.Span.args)
  | rs -> Alcotest.failf "expected one root, got %d" (List.length rs)

let test_span_noop_without_trace () =
  Alcotest.(check int) "with_ is f () without ambient trace" 9
    (Obs.Span.with_ ~name:"free" (fun () -> 9))

(* ---------- Mini JSON parser (for validating exported trace files) --- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else failwith (Printf.sprintf "expected %c at %d" c !pos)
  in
  let lit l v =
    if !pos + String.length l <= n && String.sub s !pos (String.length l) = l
    then (pos := !pos + String.length l; v)
    else failwith "bad literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match s.[!pos] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              Buffer.add_char b (Char.chr (code land 0xff))
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (incr pos; Jobj [])
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; fields ((k, v) :: acc)
            | Some '}' -> incr pos; List.rev ((k, v) :: acc)
            | _ -> failwith "bad object"
          in
          Jobj (fields [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (incr pos; Jarr [])
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elems (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> failwith "bad array"
          in
          Jarr (elems [])
        end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> lit "true" (Jbool true)
    | Some 'f' -> lit "false" (Jbool false)
    | Some 'n' -> lit "null" Jnull
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          incr pos
        done;
        Jnum (float_of_string (String.sub s start (!pos - start)))
    | None -> failwith "eof"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then failwith "trailing garbage";
  v

let obj_field o k =
  match o with
  | Jobj fs -> (try Some (List.assoc k fs) with Not_found -> None)
  | _ -> None

(* Walk the traceEvents array: strict B/E stack discipline (every E
   closes the most recent open B with the same name, at a later or
   equal timestamp) and the stack is empty at the end. *)
let check_chrome_events events =
  let stack = ref [] in
  List.iter
    (fun ev ->
      let name =
        match obj_field ev "name" with Some (Jstr s) -> s | _ -> Alcotest.fail "event missing name"
      in
      let ts =
        match obj_field ev "ts" with Some (Jnum t) -> t | _ -> Alcotest.fail "event missing ts"
      in
      Alcotest.(check bool) "ts non-negative" true (ts >= 0.0);
      match obj_field ev "ph" with
      | Some (Jstr "B") -> stack := (name, ts) :: !stack
      | Some (Jstr "E") -> (
          match !stack with
          | (bname, bts) :: rest ->
              Alcotest.(check string) "E closes most recent B" bname name;
              Alcotest.(check bool) "E after its B" true (ts >= bts);
              stack := rest
          | [] -> Alcotest.fail "E without open B")
      | _ -> Alcotest.fail "event ph must be B or E")
    events;
  Alcotest.(check int) "all spans closed" 0 (List.length !stack)

let test_chrome_export () =
  let tr = Obs.Span.create () in
  Obs.Span.with_trace tr (fun () ->
      Obs.Span.with_ ~name:"outer" ~args:[ ("design", Obs.Emit.String "t\"x") ]
        (fun () ->
          Obs.Span.with_ ~name:"inner1" (fun () -> ());
          Obs.Span.with_ ~name:"inner2" (fun () -> ())));
  let j = parse_json (Obs.Span.to_chrome_string tr) in
  (match obj_field j "displayTimeUnit" with
  | Some (Jstr "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit");
  match obj_field j "traceEvents" with
  | Some (Jarr events) ->
      Alcotest.(check int) "3 spans = 6 events" 6 (List.length events);
      check_chrome_events events
  | _ -> Alcotest.fail "traceEvents missing"

(* ---------- Flow integration ---------- *)

(* A small circuit run under a trace: the contractual span sites (flow
   stages, PathFinder iterations, annealer temperature steps, STA level
   sweeps) must all appear, properly nested in the Chrome export. *)
let test_flow_trace () =
  let tr = Obs.Span.create () in
  let r =
    Obs.Span.with_trace tr (fun () ->
        Core.Flow.run_vhdl (Core.Bench_circuits.counter 8))
  in
  Alcotest.(check bool) "flow verified under trace" true
    r.Core.Flow.bitstream_verified;
  let names = ref [] in
  let rec walk (s : Obs.Span.span) =
    names := s.Obs.Span.name :: !names;
    List.iter walk s.Obs.Span.children
  in
  List.iter walk (Obs.Span.roots tr);
  List.iter
    (fun want ->
      Alcotest.(check bool) (want ^ " span present") true
        (List.mem want !names))
    (("flow" :: Core.Flow.stages)
    @ [
        "route.iteration"; "route.batch"; "place.temperature"; "sta.forward";
        "sta.backward"; "sta.level";
      ]);
  (* and the export obeys the Chrome B/E discipline end to end *)
  match obj_field (parse_json (Obs.Span.to_chrome_string tr)) "traceEvents" with
  | Some (Jarr events) ->
      Alcotest.(check bool) "plenty of events" true (List.length events > 50);
      check_chrome_events events
  | _ -> Alcotest.fail "traceEvents missing"

(* The metric registry at jobs=1 and jobs=4 on a full mult12 flow:
   the deterministic JSON view must be byte-identical. *)
let test_flow_metrics_jobs_identical () =
  let run jobs =
    Core.Flow.run_vhdl
      ~config:{ Core.Flow.default_config with Core.Flow.jobs = Some jobs }
      (Core.Bench_circuits.multiplier 12)
  in
  let a = run 1 and b = run 4 in
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
    ("span nesting", `Quick, test_span_nesting);
    ("span no-op without trace", `Quick, test_span_noop_without_trace);
    ("chrome export", `Quick, test_chrome_export);
    ("flow trace", `Slow, test_flow_trace);
    ("flow metrics jobs-identical (mult12)", `Slow,
     test_flow_metrics_jobs_identical);
    ("back-to-back runs identical (counter8)", `Slow,
     test_back_to_back_runs_identical);
  ]
