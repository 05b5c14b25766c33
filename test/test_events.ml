(* Progress-event sink: ring bounding, sequence stamping, the ambient
   producer discipline, JSON rendering, and the flow-level determinism
   contract (same event-kind sequence at any jobs value; cache hits
   replace stage events on warm runs). *)

module Ev = Obs.Events
module E = Obs.Emit

let iter i = Ev.Route_iteration { iteration = i; overused = 0; rerouted = 0; heap_pops = 0 }

let iteration_of = function
  | Ev.Route_iteration { iteration; _ } -> Some iteration
  | _ -> None

(* ---------- ring mechanics ---------- *)

let test_ring_bounds () =
  let s = Ev.create ~capacity:16 () in
  for i = 0 to 39 do
    Ev.emit_to s (iter i)
  done;
  Alcotest.(check int) "dropped_total" 24 (Ev.dropped_total s);
  let events = Ev.drain s in
  Alcotest.(check int) "drained (gap + survivors)" 17 (List.length events);
  (match (List.hd events).Ev.kind with
  | Ev.Dropped { count } -> Alcotest.(check int) "gap size" 24 count
  | k -> Alcotest.failf "expected Dropped first, got %s" (Ev.kind_name k));
  (* the survivors are the first 16 emissions, in order: the ring drops
     the overflowing event, not the oldest *)
  let kept = List.filter_map (fun e -> iteration_of e.Ev.kind) events in
  Alcotest.(check (list int)) "survivors in emission order"
    (List.init 16 Fun.id) kept;
  Alcotest.(check (list int)) "drain empties the ring" []
    (List.map (fun e -> e.Ev.seq) (Ev.drain s))

let test_seq_monotone () =
  let s = Ev.create () in
  let seqs = ref [] in
  let note es = seqs := !seqs @ List.map (fun e -> e.Ev.seq) es in
  Ev.emit_to s (iter 0);
  Ev.emit_to s (iter 1);
  note (Ev.drain s);
  note [ Ev.heartbeat s ];
  let n = Ev.next_seq s in
  seqs := !seqs @ [ n ];
  Ev.emit_to s (iter 2);
  note (Ev.drain s);
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check int) "count" 5 (List.length !seqs);
  Alcotest.(check bool) "strictly increasing across drains/heartbeats" true
    (strictly_increasing !seqs)

let test_spsc_hammer () =
  let s = Ev.create ~capacity:64 () in
  let n = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Ev.emit_to s (iter i)
        done)
  in
  let got = ref [] in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec pump () =
    let es = Ev.drain s in
    got := !got @ List.filter_map (fun e -> iteration_of e.Ev.kind) es;
    if
      List.length !got + Ev.dropped_total s < n
      && Unix.gettimeofday () < deadline
    then pump ()
  in
  pump ();
  Domain.join producer;
  (* final drain picks up the tail published after the last pump *)
  got :=
    !got
    @ List.filter_map (fun e -> iteration_of e.Ev.kind) (Ev.drain s);
  Alcotest.(check int) "nothing lost silently" n
    (List.length !got + Ev.dropped_total s);
  let rec ordered = function
    | a :: (b :: _ as rest) -> a < b && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "payloads arrive in emission order" true
    (ordered !got)

(* ---------- ambient discipline ---------- *)

let test_ambient () =
  Alcotest.(check bool) "no ambient sink by default" false (Ev.active ());
  Ev.emit (iter 0);
  (* no sink: dropped silently *)
  let s = Ev.create () in
  Ev.with_sink s (fun () ->
      Alcotest.(check bool) "active inside with_sink" true (Ev.active ());
      Ev.emit (iter 1);
      Ev.without (fun () ->
          Alcotest.(check bool) "without suppresses" false (Ev.active ());
          Ev.emit (iter 2));
      Alcotest.(check bool) "restored after without" true (Ev.active ());
      Ev.emit (iter 3));
  Alcotest.(check bool) "restored after with_sink" false (Ev.active ());
  let kept = List.filter_map (fun e -> iteration_of e.Ev.kind) (Ev.drain s) in
  Alcotest.(check (list int)) "only in-scope emissions land" [ 1; 3 ] kept;
  (* worker domains see no ambient sink: the parent's installation is
     domain-local *)
  Ev.with_sink s (fun () ->
      let d = Domain.spawn (fun () -> Ev.active ()) in
      Alcotest.(check bool) "fresh domain has no ambient sink" false
        (Domain.join d))

(* ---------- rendering ---------- *)

let test_json () =
  let s = Ev.create () in
  Ev.emit_to s (Ev.Stage_begin { stage = "vpr-place" });
  Ev.emit_to s (Ev.Stage_end { stage = "vpr-place"; wall_s = 0.25 });
  match Ev.drain s with
  | [ b; e ] ->
      Alcotest.(check string) "stage-begin wire form"
        (Printf.sprintf
           "{\"event\": \"stage-begin\", \"seq\": %d, \"stage\": \
            \"vpr-place\", \"t_s\": %s}"
           b.Ev.seq
           (E.to_string (E.Float b.Ev.t_s)))
        (E.to_string (Ev.to_json b));
      (* the deterministic view drops seq/t_s/wall_s but keeps the kind
         and its stable payload *)
      let det ev =
        Option.map (fun fs -> E.to_string (E.Obj fs))
          (Ev.deterministic_fields ev)
      in
      Alcotest.(check (option string)) "deterministic stage-begin"
        (Some "{\"event\": \"stage-begin\", \"stage\": \"vpr-place\"}")
        (det b);
      Alcotest.(check (option string)) "deterministic stage-end strips wall_s"
        (Some "{\"event\": \"stage-end\", \"stage\": \"vpr-place\"}")
        (det e);
      Alcotest.(check (option string)) "heartbeat is volatile" None
        (det (Ev.heartbeat s));
      Alcotest.(check bool) "dropped is volatile" true
        (Ev.volatile (Ev.Dropped { count = 3 }))
  | es -> Alcotest.failf "expected 2 events, got %d" (List.length es)

(* ---------- flow-level contract ---------- *)

let flow_events ?(cache_dir = None) ~jobs vhdl =
  let config =
    {
      Core.Flow.default_config with
      Core.Flow.jobs = Some jobs;
      cache_dir;
      verify_mapping = false;
    }
  in
  let s = Ev.create () in
  let r = Ev.with_sink s (fun () -> Core.Flow.run_vhdl ~config vhdl) in
  (r, Ev.drain s)

let test_flow_stream () =
  let r, events = flow_events ~jobs:1 (Core.Bench_circuits.counter 4) in
  Alcotest.(check bool) "flow verified" true r.Core.Flow.bitstream_verified;
  let begins =
    List.filter_map
      (fun e ->
        match e.Ev.kind with
        | Ev.Stage_begin { stage } -> Some stage
        | _ -> None)
      events
  in
  Alcotest.(check (list string)) "every stage begins, in flow order"
    Core.Flow.stages begins;
  let ends =
    List.filter_map
      (fun e ->
        match e.Ev.kind with
        | Ev.Stage_end { stage; _ } -> Some stage
        | _ -> None)
      events
  in
  Alcotest.(check (list string)) "every stage ends, in flow order"
    Core.Flow.stages ends;
  Alcotest.(check bool) "router iterations streamed" true
    (List.exists
       (fun e ->
         match e.Ev.kind with Ev.Route_iteration _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "annealer temperatures streamed" true
    (List.exists
       (fun e ->
         match e.Ev.kind with Ev.Place_temperature _ -> true | _ -> false)
       events);
  let seqs = List.map (fun e -> e.Ev.seq) events in
  Alcotest.(check (list int)) "seq strictly increasing"
    (List.init (List.length seqs) (fun i -> List.hd seqs + i))
    seqs

let test_flow_determinism_across_jobs () =
  let vhdl = Core.Bench_circuits.counter 4 in
  let det events =
    List.filter_map
      (fun e ->
        Option.map (fun fs -> E.to_string (E.Obj fs))
          (Ev.deterministic_fields e))
      events
  in
  let _, e1 = flow_events ~jobs:1 vhdl in
  let _, e4 = flow_events ~jobs:4 vhdl in
  Alcotest.(check (list string))
    "event-kind sequence identical at jobs=1 and jobs=4" (det e1) (det e4)

let test_flow_cache_events () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "amdrel_ev_cache_%d" (Unix.getpid ()))
  in
  let cache_lookups events =
    List.filter_map
      (fun e ->
        match e.Ev.kind with
        | Ev.Cache_lookup { stage; hit } -> Some (stage, hit)
        | _ -> None)
      events
  in
  let vhdl = Core.Bench_circuits.counter 4 in
  let r_cold, cold = flow_events ~cache_dir:(Some dir) ~jobs:1 vhdl in
  let r_warm, warm = flow_events ~cache_dir:(Some dir) ~jobs:1 vhdl in
  Alcotest.(check bool) "cold run misses" true
    (List.exists (fun (_, hit) -> not hit) (cache_lookups cold));
  let warm_lookups = cache_lookups warm in
  Alcotest.(check bool) "warm run saw lookups" true (warm_lookups <> []);
  List.iter
    (fun (stage, hit) ->
      Alcotest.(check bool) (Printf.sprintf "warm %s hits" stage) true hit)
    warm_lookups;
  (* a hit skips the stage body, so cached stages emit no begin/end on
     the warm run *)
  let warm_begins =
    List.filter_map
      (fun e ->
        match e.Ev.kind with
        | Ev.Stage_begin { stage } -> Some stage
        | _ -> None)
      warm
  in
  List.iter
    (fun (stage, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "warm %s stage body skipped" stage)
        false (List.mem stage warm_begins))
    warm_lookups;
  Alcotest.(check int) "warm result byte-identical (bits)"
    r_cold.Core.Flow.bitstream.Bitstream.Dagger.bits
    r_warm.Core.Flow.bitstream.Bitstream.Dagger.bits

let suite =
  [
    Alcotest.test_case "ring bounds and drop accounting" `Quick
      test_ring_bounds;
    Alcotest.test_case "sequence numbers strictly increase" `Quick
      test_seq_monotone;
    Alcotest.test_case "cross-domain producer/consumer" `Quick
      test_spsc_hammer;
    Alcotest.test_case "ambient sink discipline" `Quick test_ambient;
    Alcotest.test_case "JSON and deterministic views" `Quick test_json;
    Alcotest.test_case "flow streams every stage" `Slow test_flow_stream;
    Alcotest.test_case "event sequence jobs-independent" `Slow
      test_flow_determinism_across_jobs;
    Alcotest.test_case "cache hits replace stage events" `Slow
      test_flow_cache_events;
  ]
