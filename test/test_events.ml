(* Progress events: the ambient producer discipline and [collect]'s
   sequence stamping, JSON rendering, and the flow-level determinism
   contract (same event-kind sequence at any jobs value; cache hits
   replace stage events on warm runs). *)

module Ev = Obs.Events
module E = Obs.Emit

let iter i =
  Ev.Route_iteration
    { iteration = i; overused = 0; rerouted = 0; heap_pops = 0; wall_s = 0.0 }

let iteration_of = function
  | Ev.Route_iteration { iteration; _ } -> Some iteration
  | _ -> None

(* ---------- ambient discipline ---------- *)

let test_ambient () =
  Alcotest.(check bool) "no ambient sink by default" false (Ev.active ());
  Ev.emit (iter 0);
  (* no sink: dropped silently *)
  let (), events =
    Ev.collect (fun () ->
        Alcotest.(check bool) "active inside collect" true (Ev.active ());
        Ev.emit (iter 1);
        Ev.without (fun () ->
            Alcotest.(check bool) "without suppresses" false (Ev.active ());
            Ev.emit (iter 2));
        Alcotest.(check bool) "restored after without" true (Ev.active ());
        Ev.emit (iter 3);
        (* a nested sink takes the emissions inside it, and the outer
           one is ambient again after it *)
        let (), inner = Ev.collect (fun () -> Ev.emit (iter 4)) in
        Alcotest.(check (list int)) "nested sink sees its own" [ 4 ]
          (List.filter_map (fun e -> iteration_of e.Ev.kind) inner);
        Ev.emit (iter 5);
        (* worker domains see no ambient sink: the installation is
           domain-local *)
        let d = Domain.spawn (fun () -> Ev.active ()) in
        Alcotest.(check bool) "fresh domain has no ambient sink" false
          (Domain.join d))
  in
  Alcotest.(check bool) "restored after collect" false (Ev.active ());
  Alcotest.(check (list int)) "only in-scope emissions land, in order"
    [ 1; 3; 5 ]
    (List.filter_map (fun e -> iteration_of e.Ev.kind) events);
  Alcotest.(check (list int)) "seq from 0 in emission order" [ 0; 1; 2 ]
    (List.map (fun e -> e.Ev.seq) events);
  (* a plain function sink receives the kinds themselves *)
  let got = ref [] in
  Ev.with_sink (fun k -> got := k :: !got) (fun () -> Ev.emit (iter 6));
  Alcotest.(check (list int)) "with_sink hands kinds to the function" [ 6 ]
    (List.filter_map iteration_of !got)

(* ---------- rendering ---------- *)

let test_json () =
  let (), events =
    Ev.collect (fun () ->
        Ev.emit (Ev.Stage_begin { stage = "vpr-place" });
        Ev.emit (Ev.Stage_end { stage = "vpr-place"; wall_s = 0.25 }))
  in
  match events with
  | [ b; e ] ->
      Alcotest.(check string) "stage-begin wire form"
        (Printf.sprintf
           "{\"event\": \"stage-begin\", \"seq\": 0, \"stage\": \
            \"vpr-place\", \"t_s\": %s}"
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
      (* the iteration and temperature durations are volatile too *)
      let kind k = { Ev.seq = 3; t_s = 1.0; kind = k } in
      Alcotest.(check (option string)) "deterministic route-iteration"
        (Some
           "{\"event\": \"route-iteration\", \"iteration\": 2, \
            \"overused\": 0, \"rerouted\": 0, \"heap_pops\": 0}")
        (det (kind (iter 2)));
      Alcotest.(check (option string)) "deterministic place-temperature"
        (Some
           "{\"event\": \"place-temperature\", \"step\": 1, \
            \"temperature\": 0.5, \"accept_rate\": 0.25}")
        (det
           (kind
              (Ev.Place_temperature
                 { step = 1; temperature = 0.5; accept_rate = 0.25; wall_s = 0.1 })));
      Alcotest.(check (option string)) "heartbeat is volatile" None
        (det { Ev.seq = 2; t_s = 1.0; kind = Ev.Heartbeat })
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
  Ev.collect (fun () -> Core.Flow.run_vhdl ~config vhdl)

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
  Alcotest.(check (list int)) "seq runs from 0 without a gap"
    (List.init (List.length events) Fun.id)
    (List.map (fun e -> e.Ev.seq) events)

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
    Alcotest.test_case "ambient sink discipline" `Quick test_ambient;
    Alcotest.test_case "JSON and deterministic views" `Quick test_json;
    Alcotest.test_case "flow streams every stage" `Slow test_flow_stream;
    Alcotest.test_case "event sequence jobs-independent" `Slow
      test_flow_determinism_across_jobs;
    Alcotest.test_case "cache hits replace stage events" `Slow
      test_flow_cache_events;
  ]
