(* Mixed-length segmented routing fabric: spec parsing/validation, the
   arch file (including the legacy format older files use), the
   per-track plan, structural properties of the segmented RR graph
   (span contiguity and stagger, Fs = 3 endpoint-only switch boxes,
   per-type Fc), isomorphism of the uniform special case with a legacy
   [segment_length] file, end-to-end determinism across Domain-pool
   sizes, and cache invalidation on segment-mix changes. *)

module P = Fpga_arch.Params
module R = Obs.Registry

let params_of_mix ?fc_in ?fc_out mix =
  P.validate
    { P.amdrel with P.segments = P.segments_of_string ?fc_in ?fc_out mix }

(* ---------- spec parsing and validation ---------- *)

let test_mix_parsing () =
  let segs = P.segments_of_string "4xL1+4xL2+2xL4" in
  Alcotest.(check (list (pair int int)))
    "counts and lengths in declaration order"
    [ (4, 1); (4, 2); (2, 4) ]
    (List.map (fun s -> (s.P.s_count, s.P.s_length)) segs);
  (* a bare term means count 1 *)
  let one = P.segments_of_string "L8" in
  Alcotest.(check (list (pair int int))) "bare term counts once" [ (1, 8) ]
    (List.map (fun s -> (s.P.s_count, s.P.s_length)) one);
  (* optional fc / metal defaults thread through *)
  let custom = P.segments_of_string ~fc_in:0.5 ~fc_out:0.25 "2xL2" in
  List.iter
    (fun s ->
      Alcotest.(check (float 0.0)) "fc_in" 0.5 s.P.s_fc_in;
      Alcotest.(check (float 0.0)) "fc_out" 0.25 s.P.s_fc_out)
    custom;
  (* mix_name round-trips the spec through a params record *)
  let p = params_of_mix "2xL1+1xL2+1xL4" in
  Alcotest.(check string) "mix_name" "2xL1+1xL2+1xL4" (P.mix_name p);
  Alcotest.(check string) "legacy fabric names its uniform mix" "1xL1"
    (P.mix_name P.amdrel)

let check_invalid msg f =
  match f () with
  | exception P.Invalid_params _ -> ()
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_params")

let test_mix_errors () =
  check_invalid "empty spec" (fun () -> P.segments_of_string "");
  check_invalid "garbage term" (fun () -> P.segments_of_string "4xZ2");
  check_invalid "missing length" (fun () -> P.segments_of_string "4x");
  check_invalid "empty term" (fun () -> P.segments_of_string "1xL1++1xL2")

let test_validate_spec () =
  let seg length count fc =
    {
      P.s_length = length;
      s_count = count;
      s_fc_in = fc;
      s_fc_out = fc;
      s_metal = P.Metal_min_double;
    }
  in
  let with_segs segments () =
    ignore (P.validate { P.amdrel with P.segments })
  in
  check_invalid "zero length" (with_segs [ seg 0 1 1.0 ]);
  check_invalid "absurd length" (with_segs [ seg 65 1 1.0 ]);
  check_invalid "zero count" (with_segs [ seg 1 0 1.0 ]);
  check_invalid "fc zero" (with_segs [ seg 1 1 0.0 ]);
  check_invalid "fc above one" (with_segs [ seg 1 1 1.5 ]);
  check_invalid "fc nan" (with_segs [ seg 1 1 Float.nan ]);
  check_invalid "fc infinite" (with_segs [ seg 1 1 Float.infinity ]);
  check_invalid "empty mix" (with_segs []);
  (* errors carry the offending segment so they are actionable *)
  (match
     P.validate { P.amdrel with P.segments = [ seg 1 1 1.0; seg 0 1 1.0 ] }
   with
   | exception P.Invalid_params m ->
       Alcotest.(check bool)
         (Printf.sprintf "error names the segment (%s)" m)
         true
         (Str_helpers.contains m "segment 1")
   | _ -> Alcotest.fail "expected Invalid_params");
  (* a healthy mixed spec passes *)
  ignore (P.validate { P.amdrel with P.segments = [ seg 1 2 0.5; seg 4 1 1.0 ] })

(* Malformed arch-file text fails as a parse or validation error that
   names the problem, never as a bare [Failure] from a number parser or
   as an accepted non-finite value.  A value the flow cannot model (an
   interconnect other than the §3 one, a gated_clock other than 0/1) is
   a parse error naming its line, never a compile of the default
   fabric. *)
let unmodelled =
  [
    "switch tristate"; "registered_outputs 0"; "fs 4"; "gated_clock yes";
    "gated_clock true";
  ]

let test_archfile_malformed () =
  List.iter
    (fun text ->
      match Fpga_arch.Archfile.of_string text with
      | exception Fpga_arch.Archfile.Parse_error m ->
          if List.mem text unmodelled && not (Str_helpers.contains m text)
          then Alcotest.failf "%S: error %S does not name the line" text m
      | exception P.Invalid_params _ when not (List.mem text unmodelled) -> ()
      | exception e ->
          Alcotest.failf "%S raised %s" text (Printexc.to_string e)
      | _ -> Alcotest.failf "%S accepted" text)
    ([
       "k four"; "fc_in 0.5x"; "segment 1 x"; "segment 1 4 nan 1.0 min_double";
       "segment 1 4 1.0 one min_double"; "switch_width nan"; "switch_width inf";
       "fc_in nan"; "fc_out -inf"; "io_rat 1.5";
     ]
    @ unmodelled)

(* The two files DUTYS wrote before the segment mix became the only
   channel spec (default, and --segments 2xL1+1xL4), verbatim: both
   still read, as the fabric they described.  What DUTYS writes now
   carries none of the legacy keys. *)
let legacy_default_arch =
  "# FPGA architecture description (generated by DUTYS)\n\
   name amdrel_018\nk 4\nn 5\ni 12\nfc_in 1\nfc_out 1\nfs 3\n\
   segment_length 1\nswitch pass\nswitch_width 10\nio_rat 2\n\
   registered_outputs 1\ngated_clock 1\n"

let legacy_mixed_arch =
  "# FPGA architecture description (generated by DUTYS)\n\
   name amdrel_018\nk 4\nn 5\ni 12\nfc_in 1\nfc_out 1\nfs 3\n\
   segment_length 1\nsegment 1 2 1 1 min_double\n\
   segment 4 1 1 1 min_double\nswitch pass\nswitch_width 10\n\
   io_rat 2\nregistered_outputs 1\ngated_clock 1\n"

let test_archfile_legacy_format () =
  Alcotest.(check bool) "legacy default file reads as Params.amdrel" true
    (Fpga_arch.Archfile.of_string legacy_default_arch = P.amdrel);
  Alcotest.(check bool) "legacy mixed file reads as its mix" true
    (Fpga_arch.Archfile.of_string legacy_mixed_arch
    = { P.amdrel with P.segments = P.segments_of_string "2xL1+1xL4" });
  let written = Fpga_arch.Archfile.to_string P.amdrel in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "no %S line written" key)
        false
        (Str_helpers.contains written key))
    [
      "segment_length"; "fc_in"; "fc_out"; "fs "; "switch ";
      "registered_outputs";
    ]

(* A legacy uniform channel of length [len], as an old file states it. *)
let legacy_params len =
  Fpga_arch.Archfile.of_string (Printf.sprintf "segment_length %d\n" len)

let test_archfile_segments_roundtrip () =
  let p =
    P.validate
      {
        P.amdrel with
        P.segments =
          [
            {
              P.s_length = 1;
              s_count = 2;
              s_fc_in = 0.5;
              s_fc_out = 0.25;
              s_metal = P.Metal_min_min;
            };
            {
              P.s_length = 4;
              s_count = 1;
              s_fc_in = 1.0;
              s_fc_out = 1.0;
              s_metal = P.Metal_double_double;
            };
          ];
      }
  in
  Alcotest.(check bool) "segment lines survive the arch file" true
    (Fpga_arch.Archfile.of_string (Fpga_arch.Archfile.to_string p) = p)

(* ---------- the track plan ---------- *)

let test_track_plan_uniform_reduction () =
  List.iter
    (fun len ->
      let legacy = legacy_params len in
      let explicit = params_of_mix (Printf.sprintf "1xL%d" len) in
      let width = 9 in
      Alcotest.(check bool)
        (Printf.sprintf "explicit [1xL%d] plan = legacy plan" len)
        true
        (P.track_plan legacy ~width = P.track_plan explicit ~width);
      Array.iteri
        (fun t (si, offset) ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "L%d track %d staggers t mod len" len t)
            (0, t mod len) (si, offset))
        (P.track_plan legacy ~width))
    [ 1; 2; 4 ]

(* ---------- track spans: QCheck structural properties ---------- *)

(* random mixes over small widths/extents; spans must tile the channel
   contiguously, interior wires must have exactly the declared length,
   and the first wire's clip pins the stagger offset *)
let mix_arb =
  QCheck.make
    ~print:(fun (segs, width, extent) ->
      Printf.sprintf "%s width=%d extent=%d"
        (String.concat "+"
           (List.map
              (fun (c, l) -> Printf.sprintf "%dxL%d" c l)
              segs))
        width extent)
    QCheck.Gen.(
      triple
        (list_size (int_range 1 3)
           (pair (int_range 1 3) (oneofl [ 1; 2; 3; 4; 8 ])))
        (int_range 1 10) (int_range 1 12))

let prop_track_spans =
  QCheck.Test.make ~count:200
    ~name:"segments: spans tile the channel, interior wires full length"
    mix_arb
    (fun (mix, width, extent) ->
      QCheck.assume (mix <> []);
      let segments =
        List.map
          (fun (c, l) ->
            {
              P.s_length = l;
              s_count = c;
              s_fc_in = 1.0;
              s_fc_out = 1.0;
              s_metal = P.Metal_min_double;
            })
          mix
      in
      let params = P.validate { P.amdrel with P.segments } in
      let segs = Array.of_list params.P.segments in
      let plan = P.track_plan params ~width in
      let ok = ref true in
      for t = 0 to width - 1 do
        let si, offset = plan.(t) in
        let len = segs.(si).P.s_length in
        let spans = Route.Rrgraph.track_spans params ~width ~extent ~track:t in
        let n = List.length spans in
        (* contiguous cover of 1..extent *)
        let next =
          List.fold_left
            (fun expect (s, tiles) ->
              if s <> expect || tiles < 1 || tiles > len then ok := false;
              s + tiles)
            1 spans
        in
        if next <> extent + 1 then ok := false;
        (* interior wires carry exactly the declared length *)
        List.iteri
          (fun i (_, tiles) ->
            if i > 0 && i < n - 1 && tiles <> len then ok := false)
          spans;
        (* the first wire's clip is the track's stagger offset *)
        (match spans with
        | (1, tiles) :: _ ->
            if tiles <> min extent (len - offset) then ok := false
        | _ -> ok := false)
      done;
      !ok)

(* ---------- RR graph structure on a placed design ---------- *)

let wire_desc (g : Route.Rrgraph.t) i =
  match g.Route.Rrgraph.nodes.(i).Route.Rrgraph.kind with
  | Route.Rrgraph.Chanx (xs, y, t) ->
      Some (`X, xs, y, t, g.Route.Rrgraph.nodes.(i).Route.Rrgraph.wire_tiles)
  | Route.Rrgraph.Chany (x, ys, t) ->
      Some (`Y, x, ys, t, g.Route.Rrgraph.nodes.(i).Route.Rrgraph.wire_tiles)
  | _ -> None

(* switch-point coordinates where a wire ends (S-space: (x, y) between
   tiles, matching the VPR switch-box lattice) *)
let endpoints = function
  | `X, xs, y, _, tiles -> [ ((xs - 1, y), ()); ((xs + tiles - 1, y), ()) ]
  | `Y, x, ys, _, tiles -> [ ((x, ys - 1), ()); ((x, ys + tiles - 1), ()) ]

let graph_for params seed ~width =
  let problem, placement = Test_route.place_random seed in
  (problem, Route.Rrgraph.build params problem.Place.Problem.grid placement ~width)

(* every explicitly uniform spec builds the same graph as a legacy
   [segment_length] file: same node ids, same edges *)
let test_uniform_isomorphism () =
  List.iter
    (fun len ->
      let legacy = legacy_params len in
      let explicit = params_of_mix (Printf.sprintf "1xL%d" len) in
      let _, g1 = graph_for legacy 17 ~width:6 in
      let _, g2 = graph_for explicit 17 ~width:6 in
      Alcotest.(check bool)
        (Printf.sprintf "L%d: node arrays identical" len)
        true
        (g1.Route.Rrgraph.nodes = g2.Route.Rrgraph.nodes);
      Alcotest.(check bool)
        (Printf.sprintf "L%d: edge arrays identical" len)
        true
        (g1.Route.Rrgraph.edges = g2.Route.Rrgraph.edges))
    [ 1; 2; 4 ]

(* the switch boxes of a mixed fabric: reconstruct the expected
   wire-wire edge set independently from track_spans (same track, a
   shared endpoint), compare against the graph, and check the disjoint
   box's Fs = 3 bound per switch point *)
let test_switchbox_endpoint_edges () =
  let params = params_of_mix "2xL1+1xL2+1xL4" in
  let problem, g = graph_for params 23 ~width:8 in
  let nx = problem.Place.Problem.grid.Fpga_arch.Grid.nx in
  let ny = problem.Place.Problem.grid.Fpga_arch.Grid.ny in
  (* all wires, from the span geometry *)
  let wires = ref [] in
  for t = 0 to g.Route.Rrgraph.width - 1 do
    for y = 0 to ny do
      List.iter
        (fun (xs, tiles) -> wires := (`X, xs, y, t, tiles) :: !wires)
        (Route.Rrgraph.track_spans params ~width:g.Route.Rrgraph.width
           ~extent:nx ~track:t)
    done;
    for x = 0 to nx do
      List.iter
        (fun (ys, tiles) -> wires := (`Y, x, ys, t, tiles) :: !wires)
        (Route.Rrgraph.track_spans params ~width:g.Route.Rrgraph.width
           ~extent:ny ~track:t)
    done
  done;
  let track (_, _, _, t, _) = t in
  let expected = Hashtbl.create 256 in
  let enders = Hashtbl.create 256 in
  List.iter
    (fun w ->
      List.iter
        (fun (pt, ()) ->
          Hashtbl.replace enders (pt, track w)
            (w :: Option.value (Hashtbl.find_opt enders (pt, track w))
                    ~default:[]))
        (endpoints w))
    !wires;
  Hashtbl.iter
    (fun _ ws ->
      (* disjoint Fs = 3: at most 4 same-track wires end at one point,
         so each has at most 3 switch partners there *)
      Alcotest.(check bool) "Fs <= 3 per switch point" true
        (List.length ws <= 4);
      List.iter
        (fun a ->
          List.iter
            (fun b -> if a <> b then Hashtbl.replace expected (a, b) ())
            ws)
        ws)
    enders;
  (* actual wire-wire edges from the graph *)
  let actual = Hashtbl.create 256 in
  Array.iteri
    (fun i succs ->
      match wire_desc g i with
      | None -> ()
      | Some a ->
          Array.iter
            (fun j ->
              match wire_desc g j with
              | None -> ()
              | Some b -> Hashtbl.replace actual (a, b) ())
            succs)
    g.Route.Rrgraph.edges;
  let sorted h = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) h []) in
  Alcotest.(check bool) "graph has wire-wire edges" true
    (Hashtbl.length actual > 0);
  Alcotest.(check bool)
    "wire-wire edges = same-track shared-endpoint pairs" true
    (sorted actual = sorted expected);
  (* the mixed fabric really carries long wires: the L4 track with
     stagger offset 0 starts a wire at tile 1 spanning min(extent, 4)
     tiles, so even a small grid must show multi-tile wires *)
  Alcotest.(check bool) "long wires present" true
    (List.exists
       (fun (_, _, _, _, tiles) -> tiles = min 4 (max nx ny))
       !wires)

(* per-type Fc: each pin reaches exactly fc_tracks(fc, n) distinct
   tracks of every segment type *)
let test_fc_per_type () =
  let segments =
    [
      {
        P.s_length = 1;
        s_count = 2;
        s_fc_in = 0.5;
        s_fc_out = 0.5;
        s_metal = P.Metal_min_double;
      };
      {
        P.s_length = 2;
        s_count = 2;
        s_fc_in = 1.0;
        s_fc_out = 1.0;
        s_metal = P.Metal_min_double;
      };
    ]
  in
  let params = P.validate { P.amdrel with P.segments } in
  let width = 8 in
  let _, g = graph_for params 31 ~width in
  let plan = P.track_plan params ~width in
  let n_of_type = [| 0; 0 |] in
  Array.iter (fun (si, _) -> n_of_type.(si) <- n_of_type.(si) + 1) plan;
  let fc_tracks fc n =
    if n = 0 then 0
    else max 1 (min n (int_of_float (Float.round (fc *. float_of_int n))))
  in
  let distinct_tracks_by_type ids =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun i ->
        match wire_desc g i with
        | Some (_, _, _, t, _) -> Hashtbl.replace tbl (fst plan.(t), t) ()
        | None -> ())
      ids;
    let counts = [| 0; 0 |] in
    Hashtbl.iter (fun (si, _) () -> counts.(si) <- counts.(si) + 1) tbl;
    counts
  in
  (* opins: successors; ipins: predecessors (via a reverse sweep) *)
  let preds = Hashtbl.create 256 in
  Array.iteri
    (fun i succs ->
      Array.iter
        (fun j ->
          Hashtbl.replace preds j
            (i :: Option.value (Hashtbl.find_opt preds j) ~default:[]))
        succs)
    g.Route.Rrgraph.edges;
  let checked = ref 0 in
  Array.iteri
    (fun i node ->
      match node.Route.Rrgraph.kind with
      | Route.Rrgraph.Opin _ ->
          let counts =
            distinct_tracks_by_type
              (Array.to_list g.Route.Rrgraph.edges.(i))
          in
          List.iteri
            (fun si (s : P.segment) ->
              incr checked;
              Alcotest.(check int)
                (Printf.sprintf "opin %d fc_out tracks of type %d" i si)
                (fc_tracks s.P.s_fc_out n_of_type.(si))
                counts.(si))
            segments
      | Route.Rrgraph.Ipin _ ->
          let counts =
            distinct_tracks_by_type
              (Option.value (Hashtbl.find_opt preds i) ~default:[])
          in
          List.iteri
            (fun si (s : P.segment) ->
              incr checked;
              Alcotest.(check int)
                (Printf.sprintf "ipin %d fc_in tracks of type %d" i si)
                (fc_tracks s.P.s_fc_in n_of_type.(si))
                counts.(si))
            segments
      | _ -> ())
    g.Route.Rrgraph.nodes;
  Alcotest.(check bool) "pins were checked" true (!checked > 0)

(* ---------- end-to-end: determinism across pool sizes ---------- *)

let test_e2e_jobs_deterministic () =
  let params = params_of_mix "1xL1+1xL2+1xL4" in
  List.iter
    (fun (name, vhdl) ->
      let run jobs =
        Core.Flow.run_vhdl
          ~config:
            {
              Core.Flow.default_config with
              Core.Flow.params;
              Core.Flow.timing_driven = true;
              Core.Flow.jobs = Some jobs;
            }
          vhdl
      in
      let a = run 1 and b = run 4 in
      Alcotest.(check string) (name ^ ": bitstream bytes identical")
        a.Core.Flow.bitstream.Bitstream.Dagger.bytes
        b.Core.Flow.bitstream.Bitstream.Dagger.bytes;
      Alcotest.(check (option int)) (name ^ ": Wmin identical")
        a.Core.Flow.route_stats.Route.Router.minimum_width
        b.Core.Flow.route_stats.Route.Router.minimum_width;
      Alcotest.(check string) (name ^ ": timing report identical")
        (Core.Flow.timing_report_json ~design:name a)
        (Core.Flow.timing_report_json ~design:name b);
      Alcotest.(check int) (name ^ ": long-wire usage identical")
        a.Core.Flow.route_stats.Route.Router.long_wire_nodes
        b.Core.Flow.route_stats.Route.Router.long_wire_nodes;
      (* the mixed fabric was actually exercised: some routed wire has
         declared length > 1 *)
      Alcotest.(check bool) (name ^ ": long wires routed") true
        (a.Core.Flow.route_stats.Route.Router.long_wire_nodes > 0))
    [
      ("counter8", Core.Bench_circuits.counter 8);
      ("mult4", Core.Bench_circuits.multiplier 4);
    ]

(* ---------- cache: segment-mix invalidation granularity ---------- *)

let test_cache_segment_mix_granularity () =
  let dir = Filename.temp_dir "amdrel-seg-cache-test" "" in
  let vhdl = Core.Bench_circuits.counter 8 in
  let config mix =
    { Core.Flow.default_config with Core.Flow.params = params_of_mix mix }
  in
  let run config vhdl =
    let obs = R.create () in
    let r =
      Core.Flow.run_vhdl
        ~config:{ config with Core.Flow.cache_dir = Some dir }
        ~obs vhdl
    in
    (r, obs)
  in
  let cold, obs_c = run (config "1xL1+1xL4") vhdl in
  Alcotest.(check int) "cold: every stage stored" 7
    (R.counter (R.snapshot obs_c) "cache.store");
  let warm, obs_w = run (config "1xL1+1xL4") vhdl in
  Alcotest.(check int) "warm: all seven stages hit" 7
    (R.counter (R.snapshot obs_w) "cache.hit");
  Alcotest.(check int) "warm: no misses" 0
    (R.counter (R.snapshot obs_w) "cache.miss");
  Alcotest.(check string) "warm bitstream byte-identical"
    cold.Core.Flow.bitstream.Bitstream.Dagger.bytes
    warm.Core.Flow.bitstream.Bitstream.Dagger.bytes;
  (* comment-only VHDL edit on the segmented fabric: early cutoff keeps
     everything below synth *)
  let _, obs_e = run (config "1xL1+1xL4") (vhdl ^ "\n-- a trailing comment\n") in
  Alcotest.(check int) "comment edit: only synth misses" 1
    (R.counter (R.snapshot obs_e) "cache.miss");
  Alcotest.(check int) "comment edit: downstream hits" 6
    (R.counter (R.snapshot obs_e) "cache.hit");
  (* changing the wire mix invalidates route and below, but the front
     end through placement (which ignores routing params) still hits *)
  let _, obs_m = run (config "1xL1+1xL2") vhdl in
  Alcotest.(check int) "mix change: hits through place" 4
    (R.counter (R.snapshot obs_m) "cache.hit");
  Alcotest.(check int) "mix change: route and below miss" 3
    (R.counter (R.snapshot obs_m) "cache.miss")

(* ---------- the segment-mix architecture sweep ---------- *)

(* One point per mix, in mix order, equal at any pool size. *)
let test_segment_mix_sweep () =
  let mixes = [ "1xL1"; "1xL4" ] in
  let circuits =
    [
      ("counter8", Core.Bench_circuits.counter 8);
      ("parity16", Core.Bench_circuits.parity 16);
    ]
  in
  let sweep jobs = Core.Explore.segment_mix_sweep ~mixes ~circuits ~jobs () in
  let one = sweep 1 and two = sweep 2 in
  Alcotest.(check (list string)) "one point per mix, in order" mixes
    (List.map (fun p -> p.Core.Explore.mix) one);
  Alcotest.(check bool) "points equal across jobs" true (one = two);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Core.Explore.mix ^ " Wmin >= 1")
        true
        (p.Core.Explore.point.Core.Explore.avg_min_width >= 1.0))
    one

let suite =
  [
    Alcotest.test_case "segment spec parsing" `Quick test_mix_parsing;
    Alcotest.test_case "segment spec parse errors" `Quick test_mix_errors;
    Alcotest.test_case "segment spec validation" `Quick test_validate_spec;
    Alcotest.test_case "arch file keeps segment lines" `Quick
      test_archfile_segments_roundtrip;
    Alcotest.test_case "arch file rejects malformed numbers" `Quick
      test_archfile_malformed;
    Alcotest.test_case "arch file reads the legacy format" `Quick
      test_archfile_legacy_format;
    Alcotest.test_case "track plan: uniform reduction" `Quick
      test_track_plan_uniform_reduction;
    QCheck_alcotest.to_alcotest prop_track_spans;
    Alcotest.test_case "uniform spec isomorphic to legacy graph" `Quick
      test_uniform_isomorphism;
    Alcotest.test_case "switch boxes join same-track segment endpoints"
      `Quick test_switchbox_endpoint_edges;
    Alcotest.test_case "per-type Fc honoured at every pin" `Quick
      test_fc_per_type;
    Alcotest.test_case "mixed fabric e2e deterministic across jobs" `Quick
      test_e2e_jobs_deterministic;
    Alcotest.test_case "cache granularity on segment-mix changes" `Quick
      test_cache_segment_mix_granularity;
    Alcotest.test_case "segment-mix sweep: one point per mix, jobs-equal"
      `Quick test_segment_mix_sweep;
  ]
