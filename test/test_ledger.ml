(* Run ledger: append/read roundtrip, the reader's rejection of
   malformed, alien and old-schema lines, the ledger line of a real flow
   (its per-design record plus the run stamp), and the amdrel_report
   regression gate end to end (pass on identical records, fail on an
   injected regression of each tracked metric). *)

module L = Ledger
module E = Obs.Emit

let metric kind v = E.Obj [ ("kind", E.String kind); ("value", v) ]

let timer wall_s =
  E.Obj
    [
      ("kind", E.String "timer");
      ("cpu_s", E.Float wall_s);
      ("wall_s", E.Float wall_s);
      ("intervals", E.Int 1);
    ]

(* A ledger line shaped like Ledger.line's: a result record plus run. *)
let mk ?(design = "counter4") ?(wmin = E.Int 12) ?(crit_s = 4.2e-9)
    ?(power_w = 1.3e-3) ?(wns_s = -0.4e-9) ?(tns_s = -1.1e-9) ?(seed = 1)
    ?(at = "2026-01-01T00:00:00Z") () =
  E.Obj
    [
      ("design", E.String design);
      ("ok", E.Bool true);
      ("luts", E.Int 9);
      ("ffs", E.Int 4);
      ("clbs", E.Int 3);
      ("nx", E.Int 2);
      ("ny", E.Int 2);
      ("width", E.Int 14);
      ("min_width", wmin);
      ("critical_path_s", E.Float crit_s);
      ("power_w", E.Float power_w);
      ("bits", E.Int 512);
      ("verified", E.Bool true);
      ( "metrics",
        E.Obj
          [
            ("cache.miss", metric "counter" (E.Int 7));
            ("place.move-eval", timer 5.0);
            ("sta.tns", metric "gauge" (E.Float tns_s));
            ("sta.wns", metric "gauge" (E.Float wns_s));
            ("vpr-place", timer 0.12);
            ("vpr-route", timer 0.34);
          ] );
      ( "run",
        E.Obj
          [
            ("suite", E.String "t");
            ("design_hash", E.String "d41d8cd98f00b204e9800998ecf8427e");
            ("params_fp", E.String "aaaa");
            ("mix", E.String "2xL1+1xL4");
            ("seed", E.Int seed);
            ("jobs", E.Int 2);
            ("git", E.String "abc1234");
            ("at", E.String at);
          ] );
    ]

(* [edit path f json] replaces the member at [path] by [f] of it, or
   deletes it when [f] returns [None]. *)
let rec edit path f json =
  match (path, json) with
  | [ k ], E.Obj kvs ->
      E.Obj
        (List.filter_map
           (fun (k', v) ->
             if k' = k then Option.map (fun v -> (k', v)) (f v)
             else Some (k', v))
           kvs)
  | k :: rest, E.Obj kvs ->
      E.Obj
        (List.map
           (fun (k', v) -> if k' = k then (k', edit rest f v) else (k', v))
           kvs)
  | _ -> json

let set path v = edit path (fun _ -> Some v)
let drop path = edit path (fun _ -> None)

(* Compared as rendered text: a parsed [5] is [Int 5] where the emitter
   was handed [Float 5.0]. *)
let json_eq =
  Alcotest.testable (Fmt.of_to_string E.to_string) (fun a b ->
      E.to_string a = E.to_string b)

let temp_dir tag =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "amdrel_ledger_%s_%d" tag (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file = L.path ~dir:d ~suite:"t" in
  if Sys.file_exists file then Sys.remove file;
  d

let append_raw ~dir lines =
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644
    (L.path ~dir ~suite:"t") (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let test_roundtrip () =
  let dir = temp_dir "rt" in
  let records = [ mk (); mk ~wmin:E.Null () ] in
  List.iter (L.append ~dir ~suite:"t") records;
  let read, skipped = L.read ~dir ~suite:"t" in
  Alcotest.(check (list json_eq)) "read returns the appended lines" records
    read;
  Alcotest.(check int) "nothing skipped" 0 skipped;
  (* min_width null survives *)
  Alcotest.(check (option json_eq)) "min_width null" (Some E.Null)
    (L.find [ "min_width" ] (List.nth read 1))

(* One line of bench/ledger/suite.jsonl before the ledger logged the
   per-design record: no run stamp, the QoR under its old names. *)
let old_schema_line =
  "{\"suite\": \"suite\", \"design\": \"counter8\", "
  ^ "\"design_hash\": \"b0dd7df6635f6b0e46ce93b28f509f77\", "
  ^ "\"params_fp\": \"a108c273bffecd1c097899b4d0af4e85\", "
  ^ "\"mix\": \"1xL1\", \"seed\": 1, \"jobs\": 1, "
  ^ "\"git\": \"104b96e-dirty\", \"at\": \"2026-08-09T20:00:43Z\", "
  ^ "\"luts\": 23, \"clbs\": 5, \"width\": 4, \"wmin\": 3, "
  ^ "\"crit_s\": 2.59052112e-09, \"wns_s\": 0, \"tns_s\": 0, "
  ^ "\"power_w\": 9.14891108e-05, \"bits\": 1017, "
  ^ "\"stage_wall_s\": {\"vhdl-parser\": 3.79085541e-05, "
  ^ "\"diviner-synth\": 0.000573158264, \"diviner-edif\": 4.60147858e-05, "
  ^ "\"druid\": 0.000195980072, \"e2fmt\": 5.81741333e-05, "
  ^ "\"sis-flowmap\": 0.00751304626, \"t-vpack\": 0.000178098679, "
  ^ "\"vpr-setup\": 2.59876251e-05, \"vpr-place\": 0.00788092613, "
  ^ "\"vpr-route\": 0.0266609192, \"sta\": 0.000252962112, "
  ^ "\"powermodel\": 0.000591039658, \"dagger\": 0.000113964081, "
  ^ "\"fabric-emulation\": 0.00159192085}, "
  ^ "\"stage_cpu_s\": {\"vhdl-parser\": 3.6e-05, "
  ^ "\"diviner-synth\": 0.000572, \"diviner-edif\": 4.6e-05, "
  ^ "\"druid\": 0.000195, \"e2fmt\": 5.8e-05, \"sis-flowmap\": 0.003493, "
  ^ "\"t-vpack\": 0.000177, \"vpr-setup\": 2.5e-05, "
  ^ "\"vpr-place\": 0.003147, \"vpr-route\": 0.0163, \"sta\": 0.000253, "
  ^ "\"powermodel\": 0.00059, \"dagger\": 0.000114, "
  ^ "\"fabric-emulation\": 0.001536}, \"cache_hits\": 0, "
  ^ "\"cache_misses\": 0, \"cache_stores\": 0}"

let test_read_rejects () =
  let dir = temp_dir "rejects" in
  let lines =
    [
      ("empty object", "{}");
      ("non-object", "\"x\"");
      ("no run", E.to_string (drop [ "run" ] (mk ())));
      ("missing run.seed", E.to_string (drop [ "run"; "seed" ] (mk ())));
      ( "min_width wrong kind",
        E.to_string (set [ "min_width" ] (E.String "twelve") (mk ())) );
      ("ok:false", E.to_string (set [ "ok" ] (E.Bool false) (mk ())));
      ( "missing sta.wns",
        E.to_string (drop [ "metrics"; "sta.wns" ] (mk ())) );
      ("old schema", old_schema_line);
    ]
  in
  append_raw ~dir (List.map snd lines);
  let records, skipped = L.read ~dir ~suite:"t" in
  List.iter
    (fun r ->
      Alcotest.failf "accepted %s"
        (match List.find_opt (fun (_, l) -> l = E.to_string r) lines with
        | Some (label, _) -> label
        | None -> E.to_string r))
    records;
  Alcotest.(check int) "every bad line skipped" (List.length lines) skipped

let test_append_read () =
  let dir = temp_dir "rw" in
  Alcotest.(check (pair int int)) "missing file reads empty" (0, 0)
    (let rs, sk = L.read ~dir ~suite:"t" in
     (List.length rs, sk));
  L.append ~dir ~suite:"t" (mk ());
  (* alien and malformed lines are skipped, not fatal: the ledger is
     shared and append-only, so one bad writer must not poison it *)
  append_raw ~dir [ "not json at all"; "{\"suite\": 3}" ];
  L.append ~dir ~suite:"t" (mk ~design:"mult4" ());
  let records, skipped = L.read ~dir ~suite:"t" in
  Alcotest.(check int) "two good records" 2 (List.length records);
  Alcotest.(check int) "two bad lines skipped" 2 skipped;
  Alcotest.(check (list (option json_eq))) "file order preserved"
    [ Some (E.String "counter4"); Some (E.String "mult4") ]
    (List.map (L.find [ "design" ]) records)

let test_line () =
  let vhdl = Core.Bench_circuits.counter 4 in
  let r = Core.Flow.run_vhdl vhdl in
  let config = Core.Flow.default_config in
  let line = L.line ~suite:"s" ~config ~source:vhdl r in
  Alcotest.check json_eq "line less run is the result record"
    (Core.Flow.result_obj r) (drop [ "run" ] line);
  let field path = L.find path line in
  let check label expected path =
    Alcotest.(check (option json_eq)) label (Some expected) (field path)
  in
  check "design name" (E.String r.Core.Flow.design) [ "design" ];
  check "suite" (E.String "s") [ "run"; "suite" ];
  check "design hash is MD5 of the source"
    (E.String (Digest.to_hex (Digest.string vhdl)))
    [ "run"; "design_hash" ];
  check "mix"
    (E.String (Fpga_arch.Params.mix_name config.Core.Flow.params))
    [ "run"; "mix" ];
  check "seed" (E.Int config.Core.Flow.seed) [ "run"; "seed" ];
  check "min_width from the width search"
    (match r.Core.Flow.route_stats.Route.Router.minimum_width with
    | Some w -> E.Int w
    | None -> E.Null)
    [ "min_width" ];
  check "bits" (E.Int r.Core.Flow.bitstream.Bitstream.Dagger.bits) [ "bits" ];
  check "stage timers present" (E.String "timer")
    [ "metrics"; "route"; "kind" ];
  check "work counters present" (E.String "counter")
    [ "metrics"; "vpr-route.heap-pops"; "kind" ];
  (* a real line passes the reader's schema *)
  let dir = temp_dir "line" in
  L.append ~dir ~suite:"t" line;
  Alcotest.(check (pair int int)) "the reader accepts it" (1, 0)
    (let rs, sk = L.read ~dir ~suite:"t" in
     (List.length rs, sk))

(* ---------- the report gate, end to end ---------- *)

let report_exe = Filename.concat ".." (Filename.concat "bin" "amdrel_report.exe")

let run_report ~dir ~out =
  Sys.command
    (Printf.sprintf "%s --ledger %s --suite t -o %s --quiet 2>/dev/null"
       (Filename.quote report_exe) (Filename.quote dir) (Filename.quote out))

let read_bench out =
  Obs.Jsonin.parse (In_channel.with_open_text out In_channel.input_all)

let test_gate_pass_and_fail () =
  if not (Sys.file_exists report_exe) then
    Alcotest.skip ()
  else begin
    let dir = temp_dir "gate" in
    let out = Filename.concat dir "BENCH_t.json" in
    (* two identical runs: the gate passes *)
    L.append ~dir ~suite:"t" (mk ~at:"2026-01-01T00:00:00Z" ());
    L.append ~dir ~suite:"t" (mk ~at:"2026-01-02T00:00:00Z" ());
    Alcotest.(check int) "identical runs pass the gate" 0
      (run_report ~dir ~out);
    Alcotest.(check bool) "BENCH json written" true (Sys.file_exists out);
    let bench = read_bench out in
    Alcotest.(check (option json_eq)) "gate.ok recorded" (Some (E.Bool true))
      (L.find [ "gate"; "ok" ] bench);
    Alcotest.(check (option json_eq)) "latest is the full ledger line"
      (Some (mk ~at:"2026-01-02T00:00:00Z" ()))
      (L.find [ "designs"; "counter4"; "latest" ] bench);
    (* wall_s sums the undotted stage timers only *)
    (match L.find [ "designs"; "counter4"; "trajectory" ] bench with
    | Some (E.List (entry :: _)) ->
        Alcotest.(check (option (float 1e-9))) "wall_s" (Some 0.46)
          (Option.bind (L.find [ "wall_s" ] entry) Obs.Jsonin.get_float)
    | _ -> Alcotest.fail "trajectory missing from BENCH json");
    (* a worse record from another seed is not comparable: no gate *)
    L.append ~dir ~suite:"t" (mk ~seed:2 ~wmin:(E.Int 20) ());
    Alcotest.(check int) "non-comparable record never gates" 0
      (run_report ~dir ~out);
    (* one injected regression per tracked metric, each far past the 2%
       tolerance, against a fresh comparable baseline *)
    List.iter
      (fun (metric, regressed) ->
        let dir = temp_dir "gate" in
        L.append ~dir ~suite:"t" (mk ());
        L.append ~dir ~suite:"t" regressed;
        Alcotest.(check int) (metric ^ " regression fails the gate") 1
          (run_report ~dir ~out);
        Alcotest.(check (option json_eq))
          (metric ^ " named in the regressions")
          (Some (E.List [ E.String metric ]))
          (Option.map
             (function
               | E.List vs ->
                   E.List (List.filter_map (L.find [ "metric" ]) vs)
               | v -> v)
             (L.find [ "gate"; "regressions" ] (read_bench out))))
      [
        ("wmin", mk ~wmin:(E.Int 14) ());
        ("crit_s", mk ~crit_s:5.0e-9 ());
        ("power_w", mk ~power_w:2.0e-3 ());
        ("wns_s", mk ~wns_s:(-1.0e-9) ());
        ("tns_s", mk ~tns_s:(-3.0e-9) ());
      ]
  end

(* A flow mode names the output-affecting settings outside params and
   seed, and the gate compares only records of one mode: a timing-driven
   run's critical path is not a regression of a routability-driven
   run's.  A line without run.mode reads as the default mode. *)
let with_mode m =
  edit [ "run" ] (function
    | E.Obj kvs -> Some (E.Obj (kvs @ [ ("mode", E.String m) ]))
    | v -> Some v)

let test_gate_compares_one_mode () =
  let module F = Core.Flow in
  let d = F.default_config in
  List.iter
    (fun (label, config, mode) ->
      Alcotest.(check string) label mode (L.mode config))
    [
      ("default", d, "search");
      ("timing-driven", { d with F.timing_driven = true }, "search+timing");
      ( "fixed width, timing-driven, 5 ns",
        {
          d with
          F.search_min_width = false;
          route_width = 14;
          timing_driven = true;
          clock_period = Some 5e-9;
        },
        "width=14+timing+period=5ns" );
    ];
  Alcotest.(check string) "a line without mode is default-mode" "search"
    (L.line_mode (mk ()));
  if not (Sys.file_exists report_exe) then Alcotest.skip ()
  else begin
    let dir = temp_dir "modes" in
    let out = Filename.concat dir "BENCH_t.json" in
    let compared () =
      Option.bind (L.find [ "gate"; "compared" ] (read_bench out))
        Obs.Jsonin.get_int
    in
    (* routability-driven, then timing-driven with a longer path *)
    L.append ~dir ~suite:"t" (mk ());
    L.append ~dir ~suite:"t" (with_mode "search+timing" (mk ~crit_s:5.0e-9 ()));
    Alcotest.(check int) "another mode never gates" 0 (run_report ~dir ~out);
    Alcotest.(check (option int)) "nothing compared" (Some 0) (compared ());
    (* a second timing-driven record is compared with the first *)
    L.append ~dir ~suite:"t" (with_mode "search+timing" (mk ~crit_s:6.0e-9 ()));
    Alcotest.(check int) "one mode gates" 1 (run_report ~dir ~out);
    Alcotest.(check (option int)) "one comparison" (Some 1) (compared ())
  end

let suite =
  [
    Alcotest.test_case "record JSON roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "read rejects malformed records" `Quick
      test_read_rejects;
    Alcotest.test_case "append/read skips alien lines" `Quick
      test_append_read;
    Alcotest.test_case "line = result record + run stamp" `Slow test_line;
    Alcotest.test_case "report gate passes then fails on regression" `Quick
      test_gate_pass_and_fail;
    Alcotest.test_case "report gate compares one mode" `Quick
      test_gate_compares_one_mode;
  ]
