(* amdrel_report: fold a run ledger into BENCH_<suite>.json, render the
   QoR trajectory, and gate on regressions.

   The ledger (lib/ledger; `amdrel_flow --ledger` is its only writer)
   is the durable record; this tool is the read side: it groups records
   per design, writes the folded trajectory as one JSON file (the
   artifact CI uploads and the repo pins), prints a table, and compares
   each design's latest record against its previous comparable one —
   same run.design_hash, run.params_fp, run.seed and run.mode, so only
   records the determinism contract says must agree are compared.  A
   tracked metric moving past the tolerance in the bad direction
   (wmin/crit/power up, wns/tns down) exits 1.  A record is a
   per-design result record plus its run stamp (lib/ledger); every
   field read here is one Ledger.read checks, but run.mode, which older
   lines lack (Ledger.line_mode). *)

open Cmdliner
module E = Obs.Emit
module J = Obs.Jsonin
module L = Ledger

(* ---------- gate ---------- *)

type verdict = {
  v_design : string;
  v_metric : string;
  v_old : float;
  v_new : float;
}

let get path get_v r = Option.bind (L.find path r) get_v
let design r = Option.value (get [ "design" ] J.get_string r) ~default:"-"

let wns = [ "metrics"; "sta.wns"; "value" ]
let tns = [ "metrics"; "sta.tns"; "value" ]

(* The gated metrics: label, path in the record, and whether lower is
   better.  Slack is <= 0, so closer to 0 is better.  [min_width] is
   null when the run did not search widths, and then never gates. *)
let tracked =
  [
    ("wmin", [ "min_width" ], true);
    ("crit_s", [ "critical_path_s" ], true);
    ("power_w", [ "power_w" ], true);
    ("wns_s", wns, false);
    ("tns_s", tns, false);
  ]

let comparable a b =
  L.line_mode a = L.line_mode b
  && List.for_all
       (fun key -> L.find [ "run"; key ] a = L.find [ "run"; key ] b)
       [ "design_hash"; "params_fp"; "seed" ]

let judge ~tolerance prev latest =
  let margin old = tolerance *. Float.max (Float.abs old) 1e-12 in
  List.filter_map
    (fun (metric, path, lower_better) ->
      match (get path J.get_float prev, get path J.get_float latest) with
      | Some o, Some n
        when if lower_better then n > o +. margin o else n < o -. margin o ->
          Some
            {
              v_design = design latest;
              v_metric = metric;
              v_old = o;
              v_new = n;
            }
      | _ -> None)
    tracked

(* ---------- folding ---------- *)

let group_by_design records =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let d = design r in
      if not (Hashtbl.mem tbl d) then begin
        order := d :: !order;
        Hashtbl.replace tbl d []
      end;
      Hashtbl.replace tbl d (r :: Hashtbl.find tbl d))
    records;
  List.rev_map
    (fun d -> (d, List.rev (Hashtbl.find tbl d)))
    !order
  |> List.rev

(* The sum of the top-level stage timers: dotted keys such as
   sta.phase.forward or place.move-eval are sub-stage profiling.  This
   is Core.Flow.stage_time's rule, read from a record's JSON. *)
let wall_total r =
  match L.find [ "metrics" ] r with
  | Some (E.Obj entries) ->
      List.fold_left
        (fun acc (key, m) ->
          match get [ "kind" ] J.get_string m with
          | Some "timer" when not (String.contains key '.') ->
              acc +. Option.value (get [ "wall_s" ] J.get_float m) ~default:0.0
          | _ -> acc)
        0.0 entries
  | _ -> 0.0

let counter key r =
  Option.value (get [ "metrics"; key; "value" ] J.get_int r) ~default:0

let trajectory_entry r =
  let copy path = Option.value (L.find path r) ~default:E.Null in
  E.Obj
    [
      ("at", copy [ "run"; "at" ]);
      ("git", copy [ "run"; "git" ]);
      ("jobs", copy [ "run"; "jobs" ]);
      ("wmin", copy [ "min_width" ]);
      ("width", copy [ "width" ]);
      ("crit_s", copy [ "critical_path_s" ]);
      ("wns_s", copy wns);
      ("tns_s", copy tns);
      ("power_w", copy [ "power_w" ]);
      ("bits", copy [ "bits" ]);
      ("luts", copy [ "luts" ]);
      ("clbs", copy [ "clbs" ]);
      ("wall_s", E.Float (wall_total r));
      ("cache_hits", E.Int (counter "cache.hit" r));
      ("cache_misses", E.Int (counter "cache.miss" r));
    ]

let bench_json ~suite ~skipped ~tolerance ~groups ~verdicts ~compared =
  E.Obj
    [
      ("suite", E.String suite);
      ("generated", E.String (L.utc_now ()));
      ( "records",
        E.Int (List.fold_left (fun a (_, rs) -> a + List.length rs) 0 groups)
      );
      ("skipped", E.Int skipped);
      ( "designs",
        E.Obj
          (List.map
             (fun (design, runs) ->
               ( design,
                 E.Obj
                   [
                     ("runs", E.Int (List.length runs));
                     ("latest", List.nth runs (List.length runs - 1));
                     ("trajectory", E.List (List.map trajectory_entry runs));
                   ] ))
             groups) );
      ( "gate",
        E.Obj
          [
            ("tolerance", E.Float tolerance);
            ("compared", E.Int compared);
            ("ok", E.Bool (verdicts = []));
            ( "regressions",
              E.List
                (List.map
                   (fun v ->
                     E.Obj
                       [
                         ("design", E.String v.v_design);
                         ("metric", E.String v.v_metric);
                         ("previous", E.Float v.v_old);
                         ("latest", E.Float v.v_new);
                       ])
                   verdicts) );
          ] );
    ]

(* ---------- rendering ---------- *)

let print_table groups =
  Printf.printf "%-14s %4s %5s %5s %9s %9s %9s %6s\n" "design" "runs" "Wmin"
    "width" "crit_ns" "power_mW" "wall_s" "jobs";
  List.iter
    (fun (design, runs) ->
      let r = List.nth runs (List.length runs - 1) in
      let int path = get path J.get_int r
      and num path = Option.value (get path J.get_float r) ~default:nan in
      Printf.printf "%-14s %4d %5s %5d %9.3f %9.3f %9.3f %6d\n" design
        (List.length runs)
        (match int [ "min_width" ] with
        | Some w -> string_of_int w
        | None -> "-")
        (Option.value (int [ "width" ]) ~default:0)
        (num [ "critical_path_s" ] *. 1e9)
        (num [ "power_w" ] *. 1e3)
        (wall_total r)
        (Option.value (int [ "run"; "jobs" ]) ~default:0))
    groups

let run ledger_dir suite out tolerance no_gate quiet =
  let records, skipped = L.read ~dir:ledger_dir ~suite in
  if records = [] then begin
    Printf.eprintf "amdrel_report: no records for suite %S under %s\n" suite
      ledger_dir;
    exit 2
  end;
  let groups = group_by_design records in
  (* latest vs the previous comparable record, per design *)
  let compared = ref 0 in
  let verdicts =
    List.concat_map
      (fun (_, runs) ->
        let n = List.length runs in
        if n < 2 then []
        else
          let latest = List.nth runs (n - 1) in
          match
            List.find_opt (comparable latest)
              (List.rev (List.filteri (fun i _ -> i < n - 1) runs))
          with
          | None -> []
          | Some prev ->
              incr compared;
              judge ~tolerance prev latest)
      groups
  in
  let out_file =
    match out with Some f -> f | None -> Printf.sprintf "BENCH_%s.json" suite
  in
  let json =
    bench_json ~suite ~skipped ~tolerance ~groups ~verdicts
      ~compared:!compared
  in
  let oc = open_out out_file in
  output_string oc (E.to_string json ^ "\n");
  close_out oc;
  if not quiet then begin
    print_table groups;
    if skipped > 0 then
      Printf.printf "(%d malformed ledger line%s skipped)\n" skipped
        (if skipped = 1 then "" else "s");
    Printf.printf "wrote %s (%d records, %d design%s)\n" out_file
      (List.length records) (List.length groups)
      (if List.length groups = 1 then "" else "s")
  end;
  List.iter
    (fun v ->
      Printf.eprintf
        "REGRESSION %s.%s: %.6g -> %.6g (tolerance %.3g)\n" v.v_design
        v.v_metric v.v_old v.v_new tolerance)
    verdicts;
  if verdicts <> [] && not no_gate then exit 1

let ledger_arg =
  Arg.(
    value & opt string "bench/ledger"
    & info [ "ledger" ] ~docv:"DIR"
        ~doc:"Ledger directory holding $(docv)/<suite>.jsonl.")

let suite_arg =
  Arg.(
    value & opt string "suite"
    & info [ "suite" ] ~docv:"NAME" ~doc:"Suite name (the ledger file stem).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Output path for the folded report (default BENCH_<suite>.json).")

let tolerance_arg =
  Arg.(
    value & opt float 0.02
    & info [ "tolerance" ] ~docv:"FRAC"
        ~doc:
          "Relative regression tolerance: the latest record fails the \
           gate when a tracked metric is worse than the previous \
           comparable record by more than $(docv) of its magnitude.")

let no_gate_arg =
  Arg.(
    value & flag
    & info [ "no-gate" ]
        ~doc:
          "Report regressions on stderr but exit 0 anyway (fold-only \
           mode).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the trajectory table.")

let cmd =
  Cmd.v
    (Cmd.info "amdrel_report"
       ~doc:
         "Fold a run ledger into BENCH_<suite>.json, print the QoR \
          trajectory, and exit non-zero when a tracked metric regressed \
          beyond the tolerance")
    Term.(
      const (fun l s o t g q ->
          Tool_common.protect (fun () -> run l s o t g q))
      $ ledger_arg $ suite_arg $ out_arg $ tolerance_arg $ no_gate_arg
      $ quiet_arg)

let () = exit (Cmd.eval cmd)
