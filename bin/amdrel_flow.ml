(* The integrated design framework CLI: VHDL in, bitstream out, with every
   intermediate product written next to the output (our substitute for the
   paper's GUI; the six GUI stages map to the six stage reports below).

   Two modes:
   - single design (default): INPUT.vhd, full stage reports on stdout;
   - batch (--batch): INPUT is a manifest listing one VHDL path per line;
     every design compiles over the Domain pool, one summary line each
     on stdout.

   Every mode writes a design's products through one function
   ([write_products]): BASE.bit, BASE.result.json (QoR figures + full
   metric registry, or an ok:false record naming the failed stage) and,
   with --timing-report, BASE.timing.json.  BASE is the input file's
   name without its extension.  Single mode adds the walkthrough's
   intermediate products (.edf, .blif, .net, .arch, .timing.txt).  A
   design that fails to compile exits 1 in every mode.

   Both modes memoise stage results in a content-addressed cache
   (_amdrel_cache/ by default; --cache-dir to move it, --no-cache to
   disable): a re-run of an unchanged design skips straight to the
   cached bitstream, an edited design re-runs only the stages whose
   inputs changed.  See docs/ARCHITECTURE.md.

   With --remote SOCKET either mode submits to a running amdreld
   compile-service daemon instead of compiling in-process: the daemon
   owns the cache and the domain pool, this process just ships sources
   and writes the returned artifacts (BASE.bit, BASE.result.json,
   BASE.timing.json) exactly where a local run would. *)

open Cmdliner

(* The output-affecting flags, as the daemon receives them; a local
   run maps the same record onto its flow config
   (Service.Protocol.flow_config), so the two modes cannot drift. *)
let make_submit seed fixed_width timing_report period_ns ~progress =
  {
    Service.Protocol.default_submit with
    Service.Protocol.seed;
    route_width = fixed_width;
    timing_report;
    period_ns;
    progress;
  }

(* ---------- per-design products (every mode) ---------- *)

let name_of source = Filename.remove_extension (Filename.basename source)

(* The one writer of a design's products: BASE.result.json always,
   BASE.bit and BASE.timing.json when the run produced them. *)
let write_products base ?bit ?timing record =
  let json path v = Tool_common.write_file path (Obs.Emit.to_string v ^ "\n") in
  Option.iter (Tool_common.write_file (base ^ ".bit")) bit;
  Option.iter (json (base ^ ".timing.json")) timing;
  json (base ^ ".result.json") record

let failure_record ~design ~source msg =
  Obs.Emit.Obj
    [
      ("design", Obs.Emit.String design);
      ("ok", Obs.Emit.Bool false);
      ("source", Obs.Emit.String source);
      ("error", Obs.Emit.String msg);
    ]

type outcome = {
  line : string; (* printed summary line *)
  ok : bool;
  hits : int;
  misses : int;
  lrec : Obs.Emit.t option; (* ledger line, appended post-join in order *)
}

(* Compile one design and write its products: a batch pool task, and
   single mode's first step (which also gets the flow result, [None] on
   failure, for its walkthrough). *)
let compile_one config timing_report ~suite ~want_ledger outdir source =
  let design = name_of source in
  let base = Filename.concat outdir design in
  match
    let text = Tool_common.read_file source in
    (text, Core.Flow.run_vhdl ~config text)
  with
  | text, r ->
      write_products base ~bit:r.Core.Flow.bitstream.Bitstream.Dagger.bytes
        ?timing:
          (if timing_report then Some (Core.Flow.timing_report_obj ~design r)
           else None)
        (Core.Flow.result_obj ~source r);
      ( {
          line = Core.Flow.summary r;
          ok = true;
          hits = Obs.Registry.counter r.Core.Flow.metrics "cache.hit";
          misses = Obs.Registry.counter r.Core.Flow.metrics "cache.miss";
          lrec =
            (if want_ledger then
               Some (Ledger.line ~suite ~config ~source:text r)
             else None);
        },
        Some r )
  | exception e ->
      let msg =
        match e with
        | Core.Flow.Flow_error (stage, e) ->
            Printf.sprintf "%s: %s" stage (Printexc.to_string e)
        | e -> Printexc.to_string e
      in
      write_products base (failure_record ~design ~source msg);
      ( {
          line = Printf.sprintf "%-12s FAILED: %s" design msg;
          ok = false;
          hits = 0;
          misses = 0;
          lrec = None;
        },
        None )

(* Ledger lines append after the compiles, in input order, so the
   file order is deterministic at any jobs value. *)
let append_ledger ledger suite outcomes =
  match ledger with
  | None -> ()
  | Some dir ->
      let recs = List.filter_map (fun o -> o.lrec) (Array.to_list outcomes) in
      List.iter (Ledger.append ~dir ~suite) recs;
      if recs <> [] then
        Printf.printf "ledger: appended %d record(s) to %s\n"
          (List.length recs) (Ledger.path ~dir ~suite)

(* ---------- local event capture (--events without --remote) ---------- *)

let write_events_file path events =
  let oc = open_out path in
  List.iter
    (fun ev -> output_string oc (Obs.Emit.to_string (Obs.Events.to_json ev) ^ "\n"))
    events;
  close_out oc;
  Printf.printf "events -> %s (%d records)\n" path (List.length events)

(* ---------- single-design mode (the paper's GUI walkthrough) ---------- *)

(* The intermediate products and the six stage reports of a compiled
   design; the bitstream, record and timing JSON are already written. *)
let walkthrough input base config timing_report (r : Core.Flow.result) =
  Tool_common.write_file (base ^ ".edf") r.Core.Flow.edif;
  Tool_common.write_file (base ^ ".blif") r.Core.Flow.blif_mapped;
  Pack.Netfile.to_file (base ^ ".net") r.Core.Flow.packing;
  Fpga_arch.Archfile.to_file (base ^ ".arch") config.Core.Flow.params;
  (* stage reports, in the GUI's six-stage order *)
  Printf.printf "=== 1. File upload ===\n  %s (%d bytes)\n" input
    (Unix.stat input).Unix.st_size;
  Format.printf "=== 2. Synthesis (DIVINER + DRUID) ===@.  %a -> %s@."
    Netlist.Logic.pp_stats r.Core.Flow.source_stats (base ^ ".edf");
  Format.printf "=== 3. Format translation (E2FMT + SIS) ===@.  %a -> %s@."
    Netlist.Logic.pp_stats r.Core.Flow.mapped_stats (base ^ ".blif");
  Printf.printf
    "=== 4. Packing (T-VPack) ===\n  %d clusters, %.1f%% utilisation -> %s\n"
    r.Core.Flow.n_clusters
    (100.0 *. r.Core.Flow.utilization)
    (base ^ ".net");
  Printf.printf
    "=== 5. Placement and routing (VPR) ===\n  %dx%d grid, bb cost %.2f, \
     channel width %d%s, critical path %.3f ns\n"
    r.Core.Flow.grid.Fpga_arch.Grid.nx r.Core.Flow.grid.Fpga_arch.Grid.ny
    r.Core.Flow.placement_cost
    r.Core.Flow.route_stats.Route.Router.channel_width
    (match r.Core.Flow.route_stats.Route.Router.minimum_width with
    | Some w -> Printf.sprintf " (minimum %d)" w
    | None -> "")
    (r.Core.Flow.route_stats.Route.Router.critical_path_s *. 1e9);
  print_endline "\nplaced-and-routed array:";
  print_string (Route.Render.to_string r.Core.Flow.routed);
  if timing_report then begin
    let pre = r.Core.Flow.sta_pre and post = r.Core.Flow.sta_post in
    let text =
      Sta.Report.to_text ~title:"pre-route timing (placement distance)" pre
        (Sta.Report.paths pre)
      ^ "\n"
      ^ Sta.Report.to_text ~title:"post-route timing (routed Elmore)" post
          (Sta.Report.paths post)
    in
    print_newline ();
    print_string text;
    Tool_common.write_file (base ^ ".timing.txt") text;
    Printf.printf "timing report -> %s, %s\n\n" (base ^ ".timing.txt")
      (base ^ ".timing.json")
  end;
  Format.printf "=== 6. Power estimation and FPGA program ===@.  %a@."
    Power.Model.pp r.Core.Flow.power;
  Printf.printf "  %s\n" (Bitstream.Dagger.summary r.Core.Flow.bitstream);
  Printf.printf "  bitstream %s, fabric emulation %s -> %s\n"
    (if r.Core.Flow.bitstream_verified then "verified" else "MISMATCH")
    (if r.Core.Flow.fabric_verified then "equivalent" else "MISMATCH")
    (base ^ ".bit");
  Printf.printf "  record -> %s\n" (base ^ ".result.json");
  match config.Core.Flow.cache_dir with
  | Some dir ->
      Printf.printf "  cache %s: %d hit, %d miss, %d stored\n" dir
        (Obs.Registry.counter r.Core.Flow.metrics "cache.hit")
        (Obs.Registry.counter r.Core.Flow.metrics "cache.miss")
        (Obs.Registry.counter r.Core.Flow.metrics "cache.store")
  | None -> ()

let run_single input outdir config timing_report trace_file events_file
    ledger suite jobs =
  let w0 = Unix.gettimeofday () in
  let t0 = Sys.time () in
  let trace = Option.map (fun _ -> Obs.Span.create ()) trace_file in
  let sink = Option.map (fun _ -> Obs.Events.create ()) events_file in
  let run () =
    compile_one config timing_report ~suite ~want_ledger:(ledger <> None)
      outdir input
  in
  let run () =
    match trace with Some tr -> Obs.Span.with_trace tr run | None -> run ()
  in
  let outcome, r =
    match sink with Some s -> Obs.Events.with_sink s run | None -> run ()
  in
  let elapsed = Sys.time () -. t0 in
  let wall = Unix.gettimeofday () -. w0 in
  (match r with
  | Some r ->
      walkthrough input (Filename.concat outdir (name_of input)) config
        timing_report r
  | None -> print_endline outcome.line);
  (match (trace, trace_file) with
  | Some tr, Some path ->
      Tool_common.write_file path (Obs.Span.to_chrome_string tr ^ "\n");
      Printf.printf "trace -> %s (chrome://tracing / Perfetto)\n" path
  | _ -> ());
  (match (sink, events_file) with
  | Some s, Some path -> write_events_file path (Obs.Events.drain s)
  | _ -> ());
  append_ledger ledger suite [| outcome |];
  Printf.printf "total: %.2f s wall, %.2f s CPU over %d domain(s)\n" wall
    elapsed
    (Util.Parallel.resolve_jobs ?jobs ());
  if not outcome.ok then exit 1

(* ---------- batch mode ---------- *)

let run_batch manifest outdir config timing_report ledger suite jobs =
  (* Manifest entries resolve against the manifest's own directory
     (Service.Manifest) — never against the CWD, which used to pick up
     same-named files from wherever the driver happened to run. *)
  let sources = Service.Manifest.read manifest in
  if sources = [] then failwith (manifest ^ ": no designs listed");
  let w0 = Unix.gettimeofday () in
  (* one design per pool task; the per-design flows' own parallel stages
     degrade to sequential inside workers (Util.Parallel nesting rule),
     so the pool is never oversubscribed.  Outputs land in input order. *)
  let outcomes =
    Util.Parallel.map ?jobs
      (fun source ->
        fst
          (compile_one config timing_report ~suite
             ~want_ledger:(ledger <> None) outdir source))
      (Array.of_list sources)
  in
  let wall = Unix.gettimeofday () -. w0 in
  Array.iter (fun o -> print_endline o.line) outcomes;
  append_ledger ledger suite outcomes;
  let failed =
    Array.fold_left (fun n o -> if o.ok then n else n + 1) 0 outcomes
  in
  let hits = Array.fold_left (fun n o -> n + o.hits) 0 outcomes in
  let misses = Array.fold_left (fun n o -> n + o.misses) 0 outcomes in
  Printf.printf
    "batch: %d design(s), %d failed, %.2f s wall over %d domain(s)%s -> %s\n"
    (Array.length outcomes) failed wall
    (Util.Parallel.resolve_jobs ?jobs ())
    (match config.Core.Flow.cache_dir with
    | Some dir ->
        Printf.sprintf ", cache %s: %d hit / %d miss" dir hits misses
    | None -> "")
    outdir;
  if failed > 0 then exit 1

(* ---------- architecture sweep mode ---------- *)

(* Segment-mix x channel-width sweep over the bench suite: the paper's
   §3.3 wire-length study run through the full CAD flow, one fabric per
   point, fanned out over the Domain pool.  Per point: minimum channel
   width, critical path, power, and energy per data cycle. *)
let run_arch_sweep outdir mixes widths jobs =
  let mixes = if mixes = [] then Core.Explore.default_mixes else mixes in
  let w0 = Unix.gettimeofday () in
  let points = Core.Explore.segment_mix_sweep ~mixes ~widths ?jobs () in
  Printf.printf "%-22s %6s %8s %9s %10s %6s\n" "mix" "Wmin" "crit/ns"
    "power/mW" "energy/pJ" "util";
  List.iter
    (fun (p : Core.Explore.arch_point) ->
      Printf.printf "%-22s %6.1f %8.2f %9.2f %10.2f %5.1f%%\n"
        p.Core.Explore.arch_label p.Core.Explore.point.Core.Explore.avg_min_width
        p.Core.Explore.point.Core.Explore.avg_crit_ns
        p.Core.Explore.point.Core.Explore.avg_power_mw
        p.Core.Explore.avg_energy_pj
        (100.0 *. p.Core.Explore.point.Core.Explore.avg_utilization))
    points;
  let json =
    Obs.Emit.List
      (List.map
         (fun (p : Core.Explore.arch_point) ->
           Obs.Emit.Obj
             [
               ("mix", Obs.Emit.String p.Core.Explore.mix);
               ( "width",
                 match p.Core.Explore.fixed_width with
                 | Some w -> Obs.Emit.Int w
                 | None -> Obs.Emit.Null );
               ( "wmin",
                 Obs.Emit.Float p.Core.Explore.point.Core.Explore.avg_min_width
               );
               ( "crit_ns",
                 Obs.Emit.Float p.Core.Explore.point.Core.Explore.avg_crit_ns );
               ( "power_mw",
                 Obs.Emit.Float p.Core.Explore.point.Core.Explore.avg_power_mw
               );
               ("energy_pj", Obs.Emit.Float p.Core.Explore.avg_energy_pj);
               ( "utilization",
                 Obs.Emit.Float
                   p.Core.Explore.point.Core.Explore.avg_utilization );
             ])
         points)
  in
  let path = Filename.concat outdir "arch_sweep.json" in
  Tool_common.write_file path (Obs.Emit.to_string json ^ "\n");
  Printf.printf "sweep: %d point(s), %.2f s wall over %d domain(s) -> %s\n"
    (List.length points)
    (Unix.gettimeofday () -. w0)
    (Util.Parallel.resolve_jobs ?jobs ())
    path

(* ---------- remote mode (submission to an amdreld daemon) ---------- *)

module J = Obs.Jsonin

(* Live status line on stderr: each progress event overwrites the
   previous one; the final response clears it.  Deliberately terse —
   the raw stream (every record, untouched) goes to --events FILE. *)
let render_event design ev =
  let get name get_v = Option.bind (J.member name ev) get_v in
  let stat =
    match get "event" J.get_string with
    | Some "stage-begin" ->
        Option.map (Printf.sprintf "%s ...") (get "stage" J.get_string)
    | Some "stage-end" ->
        Option.map (Printf.sprintf "%s done") (get "stage" J.get_string)
    | Some "cache" ->
        Option.map
          (fun s ->
            Printf.sprintf "%s %s" s
              (if get "hit" J.get_bool = Some true then "(cache hit)"
               else "(cache miss)"))
          (get "stage" J.get_string)
    | Some "route-iteration" ->
        Some
          (Printf.sprintf "route iter %d, %d overused"
             (Option.value (get "iteration" J.get_int) ~default:0)
             (Option.value (get "overused" J.get_int) ~default:0))
    | Some "place-temperature" ->
        Some
          (Printf.sprintf "place step %d, accept %.0f%%"
             (Option.value (get "step" J.get_int) ~default:0)
             (100.0
             *. Option.value (get "accept_rate" J.get_float) ~default:0.0))
    | Some "heartbeat" -> Some "..."
    | _ -> None
  in
  match stat with
  | Some s -> Printf.eprintf "\r\027[K%-12s %s%!" design s
  | None -> ()

let clear_status () = Printf.eprintf "\r\027[K%!"

(* One remote submit, retried with bounded exponential backoff on
   transient rejections.  A progress submit renders each event and
   appends the raw line to [events_oc]. *)
let remote_submit client ~retries ~events_oc submit source =
  let design = name_of source in
  let submit =
    { submit with Service.Protocol.vhdl = Tool_common.read_file source }
  in
  let on_event line =
    Option.iter
      (fun oc -> output_string oc (Obs.Emit.to_string line ^ "\n"))
      events_oc;
    render_event design line
  in
  let progress = submit.Service.Protocol.progress in
  let resp =
    Service.Client.request_retry ~retries
      ?on_event:(if progress then Some on_event else None)
      client (Service.Protocol.Submit submit)
  in
  if progress then clear_status ();
  resp

(* Write the products a local run would, through the same writer:
   BASE.bit (hex-decoded), BASE.result.json (the embedded
   Core.Flow.result_obj, or the ok:false record on failure) and
   BASE.timing.json when the server sent one. *)
let write_remote_outputs outdir source resp =
  let design = name_of source in
  let base = Filename.concat outdir design in
  match J.member "result" resp with
  | Some record when Service.Client.ok resp ->
      write_products base
        ?bit:
          (Option.map
             (fun hex -> Tool_common.or_die (Service.Protocol.hex_decode hex))
             (Option.bind (J.member "bitstream_hex" resp) J.get_string))
        ?timing:(J.member "timing" resp) record;
      let stat name =
        match J.member name record with
        | Some (Obs.Emit.Int n) -> string_of_int n
        | _ -> "?"
      in
      Printf.printf "%-12s ok (remote) %s LUTs %s CLBs W=%s bits=%s -> %s\n"
        design (stat "luts") (stat "clbs") (stat "width") (stat "bits")
        (base ^ ".bit");
      true
  | _ ->
      let msg = Service.Client.error_message resp in
      write_products base (failure_record ~design ~source msg);
      Printf.printf "%-12s FAILED (remote): %s\n" design msg;
      false

let run_remote socket input outdir submit batch ~events_file ~retries =
  let sources = if batch then Service.Manifest.read input else [ input ] in
  if sources = [] then failwith (input ^ ": no designs listed");
  let w0 = Unix.gettimeofday () in
  let events_oc = Option.map open_out events_file in
  let failed =
    Fun.protect
      ~finally:(fun () -> Option.iter close_out events_oc)
      (fun () ->
        let client = Service.Client.connect_retry ~retries socket in
        Fun.protect
          ~finally:(fun () -> Service.Client.close client)
          (fun () ->
            List.fold_left
              (fun failed source ->
                let resp =
                  remote_submit client ~retries ~events_oc submit source
                in
                if write_remote_outputs outdir source resp then failed
                else failed + 1)
              0 sources))
  in
  (match events_file with
  | Some path -> Printf.printf "events -> %s\n" path
  | None -> ());
  Printf.printf "remote: %d design(s), %d failed, %.2f s wall via %s -> %s\n"
    (List.length sources) failed
    (Unix.gettimeofday () -. w0)
    socket outdir;
  if failed > 0 then exit 1

(* ---------- entry ---------- *)

let run input outdir seed fixed_width jobs timing_report period_ns trace_file
    batch no_cache cache_dir remote arch arch_sweep sweep_mixes sweep_widths
    progress events_file retries ledger suite =
  if remote <> None && arch <> None then
    failwith
      "--arch works only for local compiles (amdreld has no --arch option \
       and compiles for its own fabric); drop --remote or --arch";
  Util.Fs.mkdir_p outdir;
  if arch_sweep then run_arch_sweep outdir sweep_mixes sweep_widths jobs
  else
    let input =
      match input with
      | Some i -> i
      | None -> failwith "INPUT is required (unless running --arch-sweep)"
    in
    (* --events alone also subscribes under --remote: an empty capture
       file from a non-streaming submit helps nobody *)
    let submit =
      Tool_common.or_die
        (Service.Protocol.validate
           (make_submit seed fixed_width timing_report period_ns
              ~progress:(progress || events_file <> None)))
    in
    match remote with
    | Some socket ->
        if ledger <> None then
          prerr_endline
            "amdrel_flow: --ledger is ignored with --remote (the record is \
             built from the local flow result; run the ledger on the \
             daemon side or compile locally)";
        if trace_file <> None then
          prerr_endline
            "amdrel_flow: --trace is ignored with --remote (the spans are \
             recorded in the daemon's process; compile locally to trace)";
        run_remote socket input outdir submit batch ~events_file ~retries
    | None ->
        if progress then
          prerr_endline
            "amdrel_flow: --progress streams from a daemon; without \
             --remote it is ignored (use --events FILE to capture the \
             event stream of a local run)";
        let params =
          match arch with
          | Some file -> Fpga_arch.Archfile.of_file file
          | None -> Core.Flow.default_config.Core.Flow.params
        in
        Option.iter Util.Fs.mkdir_p ledger;
        let cache_dir = if no_cache then None else Some cache_dir in
        let config =
          Service.Protocol.flow_config
            ~base:{ Core.Flow.default_config with params; jobs; cache_dir }
            submit
        in
        if batch then begin
          (* pool workers have no ambient trace or sink, so the files
             would depend on --jobs *)
          if trace_file <> None then
            prerr_endline
              "amdrel_flow: --trace is ignored with --batch (pool workers \
               record no spans; compile one design to trace)";
          if events_file <> None then
            prerr_endline
              "amdrel_flow: --events is ignored with --batch (pool workers \
               emit no events; compile one design to capture its stream)";
          run_batch input outdir config timing_report ledger suite jobs
        end
        else
          run_single input outdir config timing_report trace_file events_file
            ledger suite jobs

let input_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"INPUT"
        ~doc:
          "VHDL source to compile, or (with $(b,--batch)) a manifest \
           listing one VHDL path per line ($(b,#) comments and blank \
           lines ignored).  Not used with $(b,--arch-sweep).")

let outdir_arg =
  Arg.(
    value & opt string "flow_out"
    & info [ "d"; "outdir" ] ~docv:"DIR" ~doc:"output directory")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"placement seed")

let width_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "route-width" ] ~doc:"fixed channel width (skip the search)")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ]
        ~doc:
          "Domain pool size for the parallel stages (width search, \
           multi-start placement, batch compilation).  Default: the \
           AMDREL_JOBS environment variable or the machine's recommended \
           domain count.  Results are bit-identical for any value.")

let timing_report_arg =
  Arg.(
    value & flag
    & info [ "timing-report" ]
        ~doc:
          "Run the flow timing-driven and write a unified-STA path report \
           (pre-route and post-route critical paths, slack per endpoint) \
           as BASE.timing.txt and BASE.timing.json next to the other \
           products, in addition to printing it.  In batch mode, writes \
           BASE.timing.json per design.")

let period_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "period" ] ~docv:"NS"
        ~doc:
          "Target clock period in nanoseconds for the slack/WNS/TNS \
           figures (the platform's DETFFs clock on both edges, so half \
           the period budgets the combinational logic).  Implies \
           timing-driven place and route.  Without it slacks are \
           measured against the achieved critical path.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run (nested spans \
           for every flow stage, PathFinder iteration and batch, \
           annealer temperature step and STA level sweep), loadable in \
           chrome://tracing or Perfetto.  Stages answered from the cache \
           run no code, so they are absent from the trace.  Local \
           single-design runs only: ignored with $(b,--batch) or \
           $(b,--remote).")

let batch_arg =
  Arg.(
    value & flag
    & info [ "batch" ]
        ~doc:
          "Treat INPUT as a manifest of designs (one VHDL path per line) \
           and compile them all over the Domain pool, writing BASE.bit \
           and BASE.result.json (QoR summary + full metric registry, \
           schema in docs/OBSERVABILITY.md) per design into the output \
           directory, plus one summary line each on stdout.  Exits \
           non-zero if any design fails; the rest still complete.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the content-addressed stage cache: every stage \
           recomputes and nothing is read from or written to the cache \
           directory.  Outputs are byte-identical with or without the \
           cache; the flag exists for benchmarking and for pinning \
           cold-run telemetry.")

let cache_dir_arg =
  Arg.(
    value
    & opt string "_amdrel_cache"
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Directory of the content-addressed stage-result store \
           (created on demand; safe to share between concurrent runs \
           and to delete at any time).  See docs/ARCHITECTURE.md for \
           the entry layout and the cache-key schema.")

let remote_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"SOCKET"
        ~doc:
          "Submit to the amdreld compile-service daemon listening on the \
           given Unix-domain socket instead of compiling in-process.  \
           The daemon owns the stage cache and the domain pool; outputs \
           (BASE.bit, BASE.result.json, BASE.timing.json with \
           $(b,--timing-report)) are bit-identical to a local run and \
           land in the same places.  Works with $(b,--batch); the local \
           cache and jobs flags are the daemon's business and ignored, \
           and $(b,--arch) is an error (the daemon compiles for its own \
           fabric).")

let arch_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "arch" ] ~docv:"FILE"
        ~doc:
          "Architecture file describing the target fabric (K, N, I, \
           channel width and the $(b,segment) mix lines — see the format \
           header in lib/fpga_arch/archfile.ml).  Default: the built-in \
           AMDREL platform (uniform length-1 segments).  The segment \
           spec is part of every route-stage cache key, so switching \
           architectures never reuses stale routings.  Local compiles \
           only: rejected with $(b,--remote).")

let arch_sweep_arg =
  Arg.(
    value & flag
    & info [ "arch-sweep" ]
        ~doc:
          "Instead of compiling INPUT, sweep segment mixes (x channel \
           widths with $(b,--sweep-widths)) over the built-in bench \
           suite: each point runs the full flow on that fabric and \
           reports minimum channel width, critical path, power and \
           energy per cycle, as a table on stdout and \
           $(b,arch_sweep.json) in the output directory.  Points fan \
           out over the Domain pool; results are identical for any \
           $(b,--jobs).")

let sweep_mixes_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "sweep-mixes" ] ~docv:"MIX,..."
        ~doc:
          "Comma-separated segment mixes to sweep (e.g. \
           $(b,1xL1,2xL1+1xL4)).  Default: L1, L2 and L4 uniform fabrics \
           plus two mixed ones.")

let sweep_widths_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "sweep-widths" ] ~docv:"W,..."
        ~doc:
          "Fixed channel widths to pair with every mix; empty (default) \
           binary-searches the minimum width per point instead.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "With $(b,--remote): subscribe to the daemon's progress-event \
           stream for each submitted design and render a live status \
           line on stderr (stage begin/end, cache hits, PathFinder \
           iterations, annealer temperatures, heartbeats).  The final \
           outputs are byte-identical to a non-streaming run.  Schema in \
           docs/OBSERVABILITY.md.")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Persist the raw progress-event stream as newline-delimited \
           JSON: with $(b,--remote) the daemon's framed records exactly \
           as received (implies the subscription, with or without \
           $(b,--progress)); in local single-design mode the flow's own \
           event stream (drained at the end of the run).")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "With $(b,--remote): retry up to $(docv) times, with bounded \
           exponential backoff (attempt $(i,k) sleeps 200*2^$(i,k) ms, \
           capped at 10 s), when the daemon is not accepting \
           connections yet (connection refused) or answers a submit with \
           a structured backpressure rejection.  Draining daemons are \
           never retried.  Default 0 (fail fast).")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"DIR"
        ~doc:
          "Append one QoR/perf record per completed design to the run \
           ledger $(docv)/<suite>.jsonl (single and $(b,--batch) local \
           modes).  Fold and gate the ledger with $(b,amdrel_report).  \
           Schema in docs/OBSERVABILITY.md.")

let suite_arg =
  Arg.(
    value & opt string "suite"
    & info [ "suite" ] ~docv:"NAME"
        ~doc:"Suite name for $(b,--ledger) records (the ledger file stem).")

let cmd =
  Cmd.v
    (Cmd.info "amdrel_flow"
       ~doc:
         "Run the complete VHDL-to-bitstream design flow (single design \
          or --batch manifest), memoising stage results in a \
          content-addressed cache; --remote submits to an amdreld daemon \
          instead; --arch-sweep explores segment-mix architectures")
    Term.(
      const (fun i o s w j tr p tf b nc cd rm a asw sm sw pg ev rt ld su ->
          Tool_common.protect (fun () ->
              run i o s w j tr p tf b nc cd rm a asw sm sw pg ev rt ld su))
      $ input_arg $ outdir_arg $ seed_arg $ width_arg $ jobs_arg
      $ timing_report_arg $ period_arg $ trace_arg $ batch_arg $ no_cache_arg
      $ cache_dir_arg $ remote_arg $ arch_arg $ arch_sweep_arg $ sweep_mixes_arg
      $ sweep_widths_arg $ progress_arg $ events_arg $ retry_arg $ ledger_arg
      $ suite_arg)

let () = exit (Cmd.eval cmd)
