(* The integrated design framework CLI: VHDL in, bitstream out, with every
   intermediate product written next to the output (our substitute for the
   paper's GUI; the six GUI stages map to the six stage reports below).

   Every mode is one loop over its sources, INPUT or (--batch) the
   manifest's entries, and turns each into one [outcome]: locally, a
   single design on this domain or a batch over the Domain pool; with
   --remote SOCKET, one design after another on an amdreld daemon, which
   owns the cache and the pool.  One writer ([write]) puts each design's
   BASE.bit, BASE.result.json (QoR figures + full metric registry, or an
   ok:false record naming the failed stage) and, with --timing-report,
   BASE.timing.json in the output directory as soon as its outcome
   exists; BASE is the input file's name without its extension, and a
   remote run writes what a local one does, apart from the metrics.  A
   local single design prints the GUI walkthrough and its intermediate
   products (.edf, .blif, .net, .arch, .timing.txt); every other design
   prints one Core.Flow.summary line.  Every mode ends with one tail line
   and exits 1 when a design failed.

   Local runs memoise stage results in a content-addressed cache
   (_amdrel_cache/ by default; --cache-dir to move it, --no-cache to
   disable): an edited design re-runs only the stages whose inputs
   changed.  See docs/ARCHITECTURE.md. *)

open Cmdliner
module E = Obs.Emit
module J = Obs.Jsonin

(* ---------- one outcome per design, one writer ---------- *)

let name_of source = Filename.remove_extension (Filename.basename source)

(* A compiled or failed design.  [result] (for the walkthrough) and
   [lrec] (the ledger line) exist only for a local compile. *)
type outcome = {
  source : string;
  record : E.t; (* BASE.result.json *)
  bit : string option;
  timing : E.t option; (* BASE.timing.json *)
  result : Core.Flow.result option;
  lrec : E.t option;
}

let ok o = J.member "ok" o.record = Some (E.Bool true)

(* The one failure record, local or remote: [error] is "STAGE: message". *)
let failure source ~stage msg =
  let record =
    E.Obj
      [
        ("design", E.String (name_of source));
        ("ok", E.Bool false);
        ("source", E.String source);
        ("error", E.String (stage ^ ": " ^ msg));
      ]
  in
  { source; record; bit = None; timing = None; result = None; lrec = None }

let write outdir o =
  let base = Filename.concat outdir (name_of o.source) in
  let json path v = Tool_common.write_file path (E.to_string v ^ "\n") in
  Option.iter (Tool_common.write_file (base ^ ".bit")) o.bit;
  Option.iter (json (base ^ ".timing.json")) o.timing;
  json (base ^ ".result.json") o.record

(* ---------- local compile ---------- *)

(* Never raises for a design: an exception outside a stage is tagged
   [flow], as amdreld tags it. *)
let compile_local config timing_report ledger_suite source =
  match
    let text = Tool_common.read_file source in
    (text, Core.Flow.run_vhdl ~config text)
  with
  | text, r ->
      {
        source;
        record = Core.Flow.result_obj ~source r;
        bit = Some r.Core.Flow.bitstream.Bitstream.Dagger.bytes;
        timing =
          (if timing_report then
             Some (Core.Flow.timing_report_obj ~design:(name_of source) r)
           else None);
        result = Some r;
        lrec =
          Option.map
            (fun suite -> Ledger.line ~suite ~config ~source:text r)
            ledger_suite;
      }
  | exception Core.Flow.Flow_error (stage, e) ->
      failure source ~stage (Printexc.to_string e)
  | exception e -> failure source ~stage:"flow" (Printexc.to_string e)

(* ---------- single-design walkthrough (the paper's GUI) ---------- *)

(* The intermediate products and the six stage reports of a compiled
   design; the bitstream, record and timing JSON are already written. *)
let walkthrough input base config timing_report (r : Core.Flow.result) =
  Tool_common.write_file (base ^ ".edf")
    (Netlist.Edif.to_string (Netlist.Edif.of_logic r.Core.Flow.synthesized));
  Tool_common.write_file (base ^ ".blif")
    (Netlist.Blif.to_string r.Core.Flow.mapped);
  Pack.Netfile.to_file (base ^ ".net") r.Core.Flow.packing;
  Fpga_arch.Archfile.to_file (base ^ ".arch") config.Core.Flow.params;
  (* stage reports, in the GUI's six-stage order *)
  Printf.printf "=== 1. File upload ===\n  %s (%d bytes)\n" input
    (Unix.stat input).Unix.st_size;
  Format.printf "=== 2. Synthesis (DIVINER + DRUID) ===@.  %a -> %s@."
    Netlist.Logic.pp_stats (Netlist.Logic.stats r.Core.Flow.synthesized)
    (base ^ ".edf");
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

(* ---------- remote compile (submission to an amdreld daemon) ---------- *)

(* Live status line on stderr: each progress event overwrites the
   previous one; the final response clears it.  Deliberately terse —
   the raw stream (every record, untouched) goes to --events FILE. *)
let render_event design ev =
  let str key = Option.bind (J.member key ev) J.get_string in
  let num key =
    Option.value (Option.bind (J.member key ev) J.get_float) ~default:0.0
  in
  let stage fmt = Option.map (Printf.sprintf fmt) (str "stage") in
  let stat =
    match str "event" with
    | Some "stage-begin" -> stage "%s ..."
    | Some "stage-end" -> stage "%s done"
    | Some "cache" when J.member "hit" ev = Some (E.Bool true) ->
        stage "%s (cache hit)"
    | Some "cache" -> stage "%s (cache miss)"
    | Some "route-iteration" ->
        Some
          (Printf.sprintf "route iter %.0f, %.0f overused" (num "iteration")
             (num "overused"))
    | Some "place-temperature" ->
        Some
          (Printf.sprintf "place step %.0f, accept %.0f%%" (num "step")
             (100.0 *. num "accept_rate"))
    | Some "heartbeat" -> Some "..."
    | _ -> None
  in
  Option.iter (Printf.eprintf "\r\027[K%-12s %s%!" design) stat

let clear_status () = Printf.eprintf "\r\027[K%!"

(* One design through the daemon, as the outcome a local compile of
   [source] gives: the embedded record with [source] added after [ok]
   and the timing report named after the input, or the failure record,
   whose STAGE is the response's [stage], else its [code]
   ([backpressure], [draining], ...). *)
let compile_remote client ~retries ~on_event submit source =
  let design = name_of source in
  match Tool_common.read_file source with
  | exception e -> failure source ~stage:"flow" (Printexc.to_string e)
  | vhdl -> (
      let resp =
        Service.Client.request_retry ~retries
          ?on_event:
            (if submit.Service.Protocol.progress then Some (on_event design)
             else None)
          client
          (Service.Protocol.Submit { submit with Service.Protocol.vhdl })
      in
      let str key = Option.bind (J.member key resp) J.get_string in
      match J.member "result" resp with
      (* Core.Flow.result_obj opens with design and ok *)
      | Some (E.Obj (d :: k :: rest)) when Service.Client.ok resp ->
          {
            source;
            record = E.Obj (d :: k :: ("source", E.String source) :: rest);
            bit =
              Option.map
                (fun hex ->
                  Tool_common.or_die (Service.Protocol.hex_decode hex))
                (str "bitstream_hex");
            timing =
              (match J.member "timing" resp with
              | Some (E.Obj (("design", _) :: rest)) ->
                  Some (E.Obj (("design", E.String design) :: rest))
              | t -> t);
            result = None;
            lrec = None;
          }
      | _ ->
          let stage =
            match str "stage" with
            | Some s -> s
            | None -> Option.value (str "code") ~default:"remote"
          in
          failure source ~stage
            (Option.value (str "error") ~default:"unknown error"))

(* Run [loop] with a compile function that submits each source to the
   daemon over one connection.  The event stream goes raw to --events
   FILE and, on a terminal, into the status line. *)
let with_remote socket ~retries ~events_file submit loop =
  let events_oc = Option.map open_out events_file in
  let tty = Unix.isatty Unix.stderr in
  let on_event design ev =
    Option.iter (fun oc -> output_string oc (E.to_string ev ^ "\n")) events_oc;
    if tty then render_event design ev
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Option.iter close_out events_oc)
      (fun () ->
        let client = Service.Client.connect_retry ~retries socket in
        Fun.protect
          ~finally:(fun () -> Service.Client.close client)
          (fun () ->
            loop (fun source ->
                let o =
                  compile_remote client ~retries ~on_event submit source
                in
                if tty then clear_status ();
                o)))
  in
  Option.iter (Printf.printf "events -> %s\n") events_file;
  outcomes

(* ---------- entry: one loop for every mode ---------- *)

let run input outdir seed fixed_width jobs timing_report period_ns trace_file
    batch no_cache cache_dir remote arch events_file retries ledger suite =
  if remote <> None && arch <> None then
    failwith
      "--arch works only for local compiles (amdreld has no --arch option \
       and compiles for its own fabric); drop --remote or --arch";
  (* The output-affecting flags, as the daemon receives them; a local
     run maps the same record onto its flow config
     (Service.Protocol.flow_config), so the two modes cannot drift.  A
     remote run subscribes to the event stream to capture it or to draw
     the status line. *)
  let submit =
    Tool_common.or_die
      (Service.Protocol.validate
         {
           Service.Protocol.default_submit with
           seed;
           route_width = fixed_width;
           timing_report;
           period_ns;
           progress = events_file <> None || Unix.isatty Unix.stderr;
         })
  in
  let ignored flag mode why =
    Printf.eprintf "amdrel_flow: %s is ignored with %s (%s)\n%!" flag mode why
  in
  (match remote with
  | Some _ ->
      if ledger <> None then
        ignored "--ledger" "--remote"
          "the run stamp needs the daemon's params and jobs; compile locally";
      if trace_file <> None then
        ignored "--trace" "--remote"
          "the spans are recorded in the daemon's process; compile locally \
           to trace"
  | None when batch ->
      (* pool workers have no ambient trace or sink, so the files would
         depend on --jobs *)
      if trace_file <> None then
        ignored "--trace" "--batch"
          "pool workers record no spans; compile one design to trace";
      if events_file <> None then
        ignored "--events" "--batch"
          "pool workers emit no events; compile one design to capture its \
           stream"
  | None -> ());
  if remote = None then Option.iter Util.Fs.mkdir_p ledger;
  Util.Fs.mkdir_p outdir;
  let sources = if batch then Service.Manifest.read input else [ input ] in
  if sources = [] then failwith (input ^ ": no designs listed");
  let cache_dir = if no_cache then None else Some cache_dir in
  let config =
    let params =
      match arch with
      | Some file -> Fpga_arch.Archfile.of_file file
      | None -> Core.Flow.default_config.Core.Flow.params
    in
    Service.Protocol.flow_config
      ~base:
        {
          Core.Flow.default_config with
          params;
          jobs;
          cache_dir;
        }
      submit
  in
  (* a local single design compiles under the --trace and --events
     collectors, if any *)
  let collector create file =
    if remote = None && not batch then
      Option.map (fun path -> (path, create ())) file
    else None
  in
  let trace = collector Obs.Span.create trace_file in
  let events = collector (fun () -> ref []) events_file in
  let under c with_ f () =
    match c with Some (_, x) -> with_ x f | None -> f ()
  in
  let keep got f =
    let o, evs = Obs.Events.collect f in
    got := !got @ evs;
    o
  in
  let ledger_suite = Option.map (fun _ -> suite) ledger in
  let local source =
    under events keep
      (under trace Obs.Span.with_trace (fun () ->
           compile_local config timing_report ledger_suite source))
      ()
  in
  let show o =
    match o.result with
    | Some r ->
        walkthrough o.source
          (Filename.concat outdir (name_of o.source))
          config timing_report r
    | None -> print_endline (Core.Flow.summary o.record)
  in
  (* The one loop: each design's products land as soon as its outcome
     exists, and its line prints in input order, after the pool's join
     in a local batch.  A batch keeps no flow result: the walkthrough is
     single-design only. *)
  let loop compile =
    let step source =
      let o = compile source in
      write outdir o;
      o
    in
    if remote = None && batch then begin
      let os =
        Util.Parallel.map_list ?jobs
          (fun source -> { (step source) with result = None })
          sources
      in
      List.iter show os;
      os
    end
    else
      List.map
        (fun source ->
          let o = step source in
          show o;
          o)
        sources
  in
  let w0 = Unix.gettimeofday () in
  let outcomes =
    match remote with
    | Some socket -> with_remote socket ~retries ~events_file submit loop
    | None -> loop local
  in
  let wall = Unix.gettimeofday () -. w0 in
  Option.iter
    (fun (path, tr) ->
      Tool_common.write_file path (Obs.Span.to_chrome_string tr ^ "\n");
      Printf.printf "trace -> %s (chrome://tracing / Perfetto)\n" path)
    trace;
  Option.iter
    (fun (path, got) ->
      let events = List.map Obs.Events.to_json !got in
      Tool_common.write_file path
        (String.concat "" (List.map (fun ev -> E.to_string ev ^ "\n") events));
      Printf.printf "events -> %s (%d records)\n" path (List.length events))
    events;
  (* ledger lines append after the compiles, in input order, so the
     file order is deterministic at any jobs value *)
  (match (ledger, List.filter_map (fun o -> o.lrec) outcomes) with
  | Some dir, (_ :: _ as recs) ->
      List.iter (Ledger.append ~dir ~suite) recs;
      Printf.printf "ledger: appended %d record(s) to %s\n" (List.length recs)
        (Ledger.path ~dir ~suite)
  | _ -> ());
  let failed = List.length (List.filter (fun o -> not (ok o)) outcomes) in
  let total name =
    let count o = Ledger.find [ "metrics"; name; "value" ] o.record in
    List.fold_left
      (fun n o -> n + Option.value ~default:0 (Option.bind (count o) J.get_int))
      0 outcomes
  in
  Printf.printf "%d design(s), %d failed, %.2f s wall%s\n"
    (List.length outcomes) failed wall
    (match remote with
    | Some socket -> " via " ^ socket
    | None ->
        Printf.sprintf " over %d domain(s)%s"
          (Util.Parallel.resolve_jobs ?jobs ())
          (match cache_dir with
          | Some dir ->
              Printf.sprintf ", cache %s: %d hit / %d miss" dir
                (total "cache.hit") (total "cache.miss")
          | None -> ""));
  if failed > 0 then exit 1

let input_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"INPUT"
        ~doc:
          "VHDL source to compile, or (with $(b,--batch)) a manifest \
           listing one VHDL path per line ($(b,#) comments and blank \
           lines ignored).")

let outdir_arg =
  Arg.(
    value & opt string "flow_out"
    & info [ "d"; "outdir" ] ~docv:"DIR" ~doc:"output directory")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"placement seed")

let width_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "route-width" ]
        ~doc:"fixed channel width, 1 to 128 (skip the search)")

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
           as BASE.timing.json per design; a single local design also \
           prints it and writes BASE.timing.txt.")

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
           for every flow stage, PathFinder iteration and batch, annealer \
           temperature step and STA level sweep; cached stages run no \
           code and are absent), loadable in chrome://tracing or \
           Perfetto.  Ignored with $(b,--batch) or $(b,--remote).")

let batch_arg =
  Arg.(
    value & flag
    & info [ "batch" ]
        ~doc:
          "Treat INPUT as a manifest of designs and compile them all over \
           the Domain pool, writing each design's products and one \
           summary line on stdout.  Exits non-zero if any design fails; \
           the rest still complete.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the content-addressed stage cache: every stage \
           recomputes, with byte-identical outputs (for benchmarking and \
           cold-run telemetry).")

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
          "Compile on the amdreld daemon listening on this Unix-domain \
           socket, which owns the stage cache and the domain pool.  \
           BASE.bit, BASE.result.json and BASE.timing.json equal a local \
           run's, apart from the record's metrics.  On a terminal, a live \
           status line on stderr shows each design's progress.  Works \
           with $(b,--batch); $(b,--arch) is an error (the daemon \
           compiles for its own fabric).")

let arch_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "arch" ] ~docv:"FILE"
        ~doc:
          "Architecture file describing the target fabric (K, N, I, IO \
           pads per position, channel width and the $(b,segment) mix \
           lines; format in lib/fpga_arch/archfile.ml).  Default: the \
           built-in AMDREL platform.  Rejected with $(b,--remote).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Persist the raw progress-event stream as newline-delimited \
           JSON: with $(b,--remote) the daemon's framed records exactly \
           as received (schema in docs/OBSERVABILITY.md); in local \
           single-design mode the flow's own event stream (drained at \
           the end of the run).  Ignored with $(b,--batch).")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "With $(b,--remote): retry up to $(docv) times, with bounded \
           exponential backoff (attempt $(i,k) sleeps 200*2^$(i,k) ms, \
           capped at 10 s), when the daemon refuses the connection or \
           answers a submit with a backpressure rejection.  Draining \
           daemons are never retried.  Default 0 (fail fast).")

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
          instead")
    Term.(
      const (fun i o s w j tr p tf b nc cd rm a ev rt ld su ->
          Tool_common.protect (fun () ->
              run i o s w j tr p tf b nc cd rm a ev rt ld su))
      $ input_arg $ outdir_arg $ seed_arg $ width_arg $ jobs_arg
      $ timing_report_arg $ period_arg $ trace_arg $ batch_arg $ no_cache_arg
      $ cache_dir_arg $ remote_arg $ arch_arg $ events_arg $ retry_arg
      $ ledger_arg $ suite_arg)

let () = exit (Cmd.eval cmd)
