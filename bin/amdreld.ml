(* amdreld: the compile-service daemon.  A long-running process serving
   concurrent VHDL-to-bitstream compile requests over a Unix-domain
   socket, sharing one content-addressed stage cache and one domain
   budget across every client (lib/service documents the architecture;
   docs/ARCHITECTURE.md the protocol).  Submit with
   `amdrel_flow --remote SOCKET`, or speak the newline-delimited JSON
   protocol directly.  SIGTERM/SIGINT (or the shutdown verb) drain
   gracefully: queued and in-flight requests complete, responses flush,
   then the process exits 0. *)

open Cmdliner

let run socket queue_depth workers jobs no_cache cache_dir cache_max_bytes
    quiet =
  let log =
    if quiet then ignore
    else fun line -> Printf.eprintf "[amdreld] %s\n%!" line
  in
  let cfg =
    {
      Service.Server.socket_path = socket;
      queue_depth;
      workers;
      jobs = (match jobs with Some j -> j | None -> Util.Parallel.default_jobs ());
      cache_max_bytes;
      flow =
        {
          Core.Flow.default_config with
          Core.Flow.cache_dir = (if no_cache then None else Some cache_dir);
        };
      log;
    }
  in
  let server = Service.Server.create cfg in
  let stop _signal = Service.Server.initiate_shutdown server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Service.Server.run server

let socket_arg =
  Arg.(
    value & opt string "amdreld.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket to listen on.  A leftover socket file from \
           a dead daemon is replaced; a live daemon on the same path is \
           an error.")

let queue_depth_arg =
  Arg.(
    value & opt int 32
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Admission-queue capacity.  Submits arriving with $(docv) \
           requests already queued are answered immediately with a \
           structured backpressure error instead of waiting.")

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:"Compile requests served concurrently.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Total Domain budget across concurrent requests; each request \
           runs its parallel stages with jobs/workers domains (at least \
           1).  Default: the AMDREL_JOBS environment variable or the \
           machine's recommended domain count.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Serve without the shared stage cache (every request recomputes).")

let cache_dir_arg =
  Arg.(
    value
    & opt string "_amdrel_cache"
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Directory of the shared content-addressed stage cache.  \
           Requests for already-compiled designs answer from it across \
           clients and daemon restarts.")

let cache_max_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Byte budget for the shared cache.  The daemon evicts down to \
           it at startup and after completions — corrupt entries first, \
           then least recently used (hits refresh recency).  Unbounded \
           when omitted.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet" ] ~doc:"Suppress the per-event log lines on stderr.")

let cmd =
  Cmd.v
    (Cmd.info "amdreld"
       ~doc:
         "Compile-service daemon: serve concurrent VHDL-to-bitstream \
          compile requests over a Unix-domain socket, sharing one stage \
          cache and one domain budget")
    Term.(
      const (fun s q w j nc cd cm qt ->
          Tool_common.protect (fun () -> run s q w j nc cd cm qt))
      $ socket_arg $ queue_depth_arg $ workers_arg $ jobs_arg $ no_cache_arg
      $ cache_dir_arg $ cache_max_bytes_arg $ quiet_arg)

let () = exit (Cmd.eval cmd)
