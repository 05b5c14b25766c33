(** The compile service: a long-running server answering
    {!Protocol} requests over a Unix-domain socket.

    One server owns one listening socket, one bounded FIFO admission
    queue and a fixed pool of compile workers (OCaml domains).  The
    accept/IO loop runs on the calling domain and is the {e only}
    domain that touches sockets, the server's metric registry and the
    server-side cache handle; workers only compile.  Life of a submit:

    + the IO loop reads the request line, parses it, and either
      enqueues a job (FIFO, bounded by [queue_depth]) or answers
      immediately with a structured [backpressure] error — admission
      never blocks the client behind other clients' work;
    + a worker dequeues the job and runs the full flow with a {e fresh
      per-request metric registry} (so no request's metrics or events
      leak into another's) and a jobs budget of
      [jobs / workers] (so [workers] concurrent compiles never
      oversubscribe the configured domain budget);
    + the worker hands the finished response line back to the IO loop,
      which writes it out and folds the request's headline telemetry
      ([service.*] timers/counters, cache traffic) into the server
      registry;
    + a submit with [progress = true] additionally streams: while the
      worker compiles it, an ambient {!Obs.Events} sink pushes each
      event onto the same worker-to-IO-loop queue that then carries
      the completion, and the IO loop frames every queued item in push
      order — each event as one JSON line to the submitting
      connection, a [done] line, then the response line — with a
      heartbeat after 1 s of silence.  Push order is the wire ordering
      rule: no event line of a request the worker starts later can
      come before an earlier request's response;
    + when the server runs over a cache with a byte budget, the IO loop
      runs {!Cache.Store.gc} after completions, so a daemon serving
      requests for days keeps the shared store under
      [cache_max_bytes].

    Graceful drain: {!initiate_shutdown} (called by the daemon's
    SIGTERM/SIGINT handlers, or by the [shutdown] verb) stops
    accepting connections and admitting work; queued and in-flight
    requests complete and their responses are flushed before {!run}
    returns.  All compiled outputs are bit-identical to standalone
    [amdrel_flow] runs of the same designs — the flow's determinism
    contract holds across process boundaries. *)

type config = {
  socket_path : string;  (** Unix-domain socket path; a stale socket
                             file from a dead server is replaced *)
  queue_depth : int;     (** admission-queue bound; further submits get
                             [code = "backpressure"] *)
  workers : int;         (** concurrent compile requests *)
  jobs : int;            (** total Domain budget; each request runs
                             with [max 1 (jobs / workers)] *)
  cache_max_bytes : int option;
      (** size bound for the shared store ({!Cache.Store.gc} after
          completions and at startup); [None] = unbounded *)
  flow : Core.Flow.config;
      (** base flow config — notably [cache_dir], the shared store.
          Per-request fields (seed, widths, timing, starts) are
          overridden by each submit; [jobs] is overridden by the server
          budget. *)
  log : string -> unit;  (** one line per lifecycle event (listen,
                             request completion, drain, eviction) *)
}

val default_config : config
(** [amdreld.sock], queue 32, 2 workers, the machine's default job
    count, unbounded cache, [Core.Flow.default_config] with the
    conventional [_amdrel_cache/] store, silent log. *)

type t

val create : config -> t
(** Bind and listen.  Replaces a leftover socket {e file} at
    [socket_path] only if it is a dead server's socket (refuses to
    unlink a non-socket).  Runs the startup cache scan (and, with
    [cache_max_bytes], the first eviction pass).  Ignores [SIGPIPE]
    process-wide (clients may vanish mid-response).
    @raise Unix.Unix_error when the socket cannot be bound. *)

val run : t -> unit
(** Serve until a drain completes: spawns the workers, runs the IO
    loop on the calling domain, and returns once
    {!initiate_shutdown} (or a [shutdown] verb) has been seen {e and}
    queued plus in-flight requests have completed and their responses
    flushed.  The socket is closed and unlinked on return. *)

val initiate_shutdown : t -> unit
(** Request a graceful drain.  Safe to call from a signal handler or
    another domain; returns immediately. *)
