(** Progress events: the flow's live telemetry channel.

    A sink is a plain function over event kinds.  The {e producer} is
    the domain running a flow: instrumentation sites call {!emit}
    against the ambient sink, a per-domain slot installed with
    {!with_sink}, so a site with no ambient sink costs one domain-local
    read.  Whoever installs
    the sink consumes what it receives and stamps each kind with a
    sequence number and a timestamp: {!collect} for a local capture,
    the compile daemon's worker pushing onto its one queue to the IO
    loop for a progress stream.  A sink runs on the producer's domain,
    inside the flow, so it must be cheap and must not wait on IO.

    {b Determinism.}  Every event kind except [Heartbeat] is emitted at
    a deterministic instrumentation site, in a deterministic order, on
    the domain that owns the flow — worker domains of a [Util.Parallel]
    pool have no ambient sink, and the jobs-dependent paths
    (width-search probes, multi-start annealing with more than one
    start) run under {!without}.  Stripped of sequence numbers,
    timestamps and wall durations, the event-kind sequence of a flow is
    therefore byte-identical at any [jobs] value, and so is the
    structure of the Chrome trace {!to_chrome} draws from it.
    docs/OBSERVABILITY.md documents the JSON schema, the ordering
    contract and the trace mapping. *)

type kind =
  | Stage_begin of { stage : string }
      (** a flow stage (one of [Core.Flow.stages]) started *)
  | Stage_end of { stage : string; wall_s : float }
      (** ...and finished; [wall_s] is volatile *)
  | Cache_lookup of { stage : string; hit : bool }
      (** stage-store lookup outcome (only when a cache is configured) *)
  | Route_iteration of {
      iteration : int;
      overused : int;
      rerouted : int;
      heap_pops : int;
      wall_s : float;
    }
      (** one PathFinder iteration of the final routing, emitted at its
          end; [wall_s], its duration, is volatile *)
  | Place_temperature of {
      step : int;
      temperature : float;
      accept_rate : float;
      wall_s : float;
    }
      (** one annealer temperature checkpoint, after the step's move
          loop; [wall_s], the time since the step began, is volatile *)
  | Heartbeat  (** consumer-side liveness tick; volatile *)

type event = { seq : int; t_s : float; kind : kind }
(** [seq] counts from 0 per stream; [t_s] is wall seconds since the
    stream began — volatile. *)

val with_sink : (kind -> unit) -> (unit -> 'a) -> 'a
(** [with_sink s f] runs [f] with [s] as this domain's ambient sink,
    restoring the previous ambient on exit (exceptions included). *)

val without : (unit -> 'a) -> 'a
(** [without f] runs [f] with no ambient sink: emissions inside are
    dropped.  Used around jobs-dependent work (width-search probes,
    multi-start annealing) to keep the event sequence deterministic. *)

val active : unit -> bool
(** True when a sink is ambient on this domain. *)

val emit : kind -> unit
(** Producer: hand one event to the ambient sink, if any. *)

val collect : (unit -> 'a) -> 'a * event list
(** [collect f] runs [f] under a sink that keeps every emission, and
    returns [f]'s result with the events in emission order: [seq] from
    0, [t_s] since [collect] began. *)

(** {1 Rendering} *)

val kind_name : kind -> string
(** The wire name of the kind: ["stage-begin"], ["stage-end"],
    ["cache"], ["route-iteration"], ["place-temperature"],
    ["heartbeat"]. *)

val volatile : kind -> bool
(** True for [Heartbeat], whose presence depends on timing: it is
    excluded from deterministic comparisons. *)

val to_fields : event -> (string * Emit.t) list
(** The event as JSON object fields, leading with ["event"] (the kind
    name), then ["seq"], the kind's own fields, and ["t_s"] last.
    Callers may prepend routing fields (the daemon adds ["id"]). *)

val to_json : event -> Emit.t
(** [Obj (to_fields e)]. *)

val deterministic_fields : event -> (string * Emit.t) list option
(** [to_fields] without the volatile parts: [None] for volatile kinds,
    and ["seq"]/["t_s"]/["wall_s"] stripped otherwise — the view two
    runs of the same flow must agree on byte-for-byte. *)

val to_chrome : design:string -> Emit.t list -> Emit.t
(** [to_chrome ~design records] renders one run's event records — the
    {!to_json} objects of a local capture, or a daemon's progress frames
    as received — as a Chrome trace-event object ([traceEvents], µs
    timestamps since the stream began), loadable in [chrome://tracing]
    and Perfetto.  A [flow] root span carries [design]; inside it a
    [stage-begin]/[stage-end] pair is a B/E span named after the stage,
    [route-iteration] and [place-temperature] are one ["route.iteration"]
    / ["place.temperature"] X span each (ending at [t_s], lasting
    [wall_s]), and [cache] is an instant.  Span and instant args are the
    record's fields without ["event"], ["id"], ["seq"], ["t_s"] and
    ["wall_s"]; [heartbeat] and [done] records draw nothing.  So the
    names and args of the trace are as deterministic as the records'
    deterministic view. *)
