(** Bounded progress-event sink: the flow's live telemetry channel.

    A {!sink} is a bounded queue of progress events behind one mutex.
    The {e producer} is the domain running a flow (instrumentation sites
    call {!emit} against the ambient sink, a per-domain slot installed
    with {!with_sink} — exactly the {!Obs.Span} ambient discipline, so a
    site with no ambient sink costs one domain-local read).  The
    {e consumer} is whoever relays events onward: the compile daemon's
    IO loop framing them to subscribed clients, or a CLI draining the
    queue after a local run.  Producer and consumer may be different
    domains.  Each {!emit} and each {!drain} takes the lock once, and
    the consumer holds it only to take the queue, so the producer never
    waits on the consumer's IO.

    {b Bounding and loss.}  The queue holds at most [capacity] events.
    When the producer outruns the consumer the overflowing event is
    {e dropped} (the flow is never back-pressured by a slow watcher) and
    counted; the next {!drain} reports the gap as a synthetic
    {!constructor:kind.Dropped} event so consumers can tell a quiet flow
    from a lossy one.

    {b Sequence numbers.}  The consumer stamps each event with a
    monotonically increasing sequence number at drain time (single
    consumer, so strictly increasing without coordination).  Synthetic
    consumer-side events ({!heartbeat}, {!next_seq}) draw from the same
    counter, so everything framed from one sink is strictly ordered.

    {b Determinism.}  Every event kind except [Heartbeat] and [Dropped]
    is emitted at a deterministic instrumentation site, in a
    deterministic order, on the domain that owns the flow — worker
    domains of a [Util.Parallel] pool have no ambient sink, and the
    jobs-dependent paths (width-search probes, multi-start annealing
    with more than one start) run under {!without}.  Stripped of
    sequence numbers, timestamps and wall durations, the event-kind
    sequence of a flow is therefore byte-identical at any [jobs]
    value.  docs/OBSERVABILITY.md documents the JSON schema and the
    ordering contract. *)

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
    }  (** one PathFinder iteration of the final routing *)
  | Place_temperature of { step : int; temperature : float; accept_rate : float }
      (** one annealer temperature checkpoint *)
  | Heartbeat  (** consumer-side liveness tick; volatile *)
  | Dropped of { count : int }
      (** [count] events were lost to the queue bound since the previous
          drain; volatile *)

type event = { seq : int; t_s : float; kind : kind }
(** [t_s] is wall seconds since the sink was created — volatile. *)

type sink

val create : ?capacity:int -> unit -> sink
(** A fresh sink.  [capacity] (default 8192) bounds the queue. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] runs [f] with [s] as this domain's ambient sink,
    restoring the previous ambient on exit (exceptions included). *)

val without : (unit -> 'a) -> 'a
(** [without f] runs [f] with no ambient sink: emissions inside are
    dropped.  Used around jobs-dependent work (width-search probes,
    multi-start annealing) to keep the event sequence deterministic. *)

val active : unit -> bool
(** True when a sink is ambient on this domain. *)

val emit : kind -> unit
(** Producer: append one event to the ambient sink, if any.  Never
    waits on the consumer's IO; drops (and counts) when the queue is
    full. *)

val emit_to : sink -> kind -> unit
(** Producer: append directly to [s], bypassing the ambient slot. *)

(** {1 Consumer side}

    Everything below must be called from a single consumer (one domain
    at a time); it is safe to run concurrently with the producer. *)

val drain : sink -> event list
(** All events published since the previous drain, in emission order,
    seq-stamped.  A loss gap since the previous drain is reported first
    as a [Dropped] event. *)

val heartbeat : sink -> event
(** A consumer-synthesized [Heartbeat] carrying the next sequence
    number. *)

val next_seq : sink -> int
(** Allocate the next sequence number (for consumer-synthesized records
    framed outside this module, e.g. the daemon's [accepted]/[done]
    notices). *)

val dropped_total : sink -> int
(** Events lost to the queue bound over the sink's lifetime. *)

(** {1 Rendering} *)

val kind_name : kind -> string
(** The wire name of the kind: ["stage-begin"], ["stage-end"],
    ["cache"], ["route-iteration"], ["place-temperature"],
    ["heartbeat"], ["dropped"]. *)

val volatile : kind -> bool
(** True for [Heartbeat] and [Dropped] — kinds whose presence depends
    on timing, excluded from deterministic comparisons. *)

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
