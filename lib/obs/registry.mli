(** Typed metric registry with domain-safe recording.

    A registry replaces the flow's previous stringly
    [times : (string * float) list] accumulation.  Four metric kinds:

    - {b Counter} — monotonic integer ([incr]); merged by summation.
    - {b Gauge} — a float set point-in-time ([set]); the last write
      wins.
    - {b Timer} — accumulated wall {e and} CPU seconds plus an interval
      count ([time] / [add_time]); merged by summation.  Timers are
      always {e volatile}: elapsed time never reproduces across runs, so
      the deterministic JSON view excludes them.
    - {b Histogram} — log-bucketed distribution ([observe]) reporting
      count/min/max/p50/p90.  Buckets are powers of two (frexp
      exponents, with one bucket for all values [<= 0]); percentiles are
      bucket upper bounds clamped into [[min, max]].  No sum or mean is
      exposed — float accumulation order would depend on domain
      scheduling.

    Recording is domain-safe: a registry is one table behind one mutex,
    and every record and every {!snapshot} takes that lock once.
    Counter, timer and histogram updates are commutative (sums, min/max,
    bucket counts), so the snapshot does not depend on which domain
    recorded what and is bit-identical at any [jobs] value provided the
    {e set of recorded values} is itself deterministic.  Snapshot only
    observes worker-side records that happened before the workers were
    joined (Util.Parallel.map joins its domains before returning).

    Registries are {e scoped and cheap}: all of a registry's state is
    reachable only from the registry value itself, so a long-running
    service can create one registry per request — isolating every
    request's metrics from every other's — without growing any
    process-wide structure.  Two back-to-back runs recording into two
    fresh registries produce byte-identical deterministic JSON to two
    fresh-process runs.

    Keys are dotted names following the docs/OBSERVABILITY.md schema.
    Recording a key with two different kinds raises [Invalid_argument]. *)

type t
(** A metric registry.  One per flow run. *)

val create : unit -> t
(** A fresh registry.  The creating domain's first-record key order
    defines the order of {!snapshot}.  Safe to call from any domain,
    any number of times per process (see the scoping note above). *)

val incr : ?by:int -> t -> string -> unit
(** Add [by] (default 1) to a counter. *)

val set : ?volatile:bool -> t -> string -> float -> unit
(** Set a gauge.  [~volatile:true] marks the value as run-dependent
    (e.g. [parallel.speedup]); volatile entries are excluded from the
    deterministic JSON view. *)

val observe : t -> string -> float -> unit
(** Record one sample into a histogram. *)

val add_time : t -> string -> wall_s:float -> cpu_s:float -> unit
(** Accumulate one measured interval into a timer. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t key f] runs [f ()], recording its wall and CPU seconds into
    the timer [key].  Nothing is recorded when [f] raises. *)

(** {1 Snapshots} *)

type histogram = { count : int; min : float; max : float; p50 : float; p90 : float }

type value =
  | Counter of int
  | Gauge of float
  | Timer of { wall_s : float; cpu_s : float; intervals : int }
  | Histogram of histogram

type entry = { key : string; value : value; volatile : bool }

type snapshot = entry list
(** Point-in-time view: the creating domain's first-record order first
    (the flow's stage order), then the keys only other domains recorded,
    in ascending key order. *)

val snapshot : t -> snapshot
(** Read every entry under the registry's lock.  Safe to call
    repeatedly, from any domain; the registry keeps accumulating
    afterwards. *)

val find : snapshot -> string -> value option

val counter : snapshot -> string -> int
(** The counter [key]'s value; 0 when the key is absent (a counter
    nothing incremented this run) or holds another kind. *)

val to_json : ?deterministic:bool -> snapshot -> Emit.t
(** JSON object keyed by metric name (ascending key order), each value
    an object tagged with ["kind"].  [~deterministic:true] drops
    volatile entries (all timers, volatile gauges) so the output is
    byte-identical at any [jobs] value. *)
