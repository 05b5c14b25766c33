(** Fixed-size Domain work pool for embarrassingly-parallel stages.

    The flow's coarse-grained hot paths (speculative channel-width
    probes, independent circuits of a benchmark suite, multi-start
    annealing seeds) are shared-nothing: each task builds its own
    problem state and only reads immutable inputs.  This module runs
    such task arrays across OCaml 5 domains while keeping every
    observable output identical to the sequential path:

    - results come back in input order, regardless of completion order;
    - an exception raised by a task is re-raised in the caller, and when
      several tasks fail the one with the {e lowest index} wins, exactly
      as a sequential loop would have surfaced it;
    - nested calls degrade to sequential execution (a worker domain
      never spawns further domains), so composed parallel stages cannot
      oversubscribe the machine.

    The pool size comes from, in priority order: the [?jobs] argument,
    the [AMDREL_JOBS] environment variable, then
    [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** Pool size used when [?jobs] is omitted: [AMDREL_JOBS] when set to a
    positive integer, otherwise [Domain.recommended_domain_count ()]. *)

val resolve_jobs : ?jobs:int -> unit -> int
(** The worker count a [map] with the same [?jobs] would use before
    clamping to the task count: [max 1 jobs], [default_jobs ()] when
    omitted, and [1] inside a worker domain (nested parallelism runs
    sequentially).  Exposed so callers can report the effective pool
    size (e.g. the flow's [parallel.jobs] counter). *)

val in_worker : unit -> bool
(** True while executing inside a pool worker (nested [map]s then run
    sequentially). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?jobs f xs] is [Array.map f xs] computed on up to [jobs]
    domains.  Results are in input order; the first (lowest-index) task
    exception is re-raised with its backtrace.  [jobs <= 1], singleton
    and empty inputs, and nested calls run sequentially in the calling
    domain. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over a list, preserving order. *)

type 'a scratch_slot
(** A per-domain cache of mutable working storage.  Tasks of a parallel
    stage often need scratch buffers (Dijkstra arrays, costing vectors);
    a slot gives every domain its own lazily-built copy, so concurrent
    tasks never alias each other's buffers while tasks executing on the
    same domain — including the calling domain across successive {!map}
    calls — reuse one allocation.  Scratch contents must never influence
    results (validate-by-stamp or overwrite-before-read disciplines), so
    reuse is invisible to any output. *)

val scratch_slot : unit -> 'a scratch_slot
(** A fresh slot.  Create once at module level, not per call: each
    domain's cache lives as long as the slot's key. *)

val scratch : 'a scratch_slot -> valid:('a -> bool) -> create:(unit -> 'a) -> 'a
(** [scratch slot ~valid ~create] returns this domain's cached value when
    [valid] accepts it (e.g. the buffer is large enough), otherwise
    [create]s, caches and returns a replacement. *)
