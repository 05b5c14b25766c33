(** Content-addressed persistent store for memoised flow-stage results.

    A store is a directory ([_amdrel_cache/] by convention) holding one
    file per entry, named by the entry's key — the hex digest {!key}
    derives from the stage name, its code-version tag and the content
    hashes of everything the stage's output depends on.  The flow wraps
    each of its stages in a lookup against this store, so a re-run of an
    unchanged design skips straight to the cached artifacts and an
    edited source re-runs only the stages whose inputs actually changed
    (docs/ARCHITECTURE.md documents the stage graph and the full
    cache-key schema).

    Design points:

    - {b Writes are atomic.}  [store] marshals into a temporary file in
      the same directory and [Sys.rename]s it over the final name, so
      concurrent writers (the batch driver's Domain pool, or several
      CLI invocations sharing one cache) can never expose a
      half-written entry; the last writer wins with a complete file.
    - {b Reads are corrupt-tolerant.}  A missing, truncated, garbled or
      foreign entry is indistinguishable from a miss: [find] returns
      [None] and the caller recomputes (and re-stores).  A
      cache can therefore be deleted, truncated or copied between
      machines at any time without breaking a flow — the worst case is
      recomputation.
    - {b Every operation counts into the metric registry} passed at
      [open_] time, under the [cache.*] keys documented in
      docs/OBSERVABILITY.md: [cache.hit], [cache.miss], [cache.store],
      [cache.corrupt] and [cache.bytes] (payload bytes read on hits
      plus written on stores).
    - {b Entries are plain marshaled data}, with no closures ([store]
      passes no [Marshal] flags), so any binary can read them: the flow
      CLI and the compile service share one directory, and a rebuilt
      binary keeps hitting.  The payload type is pinned by the key
      (stage name and version tag are always part of it); reading a key
      written at a different type is undefined behaviour, as with
      [Marshal] — never reuse a key across types without bumping the
      version tag. *)

type t
(** An open store rooted at one directory. *)

val open_ : ?obs:Obs.Registry.t -> string -> t
(** [open_ ?obs dir] opens (creating [dir] and its parents if needed)
    the store rooted at [dir].  [obs] receives the [cache.*] counters;
    omitted, the counters go to a private throwaway registry.
    @raise Sys_error when [dir] cannot be created. *)

val dir : t -> string
(** The store's root directory. *)

val key : string list -> string
(** [key parts] is the store key for a stage output whose identity is
    the ordered list [parts] — by convention
    [stage-name :: code-version-tag :: content-hashes-and-config].
    Deterministic across runs and processes; parts are
    NUL-separated before digesting, so no concatenation of distinct
    part lists collides textually. *)

val path : t -> string -> string
(** [path t k] is the file that does (or would) hold entry [k] —
    exposed for tests and cache inspection tooling. *)

val find : t -> string -> 'a option
(** [find t k] is the stored value for [k], or [None] when absent or
    unreadable (any corruption — truncation, garbage, a foreign file —
    counts [cache.corrupt] and reads as a miss).
    Counts [cache.hit] or [cache.miss].

    The result type is pinned by the key, not checked at runtime: only
    read a key with the type it was stored at (see the module
    preamble). *)

val store : t -> string -> 'a -> unit
(** [store t k v] atomically writes [v] under [k] (temp file +
    rename), replacing any previous entry.  Counts [cache.store] and
    [cache.bytes].  Temp filenames embed the writing (pid, domain id,
    sequence number), so concurrent writers — several domains of one
    process or several processes sharing a directory — never collide
    mid-write; racing stores of the same key both succeed and the last
    rename wins with a complete entry.  Failures (full disk, read-only
    directory, a value holding a closure) are swallowed: caching is an
    optimisation, never a correctness dependency — the next [find]
    simply misses. *)

(** {1 Lifecycle at service scale}

    A store that lives for days (the compile-service daemon) must not
    grow without bound.  [gc] is the size-bounded eviction pass: it
    scans the directory, deletes debris (stale temp files from crashed
    writers), and — when a byte budget is given — evicts entries until
    the survivors fit, corrupt entries first (they can only ever read
    as misses), then least-recently-used.  Recency is the entry file's
    mtime, which {!find} refreshes on every hit, so hot entries
    survive.  The pass is safe to run concurrently with readers and
    writers of the same directory: eviction is [Sys.remove], which an
    in-flight read either wins or loses wholesale (a lost read is a
    miss and recomputes). *)

type gc_stats = {
  entries : int;         (** entries remaining after the pass *)
  resident_bytes : int;  (** bytes remaining after the pass *)
  evicted : int;         (** entries deleted (corrupt + LRU) *)
  evicted_bytes : int;
  evicted_corrupt : int; (** of [evicted], how many failed the
                             integrity probe *)
}

val gc : ?max_bytes:int -> t -> gc_stats
(** [gc ?max_bytes t] scans the store and, when [max_bytes] is given,
    evicts down to the budget.  Without [max_bytes] it is a pure size
    scan (plus stale-temp cleanup): no entry is deleted.  Records
    [cache.evict] (entries deleted, counter) and [cache.resident-bytes]
    (volatile gauge) into the store's registry.  Never raises on I/O
    errors — unreadable files are skipped, undeletable ones stay. *)
