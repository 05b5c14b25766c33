(** The run ledger: one append-only JSONL file per suite, one line per
    completed flow — the durable QoR/perf trajectory the bench suite
    accumulates across commits.

    A line is the per-design record {!Core.Flow.result_obj} builds (what
    [BASE.result.json] holds, less its [source] path) plus one [run]
    member stamping the run: [suite], [design_hash] (MD5 of the design
    source text), [params_fp] (architecture-params fingerprint), [mix]
    (segment-mix name), [seed], [mode] ({!mode}), [jobs], [git] ([git
    describe --always --dirty], or ["-"]) and [at] (UTC timestamp).
    [amdrel_report] folds a ledger into [BENCH_<suite>.json] and gates
    on the record's deterministic QoR fields, comparing only records of
    one design hash, params, seed and mode (docs/OBSERVABILITY.md § The
    run ledger).

    Appends are a single [O_APPEND] write of one line, so concurrent
    writers (the bench suite's designs, parallel CI shards on a shared
    volume) interleave whole lines rather than corrupting bytes. *)

val line :
  suite:string ->
  config:Core.Flow.config ->
  source:string ->
  Core.Flow.result ->
  Obs.Emit.t
(** The ledger line of a finished flow.  [source] is the design source
    text (hashed, not stored); the stamp's identity fields come from
    [config]. *)

val mode : Core.Flow.config -> string
(** The stamp's [mode]: the output-affecting settings [amdrel_flow]
    sets outside the params and the seed.  ["search"] (the routability
    width search) or ["width=N"] (fixed width N), then ["+timing"] when
    place and route are timing-driven and ["+period=Pns"] with a clock
    period, e.g. ["search+timing+period=5ns"].
    [Core.Flow.default_config]'s mode is ["search"]. *)

val line_mode : Obs.Emit.t -> string
(** A line's [run.mode].  A line without one was written before the
    field existed, by a default-mode run, and reads as ["search"].  The
    reader's schema does not require the field, so such lines stay
    valid. *)

val path : dir:string -> suite:string -> string
(** [dir/<suite>.jsonl], the file {!append} and {!read} use. *)

val append : dir:string -> suite:string -> Obs.Emit.t -> unit
(** Append one line to [dir/<suite>.jsonl], creating [dir] (with any
    missing parents) and the file as needed. *)

val find : string list -> Obs.Emit.t -> Obs.Emit.t option
(** [find path line] follows object members along [path], e.g.
    [["metrics"; "sta.wns"; "value"]]. *)

val read : dir:string -> suite:string -> Obs.Emit.t list * int
(** The lines of [dir/<suite>.jsonl] in file order, plus the count of
    lines skipped: malformed JSON, [ok] not [true], or a field
    [amdrel_report] reads that is absent or of the wrong kind (so
    old-schema lines are skipped as alien).  ([[], 0]) when the file
    does not exist. *)

val utc_now : unit -> string
(** The [at] timestamp format, [YYYY-MM-DDThh:mm:ssZ]. *)
