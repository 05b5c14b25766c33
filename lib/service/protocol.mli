(** The compile-service wire protocol: newline-delimited JSON over a
    Unix-domain socket.

    Each request is one JSON object on one line; each response is one
    JSON object on one line.  Four verbs:

    - [submit] — compile one design.  Carries the VHDL source text and
      the output-affecting config the client may choose (seed, fixed
      channel width, timing report, clock period, placement starts);
      everything else — cache directory, job budget — is the server's.
      The response arrives when the compile finishes (or immediately,
      with [code = "backpressure"], when the admission queue is full).
      A submit with [progress = true] is acknowledged at once, and its
      event lines come before the response: docs/OBSERVABILITY.md,
      "Wire framing".
    - [status] — queue depth, in-flight count, lifetime counters, and
      the queued requests' positions and ages.  Answered immediately.
    - [metrics] — the server's full metric registry ([service.*] and
      [cache.*] keys; docs/OBSERVABILITY.md).  Answered immediately.
    - [shutdown] — begin a graceful drain: stop admitting, finish
      queued and in-flight work, flush responses, exit.  Equivalent to
      SIGTERM on the daemon.

    Response schemas are documented in docs/ARCHITECTURE.md (Compile
    service section).  Every response object carries ["ok"]; failures
    carry ["error"] and a machine-readable ["code"]
    ([backpressure] | [draining] | [bad-request] | [compile-error]),
    and compile errors additionally name the flow ["stage"] that
    raised.  Success responses to [submit] embed the same per-design
    record as [amdrel_flow --batch]'s [BASE.result.json]
    ({!Core.Flow.result_json}) under ["result"], the bitstream bytes
    hex-encoded under ["bitstream_hex"], and the run's deterministic
    metric view under ["deterministic_metrics"]. *)

type submit = {
  vhdl : string;             (** VHDL source text (possibly several
                                 entities; the last is the top) *)
  seed : int;                (** placement seed (default 1) *)
  route_width : int option;  (** fixed channel width; [None] searches
                                 the minimum *)
  timing_report : bool;      (** timing-driven + a timing report in the
                                 response under ["timing"] *)
  period_ns : float option;  (** target clock period (implies
                                 timing-driven) *)
  place_starts : int;        (** independent annealing starts *)
  progress : bool;           (** stream progress events to this
                                 connection while the compile runs:
                                 the submit is acknowledged with an
                                 [accepted] line carrying the request
                                 id, event lines follow, and the
                                 compile response arrives last *)
}

val default_submit : submit
(** Empty source, seed 1, width search, no timing report, 1 start,
    no progress stream. *)

val flow_config : base:Core.Flow.config -> submit -> Core.Flow.config
(** [base] with the submit's output-affecting choices applied: seed,
    fixed width (or the width search), timing-driven mode, clock
    period and placement starts.  The daemon and a local
    [amdrel_flow] run both build their flow config through this. *)

val validate : submit -> (submit, string) result
(** The submit unchanged, or an error naming the first field outside its
    domain: [place_starts >= 1], [route_width] in [1, 128]
    ({!Route.Router.max_width}, the width search's own ceiling: a wider
    RR graph could exhaust the daemon's memory), [period_ns] finite and
    [> 0].  {!request_of_json} applies it, and so does a local
    [amdrel_flow] run before it compiles. *)

type request = Submit of submit | Status | Metrics | Shutdown

val request_to_json : request -> Obs.Emit.t

val request_of_json : Obs.Emit.t -> (request, string) result
(** Inverse of {!request_to_json}; [Error] describes the malformation.
    Unknown verbs, missing/mistyped required fields and submit fields
    outside their domain ({!validate}) are errors; omitted optional
    submit fields take {!default_submit}'s values. *)

(** {1 Bitstream transport} *)

val hex_encode : string -> string
(** Lowercase hex, two characters per byte. *)

val hex_decode : string -> (string, string) result
