(** Blocking client for the compile service.

    One connection, one request/response at a time: {!request} writes a
    {!Protocol.request} as one JSON line and blocks until the matching
    response line arrives (for [submit], that is when the compile
    finishes — immediate errors like backpressure come straight back).
    [amdrel_flow --remote] is built on this; tests drive concurrent
    clients by running one connection per domain. *)

type t

val connect : string -> t
(** Connect to the daemon's Unix-domain socket.
    @raise Unix.Unix_error when nobody is listening. *)

val connect_retry : ?retries:int -> ?wait_ms:int -> string -> t
(** {!connect} with bounded exponential backoff on [ECONNREFUSED] and
    [ENOENT] (daemon not up yet, or restarting): up to [retries] extra
    attempts (default 0 — identical to {!connect}), sleeping
    [wait_ms * 2^attempt] milliseconds (default 200, capped at 10 s)
    between attempts.  Other errors raise immediately. *)

val close : t -> unit

val request : t -> Protocol.request -> Obs.Emit.t
(** Send one request, wait for one response, parse it.
    @raise End_of_file when the server closes the connection first.
    @raise Obs.Jsonin.Parse_error on a malformed response line. *)

val send : t -> Protocol.request -> unit
(** Fire a request without waiting.  Pipelined submits get their
    responses in {e completion} order, not submission order — match
    them up by ["id"] (immediate errors such as backpressure carry no
    id and overtake in-flight compiles). *)

val recv : t -> Obs.Emit.t
(** Block for the next response line.  [request t r] is
    [send t r; recv t]. *)

val with_connection : string -> (t -> 'a) -> 'a
(** [with_connection path f] connects, runs [f], and closes — also on
    exceptions. *)

(** {1 Response accessors} *)

val request_retry :
  ?retries:int ->
  ?wait_ms:int ->
  ?on_event:(Obs.Emit.t -> unit) ->
  t ->
  Protocol.request ->
  Obs.Emit.t
(** {!request} with the same backoff schedule on structured
    [backpressure] rejections (a full admission queue is transient; the
    queued work ahead of us is finite).  [draining] rejections are
    {e not} retried — that daemon is going away; pick another address.
    Returns the last response (still a rejection when the budget runs
    out).  Pass [on_event] with a [progress] submit: the accepted line
    is read past, each event line goes to [on_event] in arrival order,
    and the completion record is returned. *)

val ok : Obs.Emit.t -> bool
(** The response's ["ok"] field ([false] when absent). *)

val code : Obs.Emit.t -> string option
(** The response's machine-readable ["code"] field, when present
    ([backpressure] | [draining] | [bad-request] | [compile-error] |
    [unknown-id]). *)

val error_message : Obs.Emit.t -> string
(** Human-readable failure description: ["error"] plus ["code"] and
    ["stage"] when present.  Meaningful only when [ok] is [false]. *)
