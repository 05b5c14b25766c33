(** Shared compact-JSON emitter for every machine-readable surface of
    the flow: timing reports, per-design [BASE.result.json] records,
    progress events, ledger records and Chrome trace exports.

    Rendering contract (relied on by the golden timing fixtures):
    one line, [", "] between elements, [": "] after object keys,
    strings escaped with backslash escapes for quote, backslash and
    newline, and [\\uXXXX] for other control characters.  Floats render with [%.9g]; non-finite floats render as
    [null] (JSON has no inf/nan tokens). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** [escape s] is the JSON string-body escaping of [s] (no quotes). *)

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer b v] appends the rendering of [v] to [b]. *)

val to_string : t -> string
(** [to_string v] renders [v] as compact single-line JSON. *)
