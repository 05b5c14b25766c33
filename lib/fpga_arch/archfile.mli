(** Architecture file generation and parsing (the DUTYS tool).

    A small keyword format, one entry per line; see {!to_string} output
    for the exact shape.  Repeatable [segment LENGTH COUNT [FC_IN
    FC_OUT METAL]] lines accumulate the channel's segment mix
    ({!Params.t.segments}).  Older files' [segment_length]/[fc_in]/
    [fc_out] lines still read as the one-type mix when no [segment] line
    is present, and [fs 3], [switch pass] and [registered_outputs 1] as
    statements of the only interconnect the flow models. *)

exception Parse_error of string

val to_string : Params.t -> string
val to_file : string -> Params.t -> unit

val of_string : string -> Params.t
(** Unspecified fields default to {!Params.amdrel}; the result is
    validated.  A line the format cannot read, or one that asks for an
    interconnect the flow does not model ([fs] other than 3, [switch]
    other than [pass], [registered_outputs] other than 1) or a
    [gated_clock] other than 0/1, raises [Parse_error] naming the line.
    @raise Parse_error / {!Params.Invalid_params}. *)

val of_file : string -> Params.t
