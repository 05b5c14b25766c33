(* The one JSON emitter every machine-readable surface shares (timing
   reports, per-design result records, event streams, ledger records,
   Chrome traces).  A tiny value tree rather than a printer per call
   site, so escaping and number formatting cannot drift between
   surfaces.

   Layout contract: objects and arrays render on one line with ", "
   between elements and ": " after keys — the byte layout the golden
   timing fixtures were recorded with. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.9g: enough digits that every deterministic metric round-trips to
   the same bytes on every run, short enough to stay readable.  JSON has
   no inf/nan tokens, so non-finite floats render as null. *)
let float_str f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else Printf.sprintf "%.9g" f

let to_buffer b v =
  let add = Buffer.add_string b in
  let rec go = function
    | Null -> add "null"
    | Bool x -> add (if x then "true" else "false")
    | Int i -> add (string_of_int i)
    | Float f -> add (float_str f)
    | String s ->
        add "\"";
        add (escape s);
        add "\""
    | List xs ->
        add "[";
        List.iteri
          (fun i x ->
            if i > 0 then add ", ";
            go x)
          xs;
        add "]"
    | Obj kvs ->
        add "{";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then add ", ";
            add "\"";
            add (escape k);
            add "\": ";
            go x)
          kvs;
        add "}"
  in
  go v

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b
