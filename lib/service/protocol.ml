(* Wire protocol: newline-delimited JSON requests/responses.  See
   protocol.mli for the verb semantics and docs/ARCHITECTURE.md for the
   response schemas. *)

module E = Obs.Emit
module J = Obs.Jsonin

type submit = {
  vhdl : string;
  seed : int;
  route_width : int option;
  timing_report : bool;
  period_ns : float option;
  place_starts : int;
  progress : bool;
}

let default_submit =
  {
    vhdl = "";
    seed = 1;
    route_width = None;
    timing_report = false;
    period_ns = None;
    place_starts = 1;
    progress = false;
  }

let flow_config ~(base : Core.Flow.config) s =
  {
    base with
    Core.Flow.seed = s.seed;
    search_min_width = s.route_width = None;
    route_width =
      Option.value s.route_width ~default:base.Core.Flow.route_width;
    timing_driven =
      base.Core.Flow.timing_driven || s.timing_report || s.period_ns <> None;
    clock_period =
      (match s.period_ns with
      | Some ns -> Some (ns *. 1e-9)
      | None -> base.Core.Flow.clock_period);
    place_starts = s.place_starts;
  }

let validate s =
  let bad field rule = Error (Printf.sprintf "field %S must be %s" field rule) in
  match s with
  | { place_starts; _ } when place_starts < 1 -> bad "place_starts" ">= 1"
  | { route_width = Some w; _ } when w < 1 || w > Route.Router.max_width ->
      bad "route_width" (Printf.sprintf "in [1, %d]" Route.Router.max_width)
  | { period_ns = Some p; _ } when not (Float.is_finite p && p > 0.0) ->
      bad "period_ns" "finite and > 0"
  | _ -> Ok s

type request = Submit of submit | Status | Metrics | Shutdown

let request_to_json = function
  | Status -> E.Obj [ ("verb", E.String "status") ]
  | Metrics -> E.Obj [ ("verb", E.String "metrics") ]
  | Shutdown -> E.Obj [ ("verb", E.String "shutdown") ]
  | Submit s ->
      E.Obj
        ([ ("verb", E.String "submit"); ("vhdl", E.String s.vhdl) ]
        @ (if s.seed <> default_submit.seed then [ ("seed", E.Int s.seed) ]
           else [])
        @ (match s.route_width with
          | Some w -> [ ("route_width", E.Int w) ]
          | None -> [])
        @ (if s.timing_report then [ ("timing_report", E.Bool true) ] else [])
        @ (match s.period_ns with
          | Some ns -> [ ("period_ns", E.Float ns) ]
          | None -> [])
        @ (if s.place_starts <> default_submit.place_starts then
             [ ("place_starts", E.Int s.place_starts) ]
           else [])
        @ if s.progress then [ ("progress", E.Bool true) ] else [])

(* Field extraction: absent optional fields default; present fields of
   the wrong kind are protocol errors (never silently ignored). *)
let field json name get ~default =
  match J.member name json with
  | None | Some E.Null -> Ok default
  | Some v -> (
      match get v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let submit_of_json json =
  let d = default_submit in
  let* vhdl =
    match J.member "vhdl" json with
    | Some v -> (
        match J.get_string v with
        | Some s -> Ok s
        | None -> Error "field \"vhdl\" has the wrong type")
    | None -> Error "submit requires a \"vhdl\" field"
  in
  let* seed = field json "seed" J.get_int ~default:d.seed in
  let* route_width =
    field json "route_width"
      (fun v -> Option.map Option.some (J.get_int v))
      ~default:d.route_width
  in
  let* timing_report =
    field json "timing_report" J.get_bool ~default:d.timing_report
  in
  let* period_ns =
    field json "period_ns"
      (fun v -> Option.map Option.some (J.get_float v))
      ~default:d.period_ns
  in
  let* place_starts =
    field json "place_starts" J.get_int ~default:d.place_starts
  in
  let* progress = field json "progress" J.get_bool ~default:d.progress in
  let* s =
    validate
      {
        vhdl;
        seed;
        route_width;
        timing_report;
        period_ns;
        place_starts;
        progress;
      }
  in
  Ok (Submit s)

let request_of_json json =
  match Option.bind (J.member "verb" json) J.get_string with
  | None -> Error "request requires a string \"verb\" field"
  | Some "status" -> Ok Status
  | Some "metrics" -> Ok Metrics
  | Some "shutdown" -> Ok Shutdown
  | Some "submit" -> submit_of_json json
  | Some verb -> Error (Printf.sprintf "unknown verb %S" verb)

(* ---------- bitstream transport ---------- *)

let hex_chars = "0123456789abcdef"

let hex_encode s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      Bytes.set out (2 * i) hex_chars.[b lsr 4];
      Bytes.set out ((2 * i) + 1) hex_chars.[b land 0xF])
    s;
  Bytes.unsafe_to_string out

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let digit c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Ok (Bytes.unsafe_to_string out)
      else
        match (digit s.[2 * i], digit s.[(2 * i) + 1]) with
        | Some hi, Some lo ->
            Bytes.set out i (Char.chr ((hi lsl 4) lor lo));
            go (i + 1)
        | _ -> Error (Printf.sprintf "invalid hex at offset %d" (2 * i))
    in
    go 0
