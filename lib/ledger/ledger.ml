(* Append-only per-suite run ledger.  See ledger.mli. *)

module E = Obs.Emit
module J = Obs.Jsonin
module F = Core.Flow

let utc_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let git_describe () =
  let read_first_line cmd =
    match Unix.open_process_in cmd with
    | exception _ -> None
    | ic -> (
        let line = try Some (String.trim (input_line ic)) with _ -> None in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> (
            match line with Some l when l <> "" -> Some l | _ -> None)
        | _ -> None)
  in
  match read_first_line "git describe --always --dirty 2>/dev/null" with
  | Some d -> d
  | None -> "-"

let mode (c : F.config) =
  String.concat "+"
    ((if c.F.search_min_width then "search"
      else Printf.sprintf "width=%d" c.F.route_width)
    :: (if c.F.timing_driven then [ "timing" ] else [])
    @
    match c.F.clock_period with
    | Some p -> [ Printf.sprintf "period=%.12gns" (p *. 1e9) ]
    | None -> [])

let line_mode line =
  match Option.bind (J.member "run" line) (J.member "mode") with
  | Some (E.String m) -> m
  | _ -> mode F.default_config

let line ~suite ~config ~source r =
  let hex s = E.String (Digest.to_hex (Digest.string s)) in
  let run =
    E.Obj
      [
        ("suite", E.String suite);
        ("design_hash", hex source);
        ("params_fp", hex (Marshal.to_string config.F.params []));
        ("mix", E.String (Fpga_arch.Params.mix_name config.F.params));
        ("seed", E.Int config.F.seed);
        ("mode", E.String (mode config));
        ("jobs", E.Int (Util.Parallel.resolve_jobs ?jobs:config.F.jobs ()));
        ("git", E.String (git_describe ()));
        ("at", E.String (utc_now ()));
      ]
  in
  match F.result_obj r with
  | E.Obj fields -> E.Obj (fields @ [ ("run", run) ])
  | _ -> invalid_arg "Ledger.line: the result record is not an object"

let path ~dir ~suite = Filename.concat dir (suite ^ ".jsonl")

let append ~dir ~suite line =
  Util.Fs.mkdir_p dir;
  let fd =
    Unix.openfile (path ~dir ~suite)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let text = E.to_string line ^ "\n" in
      (* one write: O_APPEND makes whole-line interleaving atomic for
         concurrent appenders on a local fs *)
      ignore (Unix.write_substring fd text 0 (String.length text)))

let find path json =
  List.fold_left (fun acc key -> Option.bind acc (J.member key)) (Some json)
    path

(* Every field amdrel_report reads, with the kind it must hold: a line
   failing one is skipped, so the report never gates on a missing
   value.  [min_width] is null when the run did not search widths. *)
let schema =
  let str v = J.get_string v <> None
  and int v = J.get_int v <> None
  and num v = J.get_float v <> None in
  [
    ([ "ok" ], fun v -> v = E.Bool true);
    ([ "design" ], str);
    ([ "run"; "design_hash" ], str);
    ([ "run"; "params_fp" ], str);
    ([ "run"; "seed" ], int);
    ([ "run"; "jobs" ], int);
    ([ "run"; "git" ], str);
    ([ "run"; "at" ], str);
    ([ "min_width" ], fun v -> v = E.Null || int v);
    ([ "width" ], int);
    ([ "luts" ], int);
    ([ "clbs" ], int);
    ([ "bits" ], int);
    ([ "critical_path_s" ], num);
    ([ "power_w" ], num);
    ([ "metrics"; "sta.wns"; "value" ], num);
    ([ "metrics"; "sta.tns"; "value" ], num);
  ]

let valid json =
  List.for_all
    (fun (path, ok) ->
      match find path json with Some v -> ok v | None -> false)
    schema

let read ~dir ~suite =
  let file = path ~dir ~suite in
  if not (Sys.file_exists file) then ([], 0)
  else
    let lines =
      In_channel.with_open_text file In_channel.input_lines
      |> List.filter (fun l -> String.trim l <> "")
    in
    let records =
      List.filter_map
        (fun l ->
          match J.parse_result l with
          | Ok json when valid json -> Some json
          | _ -> None)
        lines
    in
    (records, List.length lines - List.length records)
