(* Append-only per-suite run ledger.  See ledger.mli. *)

module E = Obs.Emit
module R = Obs.Registry
module F = Core.Flow

type t = {
  suite : string;
  design : string;
  design_hash : string;
  params_fp : string;
  mix : string;
  seed : int;
  jobs : int;
  git : string;
  at : string;
  luts : int;
  clbs : int;
  width : int;
  wmin : int option;
  crit_s : float;
  wns_s : float;
  tns_s : float;
  power_w : float;
  bits : int;
  stage_wall : (string * float) list;
  stage_cpu : (string * float) list;
  cache_hits : int;
  cache_misses : int;
  cache_stores : int;
}

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

(* Top-level stage timers only: dotted keys such as sta.phase.forward
   or place.move-eval are sub-stage profiling, not the per-stage cost
   profile. *)
let stage_timers snap =
  List.filter_map
    (fun (e : R.entry) ->
      match e.R.value with
      | R.Timer { wall_s; cpu_s; _ } when not (String.contains e.R.key '.') ->
          Some (e.R.key, wall_s, cpu_s)
      | _ -> None)
    snap

let of_result ~suite ~config ~source (r : F.result) =
  let timers = stage_timers r.F.metrics in
  {
    suite;
    design = r.F.design;
    design_hash = Digest.to_hex (Digest.string source);
    params_fp =
      Digest.to_hex
        (Digest.string (Marshal.to_string config.F.params []));
    mix = Fpga_arch.Params.mix_name config.F.params;
    seed = config.F.seed;
    jobs = Util.Parallel.resolve_jobs ?jobs:config.F.jobs ();
    git = git_describe ();
    at = utc_now ();
    luts = r.F.mapped_stats.Netlist.Logic.n_gates;
    clbs = r.F.n_clusters;
    width = r.F.route_stats.Route.Router.channel_width;
    wmin = r.F.route_stats.Route.Router.minimum_width;
    crit_s = r.F.route_stats.Route.Router.critical_path_s;
    wns_s = r.F.sta_post.Sta.Analysis.wns;
    tns_s = r.F.sta_post.Sta.Analysis.tns;
    power_w = r.F.power.Power.Model.total_w;
    bits = r.F.bitstream.Bitstream.Dagger.bits;
    stage_wall = List.map (fun (k, w, _) -> (k, w)) timers;
    stage_cpu = List.map (fun (k, _, c) -> (k, c)) timers;
    cache_hits = R.counter r.F.metrics "cache.hit";
    cache_misses = R.counter r.F.metrics "cache.miss";
    cache_stores = R.counter r.F.metrics "cache.store";
  }

let to_json (t : t) =
  let secs kvs = E.Obj (List.map (fun (k, v) -> (k, E.Float v)) kvs) in
  E.Obj
    [
      ("suite", E.String t.suite);
      ("design", E.String t.design);
      ("design_hash", E.String t.design_hash);
      ("params_fp", E.String t.params_fp);
      ("mix", E.String t.mix);
      ("seed", E.Int t.seed);
      ("jobs", E.Int t.jobs);
      ("git", E.String t.git);
      ("at", E.String t.at);
      ("luts", E.Int t.luts);
      ("clbs", E.Int t.clbs);
      ("width", E.Int t.width);
      ("wmin", match t.wmin with Some w -> E.Int w | None -> E.Null);
      ("crit_s", E.Float t.crit_s);
      ("wns_s", E.Float t.wns_s);
      ("tns_s", E.Float t.tns_s);
      ("power_w", E.Float t.power_w);
      ("bits", E.Int t.bits);
      ("stage_wall_s", secs t.stage_wall);
      ("stage_cpu_s", secs t.stage_cpu);
      ("cache_hits", E.Int t.cache_hits);
      ("cache_misses", E.Int t.cache_misses);
      ("cache_stores", E.Int t.cache_stores);
    ]

let of_json json =
  let module J = Obs.Jsonin in
  let str k =
    match Option.bind (J.member k json) J.get_string with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing string field %S" k)
  in
  let int k =
    match Option.bind (J.member k json) J.get_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "missing integer field %S" k)
  in
  let flt k =
    match Option.bind (J.member k json) J.get_float with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "missing number field %S" k)
  in
  let secs k =
    match J.member k json with
    | Some (E.Obj kvs) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (key, v) :: rest -> (
              match J.get_float v with
              | Some f -> go ((key, f) :: acc) rest
              | None -> Error (Printf.sprintf "non-number in %S" k))
        in
        go [] kvs
    | _ -> Error (Printf.sprintf "missing object field %S" k)
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* suite = str "suite" in
  let* design = str "design" in
  let* design_hash = str "design_hash" in
  let* params_fp = str "params_fp" in
  let* mix = str "mix" in
  let* seed = int "seed" in
  let* jobs = int "jobs" in
  let* git = str "git" in
  let* at = str "at" in
  let* luts = int "luts" in
  let* clbs = int "clbs" in
  let* width = int "width" in
  let* wmin =
    match J.member "wmin" json with
    | None | Some E.Null -> Ok None
    | Some v -> (
        match J.get_int v with
        | Some w -> Ok (Some w)
        | None -> Error "field \"wmin\" has the wrong type")
  in
  let* crit_s = flt "crit_s" in
  let* wns_s = flt "wns_s" in
  let* tns_s = flt "tns_s" in
  let* power_w = flt "power_w" in
  let* bits = int "bits" in
  let* stage_wall = secs "stage_wall_s" in
  let* stage_cpu = secs "stage_cpu_s" in
  let* cache_hits = int "cache_hits" in
  let* cache_misses = int "cache_misses" in
  let* cache_stores = int "cache_stores" in
  Ok
    {
      suite;
      design;
      design_hash;
      params_fp;
      mix;
      seed;
      jobs;
      git;
      at;
      luts;
      clbs;
      width;
      wmin;
      crit_s;
      wns_s;
      tns_s;
      power_w;
      bits;
      stage_wall;
      stage_cpu;
      cache_hits;
      cache_misses;
      cache_stores;
    }

let path ~dir ~suite = Filename.concat dir (suite ^ ".jsonl")

let append ~dir t =
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  let fd =
    Unix.openfile
      (path ~dir ~suite:t.suite)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let line = E.to_string (to_json t) ^ "\n" in
      (* one write: O_APPEND makes whole-line interleaving atomic for
         concurrent appenders on a local fs *)
      ignore (Unix.write_substring fd line 0 (String.length line)))

let read ~dir ~suite =
  let file = path ~dir ~suite in
  if not (Sys.file_exists file) then ([], 0)
  else begin
    let ic = open_in file in
    let records = ref [] and skipped = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match Obs.Jsonin.parse_result line with
           | Error _ -> incr skipped
           | Ok json -> (
               match of_json json with
               | Ok r -> records := r :: !records
               | Error _ -> incr skipped)
       done
     with End_of_file -> ());
    close_in ic;
    (List.rev !records, !skipped)
  end
