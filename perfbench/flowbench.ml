(* flowbench: the repository's end-to-end and per-layer benchmark.

   One workload per invocation, selected with --workload:

     route-heavy   cold min-width compiles of mult12 and alu32
     place-timing  timing-driven, 4-start compiles of the same designs at a
                   fixed width on the 2xL1+1xL2+1xL4 segment mix
     edit-serve    a seeded submit trace replayed against a fresh amdreld

   --trace 0 measures the untraced program and prints the end-to-end
   metrics; --trace 1 drives the layers one public call at a time, as
   Core.Flow does, records a span around each call and prints the
   per-layer metrics.  The last stdout line is always one JSON object
   {correct, attempted, failed, metrics}; any wrong output makes the exit
   code 1.  README.md beside this file documents the metrics. *)

module E = Obs.Emit
module J = Obs.Jsonin
module R = Obs.Registry
module F = Core.Flow
module P = Service.Protocol
module C = Service.Client

let now = Unix.gettimeofday
let out_dir = "_perfbench"

(* ---------- failures ---------- *)

let attempted = ref 0
let failed = ref 0
let mismatches = ref 0

(* a failed compile or request: counts into [failed] *)
let fail_op fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      prerr_endline ("flowbench: FAIL " ^ m))
    fmt

(* a wrong output that is not one operation (determinism, reproduction) *)
let mismatch fmt =
  Printf.ksprintf
    (fun m ->
      incr mismatches;
      prerr_endline ("flowbench: MISMATCH " ^ m))
    fmt

(* ---------- statistics ---------- *)

(* linear-interpolated quantile, [q] in [0, 1] *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

let geomean xs =
  exp (sum (List.map log xs) /. float_of_int (max 1 (List.length xs)))

(* ---------- spans ---------- *)

(* In-memory spans recorded around calls into the layers.  Kept here
   rather than in the ambient Obs.Span trace so the library's own
   fine-grained spans (per PathFinder batch, per STA level) neither
   inflate the trace nor its overhead. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int; (* 0 = root *)
    tid : int;
    t0 : float;
    mutable t1 : float;
    args : (string * E.t) list;
  }

  let on = ref false
  let epoch = now ()
  let next = ref 0
  let stack : span list ref = ref []
  let finished : span list ref = ref []

  let with_ ?(args = []) name f =
    if not !on then f ()
    else begin
      incr next;
      let parent = match !stack with s :: _ -> s.id | [] -> 0 in
      let t0 = now () in
      let s = { id = !next; name; parent; tid = 1; t0; t1 = t0; args } in
      stack := s :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.t1 <- now ();
          stack := List.tl !stack;
          finished := s :: !finished)
        f
    end

  (* an interval measured elsewhere; pipelined requests overlap, so
     they go on their own track instead of nesting *)
  let record ?(args = []) ~tid name t0 t1 =
    if !on then begin
      incr next;
      finished := { id = !next; name; parent = 0; tid; t0; t1; args } :: !finished
    end

  let dur s = s.t1 -. s.t0

  let total name =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. dur s else acc)
      0.0 !finished

  (* per name: count, total and self seconds (self = duration minus the
     time covered by direct children; children never overlap, they run
     sequentially on the caller's domain) *)
  let self_table () =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace child s.parent
            (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
      !finished;
    let rows = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self =
          dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
        in
        let n, t, st =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows s.name)
        in
        Hashtbl.replace rows s.name (n + 1, t +. dur s, st +. self))
      !finished;
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) rows []
    |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)

  let to_chrome () =
    let us t = E.Float ((t -. epoch) *. 1e6) in
    let event s =
      E.Obj
        [
          ("name", E.String s.name);
          ("ph", E.String "X");
          ("ts", us s.t0);
          ("dur", E.Float (dur s *. 1e6));
          ("pid", E.Int 1);
          ("tid", E.Int s.tid);
          ( "args",
            E.Obj (("span", E.Int s.id) :: ("parent", E.Int s.parent) :: s.args)
          );
        ]
    in
    E.Obj
      [
        ("traceEvents", E.List (List.rev_map event !finished));
        ("displayTimeUnit", E.String "ms");
      ]
end

(* per-layer work counts, summed over the traced compiles *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let count key v =
  Hashtbl.replace counts key
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts key))

let counted key = Option.value ~default:0.0 (Hashtbl.find_opt counts key)

(* ---------- workloads and inputs ---------- *)

type workload = Route_heavy | Place_timing | Edit_serve

let workloads =
  [
    ("route-heavy", Route_heavy);
    ("place-timing", Place_timing);
    ("edit-serve", Edit_serve);
  ]

let compile_designs =
  [
    ("mult12", Core.Bench_circuits.multiplier 12);
    ("alu32", Core.Bench_circuits.alu 32);
  ]

(* Reference values on the uniform fabric at the reference placement
   seed.  LUT and CLB counts do not depend on the seed or the channel, so
   they are checked on every compile. *)
let reference = [ ("mult12", (12, 477, 96)); ("alu32", (10, 294, 59)) ]

let segment_mix = "2xL1+1xL2+1xL4"

(* about 1.3x the segmented fabric's minimum width *)
let fixed_width = function "mult12" -> 16 | _ -> 14

let mixed_params =
  lazy
    (Fpga_arch.Params.validate
       {
         Fpga_arch.Params.amdrel with
         Fpga_arch.Params.segments =
           Fpga_arch.Params.segments_of_string segment_mix;
       })

(* cache off, one domain; edit-serve's in-process reference compiles use
   the daemon's per-request config, which is this one *)
let compile_config workload name seed =
  let base =
    { F.default_config with F.seed; jobs = Some 1; cache_dir = None }
  in
  match workload with
  | Place_timing ->
      {
        base with
        F.params = Lazy.force mixed_params;
        timing_driven = true;
        place_starts = 4;
        search_min_width = false;
        route_width = fixed_width name;
      }
  | Route_heavy | Edit_serve -> base

(* The placement alone moves a set's compile time by up to +-20 %, more
   than the bound on compile_s.  So the timed input is fixed: two sets in
   three (k mod 3 <> 1) place with the reference seed (whose Wmin is
   checked), and only their times make the timing metrics, which then
   compare code rather than placements.  The others place with seeds
   drawn from --seed; with the reference set they give the QoR metrics
   and the work counters. *)
let reference_pseed = 1

let set_pseed seed k =
  if k mod 3 <> 1 then reference_pseed
  else 2 + Random.State.bits (Random.State.make [| 0x91ace; seed; k |])

(* sets always run, and the QoR metrics average over the distinct
   placements among exactly these: route-heavy the reference and one
   seeded placement, place-timing the reference and two *)
let min_sets = function Route_heavy -> 3 | Place_timing -> 5 | Edit_serve -> 3

(* edit-serve designs: the 15-circuit suite plus small size variants *)
let design_pool =
  let open Core.Bench_circuits in
  suite
  @ List.concat_map
      (fun (base, gen, sizes) ->
        List.map (fun n -> (Printf.sprintf "%s%d" base n, gen n)) sizes)
      [
        ("counter", counter, [ 4; 6; 10; 12 ]);
        ("shiftreg", shift_register, [ 8; 12 ]);
        ("lfsr", lfsr, [ 8; 10; 16 ]);
        ("parity", parity, [ 8; 12 ]);
        ("gray", gray_counter, [ 4; 6; 10 ]);
        ("accum", accumulator, [ 6; 8 ]);
        ("pwm", pwm, [ 4; 6 ]);
        ("prienc", priority_encoder, [ 4 ]);
        ("alu", alu, [ 4; 6 ]);
        ("gen_adder", gen_adder, [ 4; 6 ]);
        ("datapath", datapath, [ 4 ]);
      ]

type kind = New | Reseed | Edit | Repeat

type request = { design : string; src : string; seed : int; kind : kind }

(* The seeded submit trace.  Every pool design arrives once as a new
   design (every stage misses) and is followed, in a seeded order
   interleaved with the other designs, by re-seeds (place onward misses),
   comment edits (only synth misses) and exact repeats of an earlier
   request (every stage hits).  The per-design counts are fixed — one
   more re-seed for every third design, one more edit and repeat for the
   others — so the mix is exactly 15/20/25/40 %.  The n-th re-seed of a
   design uses placement seed n+1 and its n-th edit appends comment n, so
   every trace carries the same compiles; the seed picks their order and
   which earlier request each repeat repeats. *)
let gen_trace seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let shuffle l =
    List.map (fun x -> (Random.State.bits rng, x)) l
    |> List.sort compare |> List.map snd
  in
  let queues =
    Array.of_list
      (List.mapi
         (fun k (design, src) ->
           let extra = k mod 3 = 0 in
           let follow =
             [ Reseed; Edit; Repeat; Repeat ]
             @ if extra then [ Reseed ] else [ Edit; Repeat ]
           in
           ({ design; src; seed = 1; kind = New }, ref (shuffle follow), ref []))
         design_pool)
  in
  let sent = ref [] in
  let live () =
    List.filter (fun (_, q, sent_d) -> !sent_d = [] || !q <> []) (Array.to_list queues)
  in
  let rec loop () =
    match live () with
    | [] -> ()
    | l ->
        let base, q, sent_d = List.nth l (Random.State.int rng (List.length l)) in
        let r =
          match !sent_d with
          | [] -> base
          | prev -> (
              let kind = List.hd !q in
              q := List.tl !q;
              (* the n-th re-seed or edit of a design is the same in
                 every trace, so only the order depends on the seed *)
              let nth = 1 + List.length (List.filter (fun r -> r.kind = kind) prev) in
              match kind with
              | Reseed -> { base with seed = 1 + nth; kind }
              | Edit ->
                  { base with src = Printf.sprintf "%s\n-- edit %d\n" base.src nth; kind }
              | New | Repeat ->
                  { (List.nth prev (Random.State.int rng (List.length prev))) with kind })
        in
        sent_d := r :: !sent_d;
        sent := r :: !sent;
        loop ()
  in
  loop ();
  Array.of_list (List.rev !sent)

(* ---------- process helpers ---------- *)

let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* peak resident set of a process in MB, from /proc *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> nan
  | Some s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
          | kb -> float_of_int kb /. 1024.0
          | exception _ -> acc)
        nan
        (String.split_on_char '\n' s)

(* user + system CPU seconds of a live process (utime, stime fields) *)
let process_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> nan
  | Some s -> (
      let rest =
        String.sub s (String.rindex s ')' + 2)
          (String.length s - String.rindex s ')' - 2)
      in
      match String.split_on_char ' ' rest with
      | fields when List.length fields > 12 ->
          (float_of_string (List.nth fields 11)
          +. float_of_string (List.nth fields 12))
          /. 100.0
      | _ -> nan)

let wait_exit ?(timeout = 20.0) pid =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* ---------- results ---------- *)

type qor = {
  q_width : int; (* minimum width, or the fixed width when not searched *)
  q_crit_ns : float;
  q_power_mw : float;
  q_bits : int;
  q_luts : int;
  q_clbs : int;
  q_bytes : Digest.t;
}

let qor_of_result (r : F.result) =
  let rs = r.F.route_stats in
  {
    q_width =
      Option.value rs.Route.Router.minimum_width
        ~default:rs.Route.Router.channel_width;
    q_crit_ns = rs.Route.Router.critical_path_s *. 1e9;
    q_power_mw = r.F.power.Power.Model.total_w *. 1e3;
    q_bits = r.F.bitstream.Bitstream.Dagger.bits;
    q_luts = r.F.mapped_stats.Netlist.Logic.n_gates;
    q_clbs = r.F.n_clusters;
    q_bytes = Digest.string r.F.bitstream.Bitstream.Dagger.bytes;
  }

let metric_int snap key =
  match R.find snap key with
  | Some (R.Counter n) -> n
  | Some (R.Gauge g) -> int_of_float g
  | _ -> 0

(* the work counters that repeat exactly for one seed *)
let flow_counter_keys =
  [
    "vpr-route.heap-pops";
    "vpr-route.iterations";
    "vpr-route.nets-rerouted";
    "place.moves";
    "sta.incr.nodes-touched";
    "route.width-probes";
  ]

let flow_counters (r : F.result) =
  List.map (fun k -> (k, metric_int r.F.metrics k)) flow_counter_keys
  @ [ ("rrgraph.nodes", Route.Rrgraph.node_count r.F.routed.Route.Router.graph) ]

let compare_counters ~what a b =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some v' when v' = v -> ()
      | Some v' -> mismatch "%s: counter %s diverged: %d vs %d" what k v v'
      | None -> mismatch "%s: counter %s missing" what k)
    a

(* a finished compile against the independent checks: DAGGER verify,
   fabric emulation and the reference LUT/CLB/Wmin values *)
let check_compile workload ~pseed name ~verified q =
  let errs =
    (if verified then []
     else [ "bitstream verify or fabric emulation failed" ])
    @
    match List.assoc_opt name reference with
    | None -> []
    | Some (wmin, luts, clbs) ->
        (if q.q_luts <> luts then [ Printf.sprintf "LUTs %d, want %d" q.q_luts luts ]
         else [])
        @ (if q.q_clbs <> clbs then
             [ Printf.sprintf "CLBs %d, want %d" q.q_clbs clbs ]
           else [])
        @
        if workload = Route_heavy && pseed = reference_pseed && q.q_width <> wmin
        then
          [ Printf.sprintf "Wmin %d, want %d" q.q_width wmin ]
        else []
  in
  match errs with
  | [] -> true
  | _ ->
      fail_op "%s seed %d: %s" name pseed (String.concat "; " errs);
      false

let verified (r : F.result) = r.F.bitstream_verified && r.F.fabric_verified

(* one compile: its wall and CPU seconds and result, or the exception *)
let timed_compile workload ~pseed (name, vhdl) =
  let config = compile_config workload name pseed in
  let t0 = now () and c0 = Sys.time () in
  match F.run_vhdl ~config vhdl with
  | r -> Ok (now () -. t0, Sys.time () -. c0, r)
  | exception e -> Error (Printexc.to_string e)

let compile_untraced workload ~pseed (name, vhdl) =
  incr attempted;
  match timed_compile workload ~pseed (name, vhdl) with
  | Ok (wall, cpu, r) ->
      if check_compile workload ~pseed name ~verified:(verified r) (qor_of_result r)
      then Some (wall, cpu, r)
      else None
  | Error e ->
      fail_op "%s seed %d: %s" name pseed e;
      None

(* One set, as the child process of [compile_set] runs it: each design's
   wall and CPU seconds, QoR, work counters and verify flag, or the
   exception it raised. *)
type set_rows =
  (string * (float * float * qor * (string * int) list * bool, string) result) list

let set_rows workload ~pseed : set_rows =
  List.map
    (fun d ->
      ( fst d,
        Result.map
          (fun (wall, cpu, r) -> (wall, cpu, qor_of_result r, flow_counters r, verified r))
          (timed_compile workload ~pseed d) ))
    compile_designs

(* Set [k] in a fresh process of this benchmark (--set K), returned with
   that process's peak RSS; [None] when the process failed.  A fresh
   exec, not a fork, starts every set from the same heap: with layout
   randomisation off (see run.py) a set's time then does not depend on
   what ran before it, and each set has its own peak RSS, as a one-shot
   compile of the CLI has.  The parent checks the outcomes. *)
let compile_set ~workload_name ~seed k =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close wr)
      (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--set"; string_of_int k; "--workload";
             workload_name; "--seed"; string_of_int seed |]
          Unix.stdin wr Unix.stderr)
  in
  let ic = Unix.in_channel_of_descr rd in
  let v : (set_rows * float) option =
    try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
  in
  close_in ic;
  if wait_exit pid then v else None

(* ---------- the traced layer pipeline ---------- *)

(* Core.Flow.run_vhdl with the cache off, one public layer call at a
   time, each inside a span.  Returns the result figures plus the pieces
   the measurement-only calls need. *)
let traced_compile (config : F.config) vhdl =
  let p = config.F.params in
  let obs = R.create () in
  let net =
    Trace.with_ "synth" (fun () ->
        let file = Netlist.Vhdl_parser.file_of_string vhdl in
        let top = List.nth file (List.length file - 1) in
        Synth.Diviner.synthesize_ast ~library:file top)
  in
  count "synth.gates" (float_of_int (Netlist.Logic.stats net).Netlist.Logic.n_gates);
  let net2 =
    Trace.with_ "edif" (fun () ->
        let edif = Netlist.Edif.of_logic net in
        ignore (Netlist.Edif.to_string edif);
        Netlist.Edif.to_logic (Synth.Druid.normalize edif))
  in
  let mapped, _ =
    Trace.with_ "techmap" (fun () ->
        Techmap.Mapper.map_network ~k:p.Fpga_arch.Params.k
          ~verify:config.F.verify_mapping net2)
  in
  count "techmap.luts"
    (float_of_int (Netlist.Logic.stats mapped).Netlist.Logic.n_gates);
  count "techmap.depth" (float_of_int (Netlist.Logic.depth mapped));
  let packing =
    Trace.with_ "pack" (fun () ->
        Pack.Cluster.pack ~n:p.Fpga_arch.Params.n ~i:p.Fpga_arch.Params.i
          mapped)
  in
  count "pack.clbs" (float_of_int (Pack.Cluster.cluster_count packing));
  let constraints =
    { Sta.Analysis.default_constraints with
      Sta.Analysis.period = config.F.clock_period }
  in
  let jobs = config.F.jobs in
  let problem, sta_graph, anneal =
    Trace.with_ "place" (fun () ->
        let problem = Place.Problem.build ~io_rat:config.F.io_rat packing in
        let sta_graph = Sta.Graph.build problem in
        let provider_at coords =
          Sta.Delays.of_placement ~producer:sta_graph.Sta.Graph.block_of
            problem ~coords
        in
        let sta_at coords =
          Sta.Analysis.run ~constraints ?jobs ~obs sta_graph (provider_at coords)
        in
        let make_incremental () =
          let state = ref None and calls = ref 0 in
          fun ~coords ~changed_blocks ->
            let k = config.F.sta_full_refresh_every in
            let a =
              match !state with
              | Some prev when k > 0 && !calls mod k <> 0 ->
                  Sta.Analysis.update ?jobs ~obs ~changed_blocks prev
                    (provider_at coords)
              | _ -> sta_at coords
            in
            incr calls;
            state := Some a;
            Sta.Analysis.to_td a
        in
        let timing =
          if config.F.timing_driven then
            Some
              (Place.Anneal.default_timing
                 ?make_incremental:
                   (if config.F.incremental_sta then Some make_incremental
                    else None)
                 ~analyze:(fun ~coords -> Sta.Analysis.to_td (sta_at coords))
                 ())
          else None
        in
        ( problem,
          sta_graph,
          Place.Anneal.run_multistart
            ~options:{ Place.Anneal.seed = config.F.seed; inner_num = 1.0 }
            ?timing ?jobs ~starts:config.F.place_starts
            ?prune_margin:config.F.place_prune_margin
            ~prune_interval:config.F.place_prune_interval ~obs problem ))
  in
  let placement = anneal.Place.Anneal.placement in
  count "place.moves" (float_of_int anneal.Place.Anneal.moves);
  count "place.accepted" (float_of_int anneal.Place.Anneal.accepted);
  count "place.final_cost" anneal.Place.Anneal.final_cost;
  let timing =
    if config.F.timing_driven then Some Place.Td_timing.default_model else None
  in
  let table = Hashtbl.create 16 in
  let routed =
    if config.F.search_min_width then
      Trace.with_ "route.search" (fun () ->
          Route.Router.route_min_width ?timing ~table ?jobs ~obs p placement)
    else
      Trace.with_ "route.fixed" (fun () ->
          Route.Router.route_fixed ?timing ?jobs ~obs p placement
            ~width:config.F.route_width)
  in
  let sta_post =
    Trace.with_ "sta" (fun () ->
        let g = Sta.Graph.build routed.Route.Router.problem in
        let provider =
          Sta.Delays.of_placement ~producer:g.Sta.Graph.block_of
            routed.Route.Router.problem
            ~coords:(Place.Placement.coords routed.Route.Router.placement)
        in
        ignore (Sta.Analysis.run ~constraints ?jobs ~obs g provider);
        Route.Router.sta ~constraints ~graph:g ~obs routed)
  in
  let rs = Route.Router.stats ~sta:sta_post routed in
  let power =
    Trace.with_ "power" (fun () ->
        Power.Model.estimate ~options:config.F.power_options routed)
  in
  let bitstream =
    Trace.with_ "bitstream.generate" (fun () -> Bitstream.Dagger.generate routed)
  in
  let bytes = bitstream.Bitstream.Dagger.bytes in
  let verified =
    Trace.with_ "bitstream.verify" (fun () ->
        Bitstream.Dagger.verify routed bytes = Bitstream.Dagger.Verified)
  in
  let emulated =
    Trace.with_ "bitstream.emulate" (fun () ->
        Bitstream.Dagger.verify_functional routed bytes)
  in
  count "bitstream.bytes" (float_of_int (String.length bytes));
  count "route.iterations" (float_of_int rs.Route.Router.router_iterations);
  count "route.heap_pops" (float_of_int rs.Route.Router.heap_pops);
  count "route.nets_rerouted" (float_of_int rs.Route.Router.nets_rerouted);
  let snap = R.snapshot obs in
  let qor =
    {
      q_width =
        Option.value rs.Route.Router.minimum_width
          ~default:rs.Route.Router.channel_width;
      q_crit_ns = rs.Route.Router.critical_path_s *. 1e9;
      q_power_mw = power.Power.Model.total_w *. 1e3;
      q_bits = bitstream.Bitstream.Dagger.bits;
      q_luts = (Netlist.Logic.stats mapped).Netlist.Logic.n_gates;
      q_clbs = Pack.Cluster.cluster_count packing;
      q_bytes = Digest.string bytes;
    }
  in
  let counters =
    [
      ("vpr-route.heap-pops", rs.Route.Router.heap_pops);
      ("vpr-route.iterations", rs.Route.Router.router_iterations);
      ("vpr-route.nets-rerouted", rs.Route.Router.nets_rerouted);
      ("place.moves", anneal.Place.Anneal.moves);
      ("sta.incr.nodes-touched", metric_int snap "sta.incr.nodes-touched");
      ( "route.width-probes",
        if config.F.search_min_width then Hashtbl.length table else 0 );
      ("rrgraph.nodes", Route.Rrgraph.node_count routed.Route.Router.graph);
    ]
  in
  (qor, counters, verified && emulated, (problem, sta_graph, routed, table))

(* Measurement-only calls, outside the compile span and excluded from
   the trace overhead: one RR-graph build, the routing mode the flow did
   not run (the min-width search or one fixed-width routing), the failing
   probe at Wmin-1, and full vs incremental STA after a fixed block
   move. *)
let measure (config : F.config) (problem, sta_graph, routed, table) =
  let p = config.F.params in
  let jobs = config.F.jobs in
  let placement = routed.Route.Router.placement in
  let width = routed.Route.Router.width in
  let timing =
    if config.F.timing_driven then Some Place.Td_timing.default_model else None
  in
  let g =
    Trace.with_ "rrgraph.build" (fun () ->
        Route.Rrgraph.build p problem.Place.Problem.grid placement ~width)
  in
  count "rrgraph.nodes" (float_of_int (Route.Rrgraph.node_count g));
  count "rrgraph.edges"
    (float_of_int
       (Array.fold_left (fun a e -> a + Array.length e) 0 g.Route.Rrgraph.edges));
  let fixed_iterations, wmin, probes =
    if config.F.search_min_width then begin
      let fixed =
        Trace.with_ "route.fixed" (fun () ->
            Route.Router.route_fixed ~max_iterations:120 ?timing ?jobs p
              placement ~width)
      in
      ( fixed.Route.Router.result.Route.Pathfinder.iterations,
        Option.value routed.Route.Router.min_width ~default:width,
        Hashtbl.length table )
    end
    else begin
      let table = Hashtbl.create 16 in
      let searched =
        Trace.with_ "route.search" (fun () ->
            Route.Router.route_min_width ?timing ~table ?jobs p placement)
      in
      ( routed.Route.Router.result.Route.Pathfinder.iterations,
        Option.value searched.Route.Router.min_width ~default:width,
        Hashtbl.length table )
    end
  in
  count "route.fixed_iterations" (float_of_int fixed_iterations);
  count "route.width_probes" (float_of_int probes);
  if wmin > 1 then
    Trace.with_ "route.fail_probe" (fun () ->
        match Route.Router.try_width ?jobs p placement (wmin - 1) with
        | None -> ()
        | Some _ -> mismatch "width %d routed below Wmin %d" (wmin - 1) wmin);
  (* rotate the locations of 8 evenly spaced blocks; compare a full
     analysis of the moved placement with an update from the unmoved one *)
  let constraints =
    { Sta.Analysis.default_constraints with
      Sta.Analysis.period = config.F.clock_period }
  in
  let coords = Place.Placement.coords placement in
  let nb = Array.length problem.Place.Problem.blocks in
  let moved = Array.of_list (List.sort_uniq compare (List.init 8 (fun k -> k * nb / 8))) in
  let moved_coords b =
    let rec find j =
      if j = Array.length moved then coords b
      else if moved.(j) = b then coords moved.((j + 1) mod Array.length moved)
      else find (j + 1)
    in
    find 0
  in
  let provider c =
    Sta.Delays.of_placement ~producer:sta_graph.Sta.Graph.block_of problem
      ~coords:c
  in
  let moved_p = provider moved_coords in
  for _ = 1 to 10 do
    let base = Sta.Analysis.run ~constraints ?jobs sta_graph (provider coords) in
    let full =
      Trace.with_ "sta.run" (fun () ->
          Sta.Analysis.run ~constraints ?jobs sta_graph moved_p)
    in
    let upd =
      Trace.with_ "sta.update" (fun () ->
          Sta.Analysis.update ?jobs ~changed_blocks:(Array.to_list moved) base
            moved_p)
    in
    if upd.Sta.Analysis.dmax <> full.Sta.Analysis.dmax then
      mismatch "incremental STA dmax differs from a full run"
  done

(* ---------- the compile service ---------- *)

type pass = {
  setup_s : float;
  wall_s : float;
  daemon_cpu_s : float;
  daemon_rss_mb : float;
  latencies_ms : float list;
  responses : (int * Digest.t * E.t) list; (* trace index, bitstream, result *)
  cache_hit : int;
  cache_miss : int;
  queue_wait_ms : float; (* mean per request, daemon-side *)
  compile_ms : float;
}

let member_path path json =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some json) path

let json_int path json =
  Option.value ~default:0 (Option.bind (member_path path json) J.get_int)

let json_float path json =
  Option.value ~default:nan (Option.bind (member_path path json) J.get_float)

(* mean milliseconds per interval of a daemon timer *)
let timer_mean_ms metrics key =
  let wall = json_float [ key; "wall_s" ] metrics in
  let n = json_int [ key; "intervals" ] metrics in
  if n = 0 then 0.0 else wall *. 1e3 /. float_of_int n

(* One replay of [trace] against a freshly spawned daemon with an empty
   cache.  One connection keeps two submits outstanding (closed loop),
   matching responses by id; a request waits while an earlier request of
   the same design is still in flight, so which stages hit the cache —
   and with it every cache counter — does not depend on timing. *)
let serve_pass ~daemon ~index trace =
  let t_setup = now () in
  let dir = Printf.sprintf "%s/serve-%d-%d" out_dir (Unix.getpid ()) index in
  rm_rf dir;
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process daemon
          [|
            daemon; "--socket"; sock; "--workers"; "2"; "-j"; "2";
            "--cache-dir"; Filename.concat dir "cache"; "--quiet";
          |]
          devnull devnull Unix.stderr)
  in
  let alive = ref true in
  Fun.protect
    ~finally:(fun () ->
      if !alive then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (wait_exit pid)
      end;
      rm_rf dir)
    (fun () ->
      let deadline = now () +. 30.0 in
      let rec connect () =
        match C.connect sock with
        | c -> c
        | exception Unix.Unix_error _ when now () < deadline ->
            Unix.sleepf 0.002;
            connect ()
      in
      let conn = connect () in
      let setup_s = now () -. t_setup in
      let cpu0 = process_cpu_s pid in
      let n = Array.length trace in
      let sent_at = Array.make n 0.0 and in_flight = Hashtbl.create 4 in
      let latencies = ref [] and responses = ref [] in
      let next = ref 0 and done_ = ref 0 in
      let t0 = now () in
      let blocked i =
        Hashtbl.fold (fun _ j b -> b || trace.(j).design = trace.(i).design) in_flight false
      in
      while !done_ < n do
        while !next < n && Hashtbl.length in_flight < 2 && not (blocked !next) do
          let r = trace.(!next) in
          sent_at.(!next) <- now ();
          C.send conn (P.Submit { P.default_submit with P.vhdl = r.src; seed = r.seed });
          (* the daemon numbers submits from 1 in arrival order *)
          Hashtbl.replace in_flight (!next + 1) !next;
          incr next
        done;
        let resp = C.recv conn in
        let t = now () in
        match Option.bind (J.member "id" resp) J.get_int with
        | Some id when Hashtbl.mem in_flight id ->
            let i = Hashtbl.find in_flight id in
            Hashtbl.remove in_flight id;
            incr done_;
            incr attempted;
            latencies := ((t -. sent_at.(i)) *. 1e3) :: !latencies;
            Trace.record ~tid:2 ~args:[ ("design", E.String trace.(i).design) ]
              "service.request" sent_at.(i) t;
            let bytes =
              match Option.bind (J.member "bitstream_hex" resp) J.get_string with
              | Some hex -> Result.to_option (P.hex_decode hex)
              | None -> None
            in
            (match (C.ok resp, bytes, J.member "result" resp) with
            | true, Some b, Some result
              when Option.bind (J.member "verified" result) J.get_bool = Some true ->
                responses := (i, Digest.string b, result) :: !responses
            | _ -> fail_op "request %d (%s): %s" i trace.(i).design (C.error_message resp))
        | _ ->
            (* unmatched: backpressure or a protocol error *)
            incr done_;
            incr attempted;
            fail_op "unmatched response: %s" (C.error_message resp)
      done;
      let wall_s = now () -. t0 in
      let daemon_cpu_s = process_cpu_s pid -. cpu0 in
      let daemon_rss_mb = peak_rss_mb (string_of_int pid) in
      let metrics =
        Option.value ~default:E.Null (J.member "metrics" (C.request conn P.Metrics))
      in
      ignore (C.request conn P.Shutdown);
      C.close conn;
      alive := false;
      if not (wait_exit pid) then fail_op "daemon did not drain and exit cleanly";
      {
        setup_s;
        wall_s;
        daemon_cpu_s;
        daemon_rss_mb;
        latencies_ms = !latencies;
        responses = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !responses;
        cache_hit = json_int [ "cache.hit"; "value" ] metrics;
        cache_miss = json_int [ "cache.miss"; "value" ] metrics;
        queue_wait_ms = timer_mean_ms metrics "service.queue-wait";
        compile_ms = timer_mean_ms metrics "service.compile";
      })

(* a counter of the compile records, summed over a pass's responses *)
let response_sum p key =
  List.fold_left
    (fun acc (_, _, result) -> acc + json_int [ "metrics"; key; "value" ] result)
    0 p.responses

let pass_counters p =
  [
    ("cache.hit", p.cache_hit);
    ("cache.miss", p.cache_miss);
    ("cache.store", response_sum p "cache.store");
    ("responses", List.length p.responses);
    ("vpr-route.heap-pops", response_sum p "vpr-route.heap-pops");
    ("place.moves", response_sum p "place.moves");
  ]

(* Each response's bitstream against an in-process, cache-off compile of
   the same source and seed. *)
let check_responses trace passes =
  let refs = Hashtbl.create 256 in
  let reference r =
    match Hashtbl.find_opt refs (r.src, r.seed) with
    | Some d -> d
    | None ->
        let d =
          match
            F.run_vhdl ~config:(compile_config Edit_serve r.design r.seed) r.src
          with
          | res -> Some (Digest.string res.F.bitstream.Bitstream.Dagger.bytes)
          | exception e ->
              mismatch "reference compile of %s: %s" r.design (Printexc.to_string e);
              None
        in
        Hashtbl.replace refs (r.src, r.seed) d;
        d
  in
  List.iter
    (fun p ->
      List.iter
        (fun (i, d, _) ->
          match reference trace.(i) with
          | Some d' when d' = d -> ()
          | _ ->
              fail_op "request %d (%s seed %d): bitstream differs from the \
                       in-process compile" i trace.(i).design trace.(i).seed)
        p.responses)
    passes

let pass_qor p =
  let results = List.map (fun (_, _, r) -> r) p.responses in
  ( List.fold_left (fun a r -> a + json_int [ "min_width" ] r) 0 results,
    geomean (List.map (fun r -> json_float [ "critical_path_s" ] r *. 1e9) results),
    geomean (List.map (fun r -> json_float [ "power_w" ] r *. 1e3) results),
    List.fold_left (fun a r -> a + json_int [ "bits" ] r) 0 results )

(* ---------- set-up ---------- *)

(* what a run derives from its seed before the first compile; the design
   sources themselves are generated when the module initialises *)
let gen_inputs workload seed =
  match workload with
  | Edit_serve -> ignore (gen_trace seed)
  | Route_heavy | Place_timing ->
      for k = 0 to min_sets workload - 1 do
        List.iter
          (fun (name, _) -> ignore (compile_config workload name (set_pseed seed k)))
          compile_designs
      done

(* Set-up time of a compile workload: a fresh process of this benchmark
   that initialises every module and generates the inputs, then exits.
   Measured 5 times; the median is reported. *)
let setup_times ~workload_name ~seed =
  List.init 5 (fun _ ->
      let t0 = now () in
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--setup-only"; "--workload"; workload_name;
             "--seed"; string_of_int seed |]
          Unix.stdin Unix.stderr Unix.stderr
      in
      if not (wait_exit pid) then fail_op "set-up process failed";
      now () -. t0)

(* ---------- output ---------- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let correct = !failed = 0 && !mismatches = 0 in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           let v = if Float.is_finite v then v else 0.0 in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed body;
  if not correct then exit 1

let print_counters ~name counters =
  Printf.printf "counters %s %s\n" name
    (E.to_string (E.Obj (List.map (fun (k, v) -> (k, E.Int v)) counters)))

(* Run-to-run determinism: the counters of this seed are kept under
   _perfbench/ keyed by the benchmark binary's digest; a later run of the
   same binary and seed must reproduce them exactly. *)
let check_against_previous ~key counters =
  let dir = Filename.concat out_dir "counters" in
  mkdir_p dir;
  let path =
    Printf.sprintf "%s/%s-%s.json" dir key
      (Digest.to_hex (Digest.file Sys.executable_name))
  in
  let json = E.Obj (List.map (fun (k, v) -> (k, E.Int v)) counters) in
  match Option.bind (read_file path) J.parse_opt with
  | Some (E.Obj prev) ->
      compare_counters ~what:("previous run of " ^ key)
        (List.map (fun (k, v) -> (k, Option.value ~default:(-1) (J.get_int v))) prev)
        counters
  | _ -> write_file path (E.to_string json)

let layer_metrics ~overhead_frac ~probe =
  let t = Trace.total and c = counted in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let latency = mean probe.latencies_ms in
  let lookups = probe.cache_hit + probe.cache_miss in
  [
    ("synth.s", "s", t "synth");
    ("synth.gates", "count", c "synth.gates");
    ("edif.s", "s", t "edif");
    ("techmap.s", "s", t "techmap");
    ("techmap.luts", "count", c "techmap.luts");
    ("techmap.depth", "count", c "techmap.depth");
    ("pack.s", "s", t "pack");
    ("pack.clbs", "count", c "pack.clbs");
    ("place.s", "s", t "place");
    ("place.moves", "count", c "place.moves");
    ("place.accepted", "count", c "place.accepted");
    ("place.move_us", "us", ratio (t "place" *. 1e6) (c "place.moves"));
    ("place.final_cost", "cost", c "place.final_cost");
    ("sta.run_s", "s", t "sta.run" /. 10.0);
    ("sta.update_s", "s", t "sta.update" /. 10.0);
    ("sta.update_per_run", "ratio", ratio (t "sta.update") (t "sta.run"));
    ("rrgraph.build_s", "s", t "rrgraph.build");
    ("rrgraph.nodes", "count", c "rrgraph.nodes");
    ("rrgraph.edges", "count", c "rrgraph.edges");
    ("route.search_s", "s", t "route.search");
    ("route.width_probes", "count", c "route.width_probes");
    ("route.fail_probe_s", "s", t "route.fail_probe");
    ("route.search_per_fixed", "ratio", ratio (t "route.search") (t "route.fixed"));
    ("route.fixed_s", "s", t "route.fixed");
    ("route.iterations", "count", c "route.iterations");
    ("route.iter_s", "s", ratio (t "route.fixed") (c "route.fixed_iterations"));
    ("route.heap_pops", "count", c "route.heap_pops");
    ("route.nets_rerouted", "count", c "route.nets_rerouted");
    ("power.s", "s", t "power");
    ("bitstream.generate_s", "s", t "bitstream.generate");
    ("bitstream.verify_s", "s", t "bitstream.verify");
    ("bitstream.emulate_s", "s", t "bitstream.emulate");
    ("bitstream.bytes", "bytes", c "bitstream.bytes");
    ("cache.hit", "count", float_of_int probe.cache_hit);
    ("cache.miss", "count", float_of_int probe.cache_miss);
    ("cache.store", "count", float_of_int (response_sum probe "cache.store"));
    ("cache.bytes", "bytes", float_of_int (response_sum probe "cache.bytes"));
    ("cache.hit_frac", "ratio", ratio (float_of_int probe.cache_hit) (float_of_int lookups));
    ("service.queue_wait_ms", "ms", probe.queue_wait_ms);
    ("service.compile_ms", "ms", probe.compile_ms);
    ("service.overhead_ms", "ms", latency -. probe.queue_wait_ms -. probe.compile_ms);
    ("trace_overhead_frac", "ratio", overhead_frac);
  ]

(* ---------- runs ---------- *)

(* Runs [f 0], [f 1], ... at least [min] times, then stops at the call
   boundary nearest [seconds] (judged by the mean call so far). *)
let repeat_for ~min ~seconds f =
  let t_start = now () in
  let rec go i acc =
    let elapsed = now () -. t_start in
    if i >= min && elapsed +. (elapsed /. float_of_int i /. 2.0) > seconds then
      List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* trace 0 on route-heavy / place-timing: design sets until the time is
   up; see [set_pseed] for which sets are timed *)
let run_compiles workload ~name ~seed ~seconds =
  let setups = setup_times ~workload_name:name ~seed in
  let rss = ref [] in
  let sets =
    repeat_for ~min:(min_sets workload) ~seconds (fun k ->
        let pseed = set_pseed seed k in
        let rows, set_rss =
          match compile_set ~workload_name:name ~seed k with
          | Some (rows, rss) -> (rows, rss)
          | None ->
              ( List.map (fun (name, _) -> (name, Error "set process died")) compile_designs,
                nan )
        in
        let set =
          List.filter_map
            (fun (name, outcome) ->
              incr attempted;
              match outcome with
              | Error e ->
                  fail_op "%s seed %d: %s" name pseed e;
                  None
              | Ok (wall, cpu, q, counters, verified) ->
                  if check_compile workload ~pseed name ~verified q then
                    Some (name, wall, cpu, q, counters)
                  else None)
            rows
        in
        if pseed = reference_pseed then rss := set_rss :: !rss;
        Printf.eprintf
          "flowbench: set %d (placement seed %d): %.3f s, %.3f cpu s, %.1f MB\n%!" k
          pseed
          (sum (List.map (fun (_, w, _, _, _) -> w) set))
          (sum (List.map (fun (_, _, c, _, _) -> c) set))
          set_rss;
        (k, pseed, set))
  in
  let timed = List.filter (fun (_, p, _) -> p = reference_pseed) sets in
  let set_total f = List.map (fun (_, _, l) -> sum (List.map f l)) timed in
  let walls = set_total (fun (_, w, _, _, _) -> w) in
  let cpus = set_total (fun (_, _, c, _, _) -> c) in
  let min_run = List.filter (fun (k, _, _) -> k < min_sets workload) sets in
  (* each placement once: the reference set, then the seeded ones *)
  let qor_sets = List.filter (fun (k, p, _) -> k = 0 || p <> reference_pseed) min_run in
  let qors = List.concat_map (fun (_, _, l) -> List.map (fun (_, _, _, q, _) -> q) l) qor_sets in
  let per_set f =
    float_of_int (List.fold_left (fun a q -> a + f q) 0 qors)
    /. float_of_int (List.length qor_sets)
  in
  (* a request is one design compile; the percentiles are taken over the
     per-design medians, so the two-design mix cannot make them jump
     from one design's latency to the other's *)
  let design_ms =
    List.map
      (fun (d, _) ->
        median
          (List.concat_map
             (fun (_, _, l) ->
               List.filter_map
                 (fun (d', w, _, _, _) -> if d' = d then Some (w *. 1e3) else None)
                 l)
             timed))
      compile_designs
  in
  let set_counters ~prefix (_, _, l) =
    List.concat_map
      (fun (d, _, _, _, cs) ->
        List.map (fun (key, v) -> (Printf.sprintf "%s%s.%s" prefix d key, v)) cs)
      l
  in
  (* the reference sets repeat one input, so their counters must agree *)
  (match timed with
   | first :: rest ->
       List.iter
         (fun ((k, _, _) as s) ->
           compare_counters ~what:(Printf.sprintf "reference set %d vs set 0" k)
             (set_counters ~prefix:"" first) (set_counters ~prefix:"" s))
         rest
   | [] -> ());
  let counters =
    List.concat_map
      (fun ((k, _, _) as s) -> set_counters ~prefix:(Printf.sprintf "set%d." k) s)
      qor_sets
  in
  print_counters ~name counters;
  check_against_previous ~key:(Printf.sprintf "%s-seed%d" name seed) counters;
  [
    ("compile_s", "s", median walls);
    ("compile_cpu_s", "s", median cpus);
    ("wmin_sum", "tracks", per_set (fun q -> q.q_width));
    ("crit_ns_geomean", "ns", geomean (List.map (fun q -> q.q_crit_ns) qors));
    ("power_mw_geomean", "mW", geomean (List.map (fun q -> q.q_power_mw) qors));
    ("bitstream_bits", "bits", per_set (fun q -> q.q_bits));
    ("peak_rss_mb", "MB", median !rss);
    ("setup_s", "s", median setups);
    ("request_ms.p50", "ms", median design_ms);
    ("request_ms.p90", "ms", quantile 0.9 design_ms);
    ( "throughput_rps",
      "1/s",
      float_of_int (List.length compile_designs) /. median walls );
  ]

(* trace 0 on edit-serve: fresh-daemon replays of the trace until the
   time is up *)
let run_serve ~seed ~seconds ~daemon =
  let passes =
    repeat_for ~min:(min_sets Edit_serve) ~seconds (fun i ->
        let t0 = now () in
        let trace = gen_trace seed in
        let gen_s = now () -. t0 in
        let p = serve_pass ~daemon ~index:i trace in
        Printf.eprintf "flowbench: pass %d: %.3f s, p50 %.2f ms, daemon %.2f cpu s\n%!" i
          p.wall_s (median p.latencies_ms) p.daemon_cpu_s;
        { p with setup_s = p.setup_s +. gen_s })
  in
  let trace = gen_trace seed in
  check_responses trace passes;
  let first = List.hd passes in
  List.iteri
    (fun k p ->
      if k > 0 then
        compare_counters ~what:(Printf.sprintf "pass %d vs pass 0" k)
          (pass_counters first) (pass_counters p))
    passes;
  print_counters ~name:"edit-serve" (pass_counters first);
  check_against_previous ~key:(Printf.sprintf "edit-serve-seed%d" seed) (pass_counters first);
  let wmin, crit, power, bits = pass_qor first in
  let lat = List.concat_map (fun p -> p.latencies_ms) passes in
  let f g = List.map g passes in
  [
    ("compile_s", "s", median (f (fun p -> p.wall_s)));
    ("compile_cpu_s", "s", median (f (fun p -> p.daemon_cpu_s)));
    ("wmin_sum", "tracks", float_of_int wmin);
    ("crit_ns_geomean", "ns", crit);
    ("power_mw_geomean", "mW", power);
    ("bitstream_bits", "bits", float_of_int bits);
    ("peak_rss_mb", "MB", median (f (fun p -> p.daemon_rss_mb)));
    ("setup_s", "s", median (f (fun p -> p.setup_s)));
    ("request_ms.p50", "ms", median lat);
    ("request_ms.p90", "ms", quantile 0.9 lat);
    ( "throughput_rps",
      "1/s",
      median (f (fun p -> float_of_int (List.length p.responses) /. p.wall_s)) );
  ]

(* One untraced compile, then the traced pipeline and the measurements
   on the same inputs.  Returns (untraced wall, traced compile wall). *)
let traced_pair workload ~pseed (name, vhdl) =
  let config = compile_config workload name pseed in
  match compile_untraced workload ~pseed (name, vhdl) with
  | None -> (0.0, 0.0)
  | Some (wall, _, r) -> (
      let base = qor_of_result r and base_counters = flow_counters r in
      let t0 = now () in
      match
        Trace.with_ "compile" ~args:[ ("design", E.String name) ] (fun () ->
            traced_compile config vhdl)
      with
      | exception e ->
          mismatch "traced %s: %s" name (Printexc.to_string e);
          (wall, 0.0)
      | q, counters, verified, pieces ->
          let traced = now () -. t0 in
          Trace.with_ "measure" ~args:[ ("design", E.String name) ] (fun () ->
              measure config pieces);
          if not verified then mismatch "traced %s: bitstream checks failed" name;
          if (q.q_width, q.q_luts, q.q_clbs, q.q_bytes)
             <> (base.q_width, base.q_luts, base.q_clbs, base.q_bytes)
          then
            mismatch "traced %s: Wmin/LUTs/CLBs/bitstream %d/%d/%d differ from \
                      untraced %d/%d/%d" name q.q_width q.q_luts q.q_clbs
              base.q_width base.q_luts base.q_clbs;
          compare_counters ~what:("traced vs untraced " ^ name) base_counters counters;
          (wall, traced))

(* the service rows of the compile workloads: a three-request probe
   (new, repeat, comment edit of counter8) against a fresh daemon *)
let probe_trace =
  let src = Core.Bench_circuits.counter 8 in
  let r = { design = "counter8"; src; seed = 1; kind = New } in
  [| r; { r with kind = Repeat }; { r with src = src ^ "\n-- edit\n"; kind = Edit } |]

let run_traced workload ~name ~seed ~daemon =
  Trace.on := true;
  let pairs, probe =
    match workload with
    | Route_heavy | Place_timing ->
        let pairs = List.map (traced_pair workload ~pseed:reference_pseed) compile_designs in
        let probe = serve_pass ~daemon ~index:0 probe_trace in
        check_responses probe_trace [ probe ];
        (pairs, probe)
    | Edit_serve ->
        let trace = gen_trace seed in
        let p = Trace.with_ "serve.pass" (fun () -> serve_pass ~daemon ~index:0 trace) in
        (* the layers, on every new design of the trace *)
        let news = List.filter (fun r -> r.kind = New) (Array.to_list trace) in
        let pairs =
          List.map (fun r -> traced_pair Edit_serve ~pseed:r.seed (r.design, r.src)) news
        in
        check_responses trace [ p ];
        (pairs, p)
  in
  let untraced = sum (List.map fst pairs) and traced = sum (List.map snd pairs) in
  mkdir_p out_dir;
  let base = Printf.sprintf "%s/trace-%s-seed%d" out_dir name seed in
  write_file (base ^ ".json") (E.to_string (Trace.to_chrome ()));
  let table =
    Printf.sprintf "%-22s %6s %12s %12s\n" "span" "count" "total_s" "self_s"
    ^ String.concat ""
        (List.map
           (fun (n, (c, t, s)) -> Printf.sprintf "%-22s %6d %12.6f %12.6f\n" n c t s)
           (Trace.self_table ()))
  in
  write_file (base ^ ".self.txt") table;
  print_string table;
  Printf.printf "chrome trace: %s.json\n" base;
  layer_metrics
    ~overhead_frac:(if untraced > 0.0 then (traced -. untraced) /. untraced else 0.0)
    ~probe

(* ---------- driver ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and daemon = ref "" and setup_only = ref false in
  let set = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME route-heavy | place-timing | edit-serve");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--daemon", Arg.Set_string daemon, "PATH the amdreld executable");
      ("--setup-only", Arg.Set setup_only, " generate the inputs and exit");
      ("--set", Arg.Set_int set, "K compile set K alone; write its outcome to stdout (Marshal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "flowbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] --daemon PATH";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("flowbench: unknown workload " ^ !workload);
        exit 2
  in
  (* The compile workloads run on one domain.  Some library calls take no
     jobs argument and fall back to AMDREL_JOBS or the core count; pinning
     it keeps them, the set processes and the GC on one domain too. *)
  if w <> Edit_serve then Unix.putenv "AMDREL_JOBS" "1";
  if !setup_only then gen_inputs w !seed
  else if !set >= 0 then begin
    let rows = set_rows w ~pseed:(set_pseed !seed !set) in
    Marshal.to_channel stdout (rows, peak_rss_mb "self") [];
    flush stdout
  end
  else begin
    if !daemon = "" || not (Sys.file_exists !daemon) then begin
      prerr_endline "flowbench: --daemon must name the amdreld executable";
      exit 2
    end;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    mkdir_p out_dir;
    let metrics =
      if !trace = 1 then run_traced w ~name:!workload ~seed:!seed ~daemon:!daemon
      else
        match w with
        | Edit_serve -> run_serve ~seed:!seed ~seconds:!seconds ~daemon:!daemon
        | Route_heavy | Place_timing ->
            run_compiles w ~name:!workload ~seed:!seed ~seconds:!seconds
    in
    print_result metrics
  end
