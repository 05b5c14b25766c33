(* The amdrel_flow CLI end to end: single mode writes BASE.result.json
   for every design, a design that fails to compile exits 1 with an
   ok:false record naming the failed stage, a local-only option under
   --remote, an out-of-domain --period or --route-width, or an --arch
   file asking for an unmodelled interconnect fails before any product
   is written, -d and --ledger create missing parents,
   local --batch warns about the single-design flags it ignores, --arch
   honours the file's io_rat, a --remote run writes a local run's
   files, the CLI reads a cache the library flow filled, and the
   standalone tools chain to the flow's bitstream. *)

module J = Obs.Jsonin

let exe name = Filename.concat ".." (Filename.concat "bin" (name ^ ".exe"))
let flow_exe = exe "amdrel_flow"

(* Compile NAME.vhd holding [vhdl] into a fresh directory; the exit code
   and the parsed NAME.result.json. *)
let run_flow ?(args = []) name vhdl =
  let dir = Filename.temp_dir "amdrel-cli-test" "" in
  let input = Filename.concat dir (name ^ ".vhd") in
  Out_channel.with_open_bin input (fun oc -> output_string oc vhdl);
  let argv = [ flow_exe; input; "-d"; dir; "--no-cache"; "-j"; "1" ] @ args in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote argv) ^ " >/dev/null 2>&1")
  in
  let record =
    J.parse
      (In_channel.with_open_bin
         (Filename.concat dir (name ^ ".result.json"))
         In_channel.input_all)
  in
  (code, record)

let field get name json = Option.bind (J.member name json) get

let check_failure ~stage (code, record) =
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check (option bool)) "ok" (Some false)
    (field J.get_bool "ok" record);
  match field J.get_string "error" record with
  | Some e ->
      Alcotest.(check bool) ("error starts with " ^ stage) true
        (String.starts_with ~prefix:(stage ^ ":") e)
  | None -> Alcotest.fail "record carries no error"

let with_exe f () =
  if Sys.file_exists flow_exe then f () else Alcotest.skip ()

let test_parse_error () =
  check_failure ~stage:"synth" (run_flow "broken" "entity broken is\n")

let test_route_error () =
  check_failure ~stage:"route"
    (run_flow ~args:[ "--route-width"; "1" ] "counter8"
       (Core.Bench_circuits.counter 8))

let test_ok_record () =
  let code, record =
    run_flow ~args:[ "--timing-report" ] "counter8"
      (Core.Bench_circuits.counter 8)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check (option bool)) "ok" (Some true)
    (field J.get_bool "ok" record);
  Alcotest.(check (option bool)) "verified" (Some true)
    (field J.get_bool "verified" record);
  let kind key =
    Option.bind (J.member "metrics" record) (fun m ->
        Option.bind (J.member key m) (field J.get_string "kind"))
  in
  Alcotest.(check (option string)) "heap pops counted" (Some "counter")
    (kind "vpr-route.heap-pops");
  Alcotest.(check (option string)) "sta.dmax gauge" (Some "gauge")
    (kind "sta.dmax");
  Alcotest.(check (option string)) "route timed" (Some "timer")
    (kind "route")

(* -d and --ledger create missing parent directories before the
   compile, so the record and the ledger line both land. *)
let test_missing_parents () =
  let dir = Filename.temp_dir "amdrel-cli-test" "" in
  let path name = Filename.concat dir name in
  Out_channel.with_open_bin (path "counter8.vhd") (fun oc ->
      output_string oc (Core.Bench_circuits.counter 8));
  let outdir = path "a/b/c" and ledger = path "l/m" in
  let argv =
    [
      flow_exe; path "counter8.vhd"; "-d"; outdir; "--ledger"; ledger;
      "--no-cache"; "-j"; "1";
    ]
  in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote argv) ^ " >/dev/null 2>&1")
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "record written" true
    (Sys.file_exists (Filename.concat outdir "counter8.result.json"));
  Alcotest.(check int) "one ledger line" 1
    (List.length
       (In_channel.with_open_bin (Filename.concat ledger "suite.jsonl")
          In_channel.input_lines))

(* A period or fixed width outside its domain is refused before anything
   compiles, by the same check the daemon applies to a submit; the error
   names the field, and neither a record nor a bitstream is written. *)
let out_of_domain ~field args () =
  let dir = Filename.temp_dir "amdrel-cli-test" "" in
  let path name = Filename.concat dir name in
  Out_channel.with_open_bin (path "counter8.vhd") (fun oc ->
      output_string oc (Core.Bench_circuits.counter 8));
  let argv = [ flow_exe; path "counter8.vhd"; "-d"; dir; "--no-cache" ] @ args in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote argv)
      ^ " >/dev/null 2>" ^ Filename.quote (path "stderr.txt"))
  in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check bool) ("stderr names " ^ field) true
    (Str_helpers.contains
       (In_channel.with_open_bin (path "stderr.txt") In_channel.input_all)
       field);
  Alcotest.(check bool) "no record written" false
    (Sys.file_exists (path "counter8.result.json"));
  Alcotest.(check bool) "no bitstream written" false
    (Sys.file_exists (path "counter8.bit"))

(* An arch file asking for an interconnect the flow does not model is
   refused the same way, its error naming the line: compiling it would
   write the default fabric's bitstream. *)
let test_arch_unmodelled () =
  let arch = Filename.temp_file "amdrel-cli-test" ".arch" in
  Out_channel.with_open_bin arch (fun oc ->
      output_string oc "switch tristate\n");
  out_of_domain ~field:"switch tristate" [ "--arch"; arch ] ()

(* --arch picks the fabric of a local compile; the daemon compiles for
   its own, so --remote with --arch must fail before connecting (here
   to a socket nobody listens on), name the flag, and write nothing. *)
let test_remote_arch () =
  let dir = Filename.temp_dir "amdrel-cli-test" "" in
  let path name = Filename.concat dir name in
  Out_channel.with_open_bin (path "counter8.vhd") (fun oc ->
      output_string oc (Core.Bench_circuits.counter 8));
  Fpga_arch.Archfile.to_file (path "seg.arch")
    {
      Fpga_arch.Params.amdrel with
      Fpga_arch.Params.segments =
        Fpga_arch.Params.segments_of_string "2xL1+1xL4";
    };
  let argv =
    [
      flow_exe; path "counter8.vhd"; "-d"; dir; "--arch"; path "seg.arch";
      "--remote"; path "none.sock";
    ]
  in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote argv)
      ^ " >/dev/null 2>" ^ Filename.quote (path "stderr.txt"))
  in
  Alcotest.(check bool) "exit non-zero" true (code <> 0);
  Alcotest.(check bool) "stderr names --arch" true
    (Str_helpers.contains
       (In_channel.with_open_bin (path "stderr.txt") In_channel.input_all)
       "--arch");
  Alcotest.(check bool) "no bitstream written" false
    (Sys.file_exists (path "counter8.bit"))

(* Local --batch compiles in pool workers, which have no ambient trace
   or event sink: --trace and --events are refused with a warning each
   rather than silently writing nothing. *)
let test_batch_ignores_trace_events () =
  let dir = Filename.temp_dir "amdrel-cli-test" "" in
  let path name = Filename.concat dir name in
  Out_channel.with_open_bin (path "counter8.vhd") (fun oc ->
      output_string oc (Core.Bench_circuits.counter 8));
  Out_channel.with_open_bin (path "designs.txt") (fun oc ->
      output_string oc "counter8.vhd\n");
  let argv =
    [
      flow_exe; path "designs.txt"; "--batch"; "-d"; dir; "--no-cache";
      "-j"; "1"; "--trace"; path "t.json"; "--events"; path "e.jsonl";
    ]
  in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote argv)
      ^ " >/dev/null 2>" ^ Filename.quote (path "stderr.txt"))
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "record written" true
    (Sys.file_exists (path "counter8.result.json"));
  let stderr =
    In_channel.with_open_bin (path "stderr.txt") In_channel.input_all
  in
  List.iter
    (fun flag ->
      Alcotest.(check bool) ("stderr names " ^ flag) true
        (Str_helpers.contains stderr flag))
    [ "--trace"; "--events" ];
  Alcotest.(check bool) "no trace file" false (Sys.file_exists (path "t.json"));
  Alcotest.(check bool) "no events file" false
    (Sys.file_exists (path "e.jsonl"))

let read path = In_channel.with_open_bin path In_channel.input_all

(* Run bin/NAME.exe with [args], stdout and stderr discarded. *)
let tool name args =
  Sys.command
    (String.concat " " (List.map Filename.quote (exe name :: args))
    ^ " >/dev/null 2>&1")

let flow = tool "amdrel_flow"

(* The flow places on the arch file's IO pads per position: the .bit is
   the library flow's at io_rat 4, and not the default fabric's. *)
let test_arch_io_rat () =
  let dir = Filename.temp_dir "amdrel-cli-test" "" in
  let path name = Filename.concat dir name in
  let vhdl = Core.Bench_circuits.counter 8 in
  Out_channel.with_open_bin (path "counter8.vhd") (fun oc ->
      output_string oc vhdl);
  let params = { Fpga_arch.Params.amdrel with Fpga_arch.Params.io_rat = 4 } in
  Fpga_arch.Archfile.to_file (path "io4.arch") params;
  Alcotest.(check int) "exit code" 0
    (flow
       [
         path "counter8.vhd"; "-d"; dir; "--arch"; path "io4.arch";
         "--no-cache"; "-j"; "1";
       ]);
  let bit params =
    (Core.Flow.run_vhdl
       ~config:{ Core.Flow.default_config with params; jobs = Some 1 }
       vhdl)
      .Core.Flow.bitstream.Bitstream.Dagger.bytes
  in
  let cli = read (path "counter8.bit") in
  Alcotest.(check bool) "bit = the flow's at io_rat 4" true (cli = bit params);
  Alcotest.(check bool) "bit differs from the default fabric's" true
    (cli <> bit Fpga_arch.Params.amdrel)

(* The paper's tools also run standalone, each reading the file the
   previous one wrote: counter8 through diviner, druid, e2fmt, sismap,
   tvpack and dagger writes the bitstream amdrel_flow writes, and vpr
   and powermodel place and route the same files. *)
let test_tool_chain () =
  let dir = Filename.temp_dir "amdrel-cli-test" "" in
  let path name = Filename.concat dir name in
  Out_channel.with_open_bin (path "counter8.vhd") (fun oc ->
      output_string oc (Core.Bench_circuits.counter 8));
  let packed = [ path "sismap.blif"; path "tvpack.net" ] in
  List.iter
    (fun (name, args) ->
      Alcotest.(check int) (name ^ " exit code") 0 (tool name args))
    [
      ("diviner", [ path "counter8.vhd"; "-o"; path "diviner.edf" ]);
      ("druid", [ path "diviner.edf"; "-o"; path "druid.edf" ]);
      ("e2fmt", [ path "druid.edf"; "-o"; path "e2fmt.blif" ]);
      ("sismap", [ path "e2fmt.blif"; "-o"; path "sismap.blif" ]);
      ("tvpack", [ path "sismap.blif"; "-o"; path "tvpack.net" ]);
      ("dagger", packed @ [ "-o"; path "dagger.bit" ]);
      ("vpr", packed);
      ("powermodel", packed);
      ("amdrel_flow", [ path "counter8.vhd"; "-d"; dir; "--no-cache" ]);
    ];
  Alcotest.(check bool) "dagger's .bit = amdrel_flow's" true
    (read (path "dagger.bit") = read (path "counter8.bit"))

(* Stage artifacts are plain data, so a cache one binary fills answers
   every stage for another: amdrel_flow reads what this test binary's
   library flow stored as seven hits, none corrupt, and writes the
   library's bitstream. *)
let test_cache_shared () =
  let dir = Filename.temp_dir "amdrel-cli-test" "" in
  let path name = Filename.concat dir name in
  let vhdl = Core.Bench_circuits.counter 8 in
  Out_channel.with_open_bin (path "counter8.vhd") (fun oc ->
      output_string oc vhdl);
  let library =
    Core.Flow.run_vhdl
      ~config:{ Core.Flow.default_config with cache_dir = Some (path "cache") }
      vhdl
  in
  Alcotest.(check int) "exit code" 0
    (flow
       [
         path "counter8.vhd"; "-d"; dir; "--cache-dir"; path "cache"; "-j"; "1";
       ]);
  let record = J.parse (read (path "counter8.result.json")) in
  let count key =
    Option.bind (J.member "metrics" record) (fun m ->
        Option.bind (J.member key m) (field J.get_int "value"))
  in
  Alcotest.(check (option int)) "cache.hit" (Some 7) (count "cache.hit");
  Alcotest.(check (option int)) "no cache.miss" None (count "cache.miss");
  Alcotest.(check (option int)) "no cache.corrupt" None (count "cache.corrupt");
  Alcotest.(check bool) "bit = the library's" true
    (read (path "counter8.bit")
    = library.Core.Flow.bitstream.Bitstream.Dagger.bytes)

(* A --remote batch against an in-process amdreld writes what a local
   --no-cache batch writes: the same .bit and .timing.json bytes, and
   the same records apart from their metrics, a failure included. *)
let test_remote_equals_local () =
  let dir = Filename.temp_dir "amdrel-cli-test" "" in
  let path name = Filename.concat dir name in
  Out_channel.with_open_bin (path "renamed.vhd") (fun oc ->
      output_string oc (Core.Bench_circuits.counter 8));
  Out_channel.with_open_bin (path "broken.vhd") (fun oc ->
      output_string oc "entity broken is\n");
  Out_channel.with_open_bin (path "designs.txt") (fun oc ->
      output_string oc "renamed.vhd\nbroken.vhd\n");
  let sock = Test_service.short_sock () in
  let server =
    Service.Server.create
      (Test_service.quiet_server_config ~sock
         ~cache:(Test_service.fresh_dir ()) ~workers:1 ~queue_depth:4 ~jobs:1)
  in
  let server_domain = Domain.spawn (fun () -> Service.Server.run server) in
  let batch outdir extra =
    flow
      ([ path "designs.txt"; "--batch"; "--timing-report"; "-d"; path outdir ]
      @ extra)
  in
  let remote_code = batch "remote" [ "--remote"; sock ] in
  Service.Client.with_connection sock (fun c ->
      ignore (Service.Client.request c Service.Protocol.Shutdown));
  Domain.join server_domain;
  Alcotest.(check int) "local exit code" 1
    (batch "local" [ "--no-cache"; "-j"; "1" ]);
  let file sub name = read (Filename.concat (path sub) name) in
  check_failure ~stage:"synth"
    (remote_code, J.parse (file "remote" "broken.result.json"));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " byte-identical") true
        (file "remote" name = file "local" name))
    [ "renamed.bit"; "renamed.timing.json" ];
  let record sub name =
    match J.parse (file sub (name ^ ".result.json")) with
    | Obs.Emit.Obj fields ->
        Obs.Emit.to_string
          (Obs.Emit.Obj (List.filter (fun (k, _) -> k <> "metrics") fields))
    | _ -> Alcotest.fail "record is not an object"
  in
  List.iter
    (fun name ->
      Alcotest.(check string) (name ^ " record, less metrics")
        (record "local" name) (record "remote" name))
    [ "renamed"; "broken" ]

let suite =
  [
    Alcotest.test_case "parse error: exit 1 + ok:false record" `Quick
      (with_exe test_parse_error);
    Alcotest.test_case "unroutable width: exit 1 + ok:false record" `Quick
      (with_exe test_route_error);
    Alcotest.test_case "timing-report run: ok record with metrics" `Quick
      (with_exe test_ok_record);
    Alcotest.test_case "--arch with --remote fails, writes nothing" `Quick
      (with_exe test_remote_arch);
    Alcotest.test_case "--batch ignores --trace and --events" `Quick
      (with_exe test_batch_ignores_trace_events);
    Alcotest.test_case "-d and --ledger create missing parents" `Quick
      (with_exe test_missing_parents);
    Alcotest.test_case "--period 0 exits 1 before compiling" `Quick
      (with_exe (out_of_domain ~field:"period_ns" [ "--period"; "0" ]));
    Alcotest.test_case "--route-width 129 exits 1 before compiling" `Quick
      (with_exe (out_of_domain ~field:"route_width" [ "--route-width"; "129" ]));
    Alcotest.test_case "--arch honours the file's io_rat" `Quick
      (with_exe test_arch_io_rat);
    Alcotest.test_case "--arch with switch tristate exits 1" `Quick
      (with_exe test_arch_unmodelled);
    Alcotest.test_case "--remote batch writes the local run's files" `Quick
      (with_exe test_remote_equals_local);
    Alcotest.test_case "cache shared across binaries" `Quick
      (with_exe test_cache_shared);
    Alcotest.test_case "standalone tool chain writes the flow's .bit" `Quick
      (with_exe test_tool_chain);
  ]
