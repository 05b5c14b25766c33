(* The compile service: JSON parsing, the wire protocol, manifest
   resolution, concurrent cache writers, size-bounded eviction, and an
   end-to-end daemon exercise (concurrent submissions bit-identical to
   standalone runs, backpressure, graceful drain). *)

module E = Obs.Emit
module R = Obs.Registry
module J = Obs.Jsonin
module P = Service.Protocol

let fresh_dir () = Filename.temp_dir "amdrel-service-test" ""

(* ---------- Jsonin: parsing back what Emit produces ---------- *)

let test_jsonin_roundtrip () =
  let samples =
    [
      E.Null;
      E.Bool true;
      E.Int (-42);
      E.Float 1.5;
      E.String "plain";
      E.String "esc \" \\ \n \t \x01 end";
      E.List [ E.Int 1; E.List []; E.Obj [] ];
      E.Obj
        [
          ("a", E.Int 0);
          ("nested", E.Obj [ ("l", E.List [ E.Bool false; E.Null ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = E.to_string v in
      (* parse . print is the identity on printed JSON: this is what
         makes byte-comparing re-rendered responses meaningful *)
      Alcotest.(check string) ("stable: " ^ s) s (E.to_string (J.parse s)))
    samples

let test_jsonin_values () =
  let p = J.parse in
  Alcotest.(check bool) "int" true (p "17" = E.Int 17);
  Alcotest.(check bool) "negative float" true (p "-2.5" = E.Float (-2.5));
  Alcotest.(check bool) "exponent is float" true (p "1e2" = E.Float 100.0);
  Alcotest.(check bool) "unicode escape" true
    (p {|"Aé"|} = E.String "A\xc3\xa9");
  Alcotest.(check bool) "surrogate pair" true
    (p {|"😀"|} = E.String "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "whitespace tolerated" true
    (p " { \"k\" : [ 1 , 2 ] } " = E.Obj [ ("k", E.List [ E.Int 1; E.Int 2 ]) ]);
  List.iter
    (fun bad ->
      match J.parse bad with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed %S" bad)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_jsonin_accessors () =
  let o = J.parse {|{"s":"x","b":true,"i":3,"f":2.5,"fi":4.0}|} in
  Alcotest.(check (option string)) "string" (Some "x")
    (Option.bind (J.member "s" o) J.get_string);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (J.member "b" o) J.get_bool);
  Alcotest.(check (option int)) "int" (Some 3)
    (Option.bind (J.member "i" o) J.get_int);
  Alcotest.(check (option int)) "integral float as int" (Some 4)
    (Option.bind (J.member "fi" o) J.get_int);
  Alcotest.(check bool) "float" true
    (Option.bind (J.member "f" o) J.get_float = Some 2.5);
  Alcotest.(check bool) "int as float" true
    (Option.bind (J.member "i" o) J.get_float = Some 3.0);
  Alcotest.(check bool) "absent member" true (J.member "zz" o = None)

(* Property form of the same contract: parse . print is the identity on
   printed JSON for arbitrary value trees — control characters escape
   and come back, non-finite floats normalise to null, deep nesting
   survives.  Stability is checked on the printed bytes because the
   tree itself may legitimately change shape (a float that prints
   without '.'/'e' reparses as an int with the same rendering). *)
let emit_arb =
  let open QCheck.Gen in
  let any_string =
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12)
  in
  let any_float =
    oneof
      [
        float;
        oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 1e300; -1e-300 ];
      ]
    (* -0. prints as "-0", which reparses as the integer 0: normalise *)
    |> map (fun f -> if f = 0.0 then 0.0 else f)
  in
  let leaf =
    oneof
      [
        return E.Null;
        map (fun b -> E.Bool b) bool;
        map (fun i -> E.Int i) int;
        map (fun f -> E.Float f) any_float;
        map (fun s -> E.String s) any_string;
      ]
  in
  let tree =
    sized
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map
                     (fun l -> E.List l)
                     (list_size (int_range 0 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun kvs -> E.Obj kvs)
                     (list_size (int_range 0 4)
                        (pair any_string (self (n / 2)))) );
               ])
  in
  QCheck.make ~print:E.to_string tree

let prop_jsonin_print_stable =
  QCheck.Test.make ~count:500 ~name:"parse . print is the printed identity"
    emit_arb (fun v ->
      let s = E.to_string v in
      E.to_string (J.parse s) = s)

let test_jsonin_parse_result () =
  (match J.parse_result "{\"a\": [1, 2]}" with
  | Ok v ->
      Alcotest.(check string) "ok case parses" "{\"a\": [1, 2]}"
        (E.to_string v)
  | Error e -> Alcotest.failf "unexpected parse failure: %s" e);
  List.iter
    (fun bad ->
      match J.parse_result bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse_result accepted %S" bad)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"\\q\""; "{\"a\":1} extra" ]

(* ---------- the wire protocol ---------- *)

let test_protocol_roundtrip () =
  let roundtrip r =
    match P.request_of_json (J.parse (E.to_string (P.request_to_json r))) with
    | Ok r' -> Alcotest.(check bool) "roundtrips" true (r = r')
    | Error e -> Alcotest.failf "roundtrip failed: %s" e
  in
  roundtrip P.Status;
  roundtrip P.Metrics;
  roundtrip P.Shutdown;
  roundtrip (P.Submit { P.default_submit with P.vhdl = "entity e is end;" });
  roundtrip
    (P.Submit
       {
         P.vhdl = "x";
         seed = 7;
         route_width = Some 10;
         timing_report = true;
         period_ns = Some 12.5;
         place_starts = 3;
         progress = true;
       })

let test_protocol_errors () =
  let err s =
    match P.request_of_json (J.parse s) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  err {|{"no":"verb"}|};
  err {|{"verb":"frobnicate"}|};
  err {|{"verb":"submit"}|} (* vhdl required *);
  err {|{"verb":"submit","vhdl":3}|};
  err {|{"verb":"submit","vhdl":"x","seed":"high"}|};
  (* no watch verb: the daemon answers it, like any request that does
     not parse, with code bad-request *)
  err {|{"verb": "watch", "id": 1}|};
  (* well-typed fields outside their domain: the error names the field *)
  List.iter
    (fun (field, value) ->
      let s = Printf.sprintf {|{"verb":"submit","vhdl":"x",%S:%s}|} field value in
      match P.request_of_json (J.parse s) with
      | Error msg ->
          Alcotest.(check bool) (s ^ " error names the field") true
            (Str_helpers.contains msg field)
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      ("place_starts", "0"); ("place_starts", "-2"); ("route_width", "0");
      ("route_width", "-1"); ("route_width", "129"); ("period_ns", "0");
      ("period_ns", "-1");
    ];
  (* the width search's own ceiling is the widest fixed width *)
  (match
     P.request_of_json (J.parse {|{"verb":"submit","vhdl":"x","route_width":128}|})
   with
  | Ok (P.Submit s) ->
      Alcotest.(check (option int)) "route_width 128 accepted" (Some 128)
        s.P.route_width
  | _ -> Alcotest.fail "route_width 128 rejected");
  (* null optional fields read as absent, not as type errors *)
  match P.request_of_json (J.parse {|{"verb":"submit","vhdl":"x","route_width":null}|}) with
  | Ok (P.Submit s) ->
      Alcotest.(check bool) "null optional = default" true (s.P.route_width = None)
  | _ -> Alcotest.fail "null optional rejected"

let test_hex_roundtrip () =
  let all = String.init 256 Char.chr in
  Alcotest.(check (result string string)) "roundtrip" (Ok all)
    (P.hex_decode (P.hex_encode all));
  Alcotest.(check bool) "odd length rejected" true
    (Result.is_error (P.hex_decode "abc"));
  Alcotest.(check bool) "non-hex rejected" true
    (Result.is_error (P.hex_decode "zz"))

(* ---------- manifest resolution (the --batch CWD bug) ---------- *)

let test_manifest_resolution () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "designs.txt" in
  let oc = open_out manifest in
  output_string oc "a.vhd\n\n# a comment\n  sub/b.vhd  \n/abs/c.vhd\n";
  close_out oc;
  (* The regression: a same-named file in the CWD must NOT win over the
     manifest directory.  (The old driver checked Sys.file_exists on the
     bare line first, silently compiling whatever the CWD held.) *)
  let decoy = "a.vhd" in
  let had_decoy = Sys.file_exists decoy in
  if not had_decoy then begin
    let oc = open_out decoy in
    output_string oc "-- decoy: must never be picked up\n";
    close_out oc
  end;
  let paths = Service.Manifest.read manifest in
  if not had_decoy then Sys.remove decoy;
  Alcotest.(check (list string)) "resolved against the manifest dir"
    [
      Filename.concat dir "a.vhd";
      Filename.concat dir "sub/b.vhd";
      "/abs/c.vhd";
    ]
    paths;
  Alcotest.(check string) "resolve: relative"
    (Filename.concat dir "x.vhd")
    (Service.Manifest.resolve ~manifest "x.vhd");
  Alcotest.(check string) "resolve: absolute untouched" "/a/b.vhd"
    (Service.Manifest.resolve ~manifest "/a/b.vhd")

(* ---------- concurrent writers on one store key ---------- *)

let test_concurrent_store_same_key () =
  let dir = fresh_dir () in
  let k = Cache.Store.key [ "hammer"; "v1" ] in
  let payload tag j = (tag, j, String.make 2048 (Char.chr (65 + tag))) in
  (* four domains, each with its own handle and registry, all hammering
     the same key with interleaved stores and reads *)
  let domains =
    Array.init 4 (fun tag ->
        Domain.spawn (fun () ->
            let obs = R.create () in
            let s = Cache.Store.open_ ~obs dir in
            for j = 0 to 149 do
              Cache.Store.store s k (payload tag j);
              match (Cache.Store.find s k : (int * int * string) option) with
              | Some (t, _, body) ->
                  (* whatever we read is some writer's complete value,
                     never an interleaving of two *)
                  if String.length body <> 2048 || body.[0] <> Char.chr (65 + t)
                  then failwith "torn read"
              | None -> () (* lost the race to a concurrent rename; fine *)
            done;
            R.counter (R.snapshot obs) "cache.corrupt"))
  in
  let corrupt = Array.fold_left (fun n d -> n + Domain.join d) 0 domains in
  Alcotest.(check int) "no read ever saw a torn entry" 0 corrupt;
  (* the survivor is one writer's complete payload *)
  (match (Cache.Store.find (Cache.Store.open_ dir) k : (int * int * string) option) with
  | Some (t, _, body) ->
      Alcotest.(check bool) "final entry complete" true
        (String.length body = 2048 && body.[0] = Char.chr (65 + t))
  | None -> Alcotest.fail "entry missing after the hammer");
  (* every temp file was renamed or belongs to nobody: none left behind *)
  let temps =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun n -> Filename.check_suffix n ".tmp")
  in
  Alcotest.(check (list string)) "no temp debris" [] temps

(* ---------- size-bounded eviction ---------- *)

let stage_mtime path t = Unix.utimes path t t

let seed_entries s n =
  (* n entries with distinct keys and strictly increasing staged mtimes
     (explicit, so filesystem timestamp granularity can't tie) *)
  List.init n (fun i ->
      let k = Cache.Store.key [ "gc"; string_of_int i ] in
      Cache.Store.store s k (i, String.make 1024 'e');
      stage_mtime (Cache.Store.path s k) (1.0e9 +. float_of_int i);
      k)

let test_gc_scan_only () =
  let dir = fresh_dir () in
  let obs = R.create () in
  let s = Cache.Store.open_ ~obs dir in
  let keys = seed_entries s 6 in
  let g = Cache.Store.gc s in
  Alcotest.(check int) "all entries counted" 6 g.Cache.Store.entries;
  Alcotest.(check int) "nothing evicted" 0 g.Cache.Store.evicted;
  Alcotest.(check bool) "resident bytes counted" true
    (g.Cache.Store.resident_bytes > 6 * 1024);
  List.iter
    (fun k ->
      Alcotest.(check bool) "entry survives a scan" true
        (Cache.Store.find s k <> (None : (int * string) option)))
    keys

let test_gc_lru_eviction () =
  let dir = fresh_dir () in
  let obs = R.create () in
  let s = Cache.Store.open_ ~obs dir in
  let keys = seed_entries s 6 in
  let total = (Cache.Store.gc s).Cache.Store.resident_bytes in
  let per_entry = total / 6 in
  (* budget for three entries: the three oldest must go, oldest first *)
  let g = Cache.Store.gc ~max_bytes:(3 * per_entry) s in
  Alcotest.(check int) "three evicted" 3 g.Cache.Store.evicted;
  Alcotest.(check bool) "under budget" true
    (g.Cache.Store.resident_bytes <= 3 * per_entry);
  List.iteri
    (fun i k ->
      let present = Cache.Store.find s k <> (None : (int * string) option) in
      Alcotest.(check bool)
        (Printf.sprintf "entry %d %s" i (if i < 3 then "evicted" else "kept"))
        (i >= 3) present)
    keys;
  Alcotest.(check int) "cache.evict counted" 3
    (R.counter (R.snapshot obs) "cache.evict")

let test_gc_hit_refreshes_recency () =
  let dir = fresh_dir () in
  let s = Cache.Store.open_ dir in
  let keys = seed_entries s 3 in
  let k0 = List.nth keys 0 and k1 = List.nth keys 1 and k2 = List.nth keys 2 in
  let total = (Cache.Store.gc s).Cache.Store.resident_bytes in
  (* touch the oldest entry through a hit; now entry 1 is the LRU *)
  Alcotest.(check bool) "hit" true
    (Cache.Store.find s k0 <> (None : (int * string) option));
  let g = Cache.Store.gc ~max_bytes:(2 * (total / 3)) s in
  Alcotest.(check int) "one evicted" 1 g.Cache.Store.evicted;
  Alcotest.(check bool) "hit entry survives" true
    (Cache.Store.find s k0 <> (None : (int * string) option));
  Alcotest.(check bool) "un-hit LRU evicted" true
    (Cache.Store.find s k1 = (None : (int * string) option));
  Alcotest.(check bool) "newest survives" true
    (Cache.Store.find s k2 <> (None : (int * string) option))

let test_gc_corrupt_first () =
  let dir = fresh_dir () in
  let s = Cache.Store.open_ dir in
  let keys = seed_entries s 3 in
  (* corrupt the NEWEST entry: under a budget it must still be the first
     to go — a corrupt entry can only ever read as a miss *)
  let newest = List.nth keys 2 in
  let p = Cache.Store.path s newest in
  let ic = open_in_bin p in
  let half = really_input_string ic (in_channel_length ic / 2) in
  close_in ic;
  let oc = open_out_bin p in
  output_string oc half;
  close_out oc;
  stage_mtime p 2.0e9;
  let intact_bytes =
    let st0 = Unix.stat (Cache.Store.path s (List.nth keys 0)) in
    let st1 = Unix.stat (Cache.Store.path s (List.nth keys 1)) in
    st0.Unix.st_size + st1.Unix.st_size
  in
  let g = Cache.Store.gc ~max_bytes:intact_bytes s in
  Alcotest.(check int) "one evicted" 1 g.Cache.Store.evicted;
  Alcotest.(check int) "the corrupt one" 1 g.Cache.Store.evicted_corrupt;
  Alcotest.(check int) "both intact entries kept" 2 g.Cache.Store.entries;
  List.iteri
    (fun i k ->
      Alcotest.(check bool)
        (Printf.sprintf "intact entry %d kept" i)
        true
        (Cache.Store.find s k <> (None : (int * string) option)))
    [ List.nth keys 0; List.nth keys 1 ]

let test_gc_removes_stale_temps () =
  let dir = fresh_dir () in
  let s = Cache.Store.open_ dir in
  ignore (seed_entries s 2);
  let stale = Filename.concat dir ".part-9999-0-0.tmp" in
  let oc = open_out_bin stale in
  output_string oc "crashed writer leftovers";
  close_out oc;
  stage_mtime stale 1.0e9 (* long past the grace period *);
  let fresh = Filename.concat dir ".part-9999-0-1.tmp" in
  let oc = open_out_bin fresh in
  output_string oc "in-flight write";
  close_out oc;
  ignore (Cache.Store.gc s);
  Alcotest.(check bool) "stale temp removed" false (Sys.file_exists stale);
  Alcotest.(check bool) "fresh temp untouched" true (Sys.file_exists fresh)

(* ---------- the daemon, end to end ---------- *)

let short_sock () =
  let p = Filename.temp_file "amdreld" ".sock" in
  Sys.remove p;
  p

let quiet_server_config ~sock ~cache ~workers ~queue_depth ~jobs =
  {
    Service.Server.socket_path = sock;
    queue_depth;
    workers;
    jobs;
    cache_max_bytes = None;
    flow = { Core.Flow.default_config with Core.Flow.cache_dir = Some cache };
    log = ignore;
  }

let submit_req vhdl = P.Submit { P.default_submit with P.vhdl }

let member_exn name resp =
  match J.member name resp with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (E.to_string resp)

let test_daemon_e2e () =
  let designs =
    [
      ("counter8", Core.Bench_circuits.counter 8);
      ("parity16", Core.Bench_circuits.parity 16);
      ("decoder4", Core.Bench_circuits.decoder 4);
      ("gray8", Core.Bench_circuits.gray_counter 8);
    ]
  in
  (* standalone references: same effective config as the server will use
     (cold cache, jobs=1 per request), one fresh cache dir per design *)
  let reference =
    List.map
      (fun (name, vhdl) ->
        let obs = R.create () in
        let r =
          Core.Flow.run_vhdl
            ~config:
              {
                Core.Flow.default_config with
                Core.Flow.cache_dir = Some (fresh_dir ());
                jobs = Some 1;
              }
            ~obs vhdl
        in
        ( name,
          r.Core.Flow.bitstream.Bitstream.Dagger.bytes,
          E.to_string (R.to_json ~deterministic:true r.Core.Flow.metrics) ))
      designs
  in
  let sock = short_sock () in
  let server =
    Service.Server.create
      (quiet_server_config ~sock ~cache:(fresh_dir ()) ~workers:2
         ~queue_depth:8 ~jobs:2)
  in
  let server_domain = Domain.spawn (fun () -> Service.Server.run server) in
  (* four concurrent clients, one connection and one submission each *)
  let clients =
    List.map
      (fun (name, vhdl) ->
        ( name,
          Domain.spawn (fun () ->
              Service.Client.with_connection sock (fun c ->
                  Service.Client.request c (submit_req vhdl))) ))
      designs
  in
  let responses = List.map (fun (name, d) -> (name, Domain.join d)) clients in
  List.iter
    (fun (name, resp) ->
      Alcotest.(check bool) (name ^ " ok") true (Service.Client.ok resp);
      let ref_bytes, ref_metrics =
        let _, b, m = List.find (fun (n, _, _) -> n = name) reference in
        (b, m)
      in
      let hex =
        match J.get_string (member_exn "bitstream_hex" resp) with
        | Some h -> h
        | None -> Alcotest.fail "bitstream_hex not a string"
      in
      (match P.hex_decode hex with
      | Ok bytes ->
          Alcotest.(check bool)
            (name ^ " bitstream bytes identical to standalone")
            true (bytes = ref_bytes)
      | Error e -> Alcotest.failf "bad hex: %s" e);
      Alcotest.(check string)
        (name ^ " deterministic metrics identical to standalone")
        ref_metrics
        (E.to_string (member_exn "deterministic_metrics" resp));
      (* the embedded result record parses and says ok *)
      let result = member_exn "result" resp in
      Alcotest.(check (option bool)) (name ^ " result.ok") (Some true)
        (Option.bind (J.member "ok" result) J.get_bool))
    responses;
  (* warm resubmission over the shared cache: every stage hits *)
  let warm =
    Service.Client.with_connection sock (fun c ->
        Service.Client.request c (submit_req (snd (List.hd designs))))
  in
  Alcotest.(check bool) "warm ok" true (Service.Client.ok warm);
  let warm_metrics = member_exn "result" warm |> member_exn "metrics" in
  let warm_hits =
    Option.bind (J.member "cache.hit" warm_metrics) (fun e ->
        Option.bind (J.member "value" e) J.get_int)
  in
  Alcotest.(check bool) "warm run hits every stage" true
    (match warm_hits with Some h -> h >= 7 | None -> false);
  (* status and drain via the shutdown verb *)
  Service.Client.with_connection sock (fun c ->
      let st = Service.Client.request c P.Status in
      Alcotest.(check (option int)) "all completed" (Some 5)
        (Option.bind (J.member "completed" st) J.get_int);
      let bye = Service.Client.request c P.Shutdown in
      Alcotest.(check bool) "shutdown acked" true (Service.Client.ok bye));
  Domain.join server_domain;
  Alcotest.(check bool) "socket unlinked after drain" false
    (Sys.file_exists sock)

(* Backpressure and drain-with-queued-work: one worker, queue of one.
   A compiling request holds the worker, a queued request fills the
   queue, the third submission bounces immediately with a structured
   error.  A shutdown issued while work is queued completes that work
   before the server exits. *)
let test_daemon_backpressure_and_drain () =
  let sock = short_sock () in
  let server =
    Service.Server.create
      (quiet_server_config ~sock ~cache:(fresh_dir ()) ~workers:1
         ~queue_depth:1 ~jobs:1)
  in
  let server_domain = Domain.spawn (fun () -> Service.Server.run server) in
  (* two distinct designs so neither compile can answer from the cache *)
  let slow1 = Core.Bench_circuits.multiplier 4 in
  let slow2 = Core.Bench_circuits.alu 8 in
  let submitter = Service.Client.connect sock in
  let poll = Service.Client.connect sock in
  let status name =
    let st = Service.Client.request poll P.Status in
    Option.value (Option.bind (J.member name st) J.get_int) ~default:(-1)
  in
  let wait_for what pred =
    let rec go n =
      if n > 2000 then Alcotest.failf "timeout waiting for %s" what
      else if not (pred ()) then begin
        Unix.sleepf 0.005;
        go (n + 1)
      end
    in
    go 0
  in
  (* first submit occupies the single worker... *)
  Service.Client.send submitter (submit_req slow1);
  wait_for "first compile in flight" (fun () -> status "in_flight" = 1);
  (* ...second fills the queue of one... *)
  Service.Client.send submitter (submit_req slow2);
  wait_for "second compile queued" (fun () -> status "queue_depth" = 1);
  (* the enriched status names the queued request, its 1-based position
     and its age in the queue *)
  (let st = Service.Client.request poll P.Status in
   match J.member "queued" st with
   | Some (E.List [ entry ]) ->
       Alcotest.(check (option int)) "queued id" (Some 2)
         (Option.bind (J.member "id" entry) J.get_int);
       Alcotest.(check (option int)) "queue position" (Some 1)
         (Option.bind (J.member "position" entry) J.get_int);
       Alcotest.(check bool) "age_us non-negative" true
         (match Option.bind (J.member "age_us" entry) J.get_int with
         | Some a -> a >= 0
         | None -> false)
   | Some (E.List l) ->
       Alcotest.failf "expected one queued entry, got %d" (List.length l)
   | _ -> Alcotest.fail "status lacks the queued list");
  (* ...third bounces immediately with a structured error, overtaking
     the in-flight compiles on the wire *)
  Service.Client.send submitter (submit_req slow2);
  let bounce = Service.Client.recv submitter in
  Alcotest.(check bool) "bounced" false (Service.Client.ok bounce);
  Alcotest.(check (option string)) "backpressure code" (Some "backpressure")
    (Option.bind (J.member "code" bounce) J.get_string);
  Alcotest.(check int) "rejection counted" 1 (status "rejected");
  (* drain with work still queued: the shutdown is acknowledged, both
     admitted compiles complete ok, then the server exits *)
  let bye = Service.Client.request poll P.Shutdown in
  Alcotest.(check bool) "shutdown acked" true (Service.Client.ok bye);
  let r1 = Service.Client.recv submitter in
  let r2 = Service.Client.recv submitter in
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "admitted compile %d finished ok" (i + 1))
        true (Service.Client.ok r);
      Alcotest.(check (option int))
        (Printf.sprintf "response %d in FIFO order" (i + 1))
        (Some (i + 1))
        (Option.bind (J.member "id" r) J.get_int))
    [ r1; r2 ];
  Service.Client.close submitter;
  Service.Client.close poll;
  Domain.join server_domain;
  Alcotest.(check bool) "socket unlinked after drain" false
    (Sys.file_exists sock)

(* ---------- progress streaming over the wire ---------- *)

let event_name line = Option.bind (J.member "event" line) J.get_string

(* Read response lines until the final (event-less) completion: returns
   (event lines in arrival order, completion). *)
let collect_stream client =
  let rec go events =
    let line = Service.Client.recv client in
    match event_name line with
    | Some _ -> go (line :: events)
    | None -> (List.rev events, line)
  in
  go []

let stage_begins events =
  List.filter_map
    (fun e ->
      if event_name e = Some "stage-begin" then
        Option.bind (J.member "stage" e) J.get_string
      else None)
    events

let check_seqs name events =
  Alcotest.(check (list (option int)))
    (name ^ ": seq runs 0..n without a gap")
    (List.init (List.length events) Option.some)
    (List.map (fun e -> Option.bind (J.member "seq" e) J.get_int) events)

(* A progress submit streams at least one event per flow stage, with
   sequence numbers 0..n, terminated by a "done" event —
   and the final artifacts are byte-identical to a plain submit of the
   same design (served warm from the shared cache, which is exactly the
   determinism the cache keys promise). *)
let test_daemon_streaming () =
  let sock = short_sock () in
  let server =
    Service.Server.create
      (quiet_server_config ~sock ~cache:(fresh_dir ()) ~workers:1
         ~queue_depth:4 ~jobs:1)
  in
  let server_domain = Domain.spawn (fun () -> Service.Server.run server) in
  let vhdl = Core.Bench_circuits.counter 8 in
  let events, completion, streamed_hex =
    Service.Client.with_connection sock (fun c ->
        Service.Client.send c
          (P.Submit { P.default_submit with P.vhdl; progress = true });
        let ack = Service.Client.recv c in
        Alcotest.(check bool) "submit acknowledged" true
          (Service.Client.ok ack);
        Alcotest.(check (option bool)) "ack says accepted" (Some true)
          (Option.bind (J.member "accepted" ack) J.get_bool);
        Alcotest.(check bool) "ack reports the queue position" true
          (J.member "queue_position" ack <> None);
        let events, completion = collect_stream c in
        ( events,
          completion,
          Option.bind (J.member "bitstream_hex" completion) J.get_string ))
  in
  Alcotest.(check bool) "compile ok" true (Service.Client.ok completion);
  let begins = stage_begins events in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (Printf.sprintf "stage %s streamed" stage)
        true (List.mem stage begins))
    Core.Flow.stages;
  check_seqs "stream" events;
  (match List.rev events with
  | last :: _ ->
      Alcotest.(check (option string)) "stream ends with done" (Some "done")
        (event_name last);
      Alcotest.(check (option bool)) "done carries ok" (Some true)
        (Option.bind (J.member "ok" last) J.get_bool)
  | [] -> Alcotest.fail "no events streamed");
  let id =
    Option.bind (J.member "id" completion) J.get_int |> Option.value ~default:(-1)
  in
  List.iter
    (fun e ->
      Alcotest.(check (option int)) "event routed by request id" (Some id)
        (Option.bind (J.member "id" e) J.get_int))
    events;
  (* plain resubmission: byte-identical bitstream, no event lines *)
  let plain =
    Service.Client.with_connection sock (fun c ->
        Service.Client.request c (submit_req vhdl))
  in
  Alcotest.(check bool) "plain resubmit ok" true (Service.Client.ok plain);
  Alcotest.(check (option string))
    "streamed and plain bitstreams byte-identical" streamed_hex
    (Option.bind (J.member "bitstream_hex" plain) J.get_string);
  Service.Client.with_connection sock (fun c ->
      ignore (Service.Client.request c P.Shutdown));
  Domain.join server_domain

(* Two progress submits pipelined on one connection to one worker: each
   stream's seq runs 0..n without a gap and ends with done at n, each
   completion follows its own stream, and no event line of the second
   request comes before the first request's completion — the worker
   pushes that completion before it starts the second compile.  Only the
   second submit's acknowledgement, answered at admission, may. *)
let test_daemon_pipelined_streams () =
  let sock = short_sock () in
  let server =
    Service.Server.create
      (quiet_server_config ~sock ~cache:(fresh_dir ()) ~workers:1
         ~queue_depth:4 ~jobs:1)
  in
  let server_domain = Domain.spawn (fun () -> Service.Server.run server) in
  let progress vhdl =
    P.Submit { P.default_submit with P.vhdl; progress = true }
  in
  let is_ack l = J.member "accepted" l <> None in
  let is_completion l = event_name l = None && not (is_ack l) in
  let lines =
    Service.Client.with_connection sock (fun c ->
        Service.Client.send c (progress (Core.Bench_circuits.counter 8));
        Service.Client.send c (progress (Core.Bench_circuits.decoder 4));
        let rec go completions acc =
          if completions = 2 then List.rev acc
          else
            let line = Service.Client.recv c in
            go
              (if is_completion line then completions + 1 else completions)
              (line :: acc)
        in
        go 0 [])
  in
  let id_of l = Option.bind (J.member "id" l) J.get_int in
  let first, second =
    match List.filter_map id_of (List.filter is_ack lines) with
    | [ a; b ] -> (a, b)
    | ids ->
        Alcotest.failf "expected two acknowledgements, got %d"
          (List.length ids)
  in
  let positions p =
    List.concat (List.mapi (fun i l -> if p l then [ i ] else []) lines)
  in
  let completion_at id =
    match positions (fun l -> id_of l = Some id && is_completion l) with
    | [ i ] -> i
    | _ -> Alcotest.failf "request %d: expected one completion" id
  in
  List.iter
    (fun id ->
      let name = Printf.sprintf "request %d" id in
      let stream =
        List.filter (fun l -> id_of l = Some id && event_name l <> None) lines
      in
      check_seqs name stream;
      (match List.rev stream with
      | last :: _ ->
          Alcotest.(check (option string)) (name ^ " ends with done")
            (Some "done") (event_name last)
      | [] -> Alcotest.failf "%s streamed nothing" name);
      Alcotest.(check bool) (name ^ " completes after its stream") true
        (List.for_all
           (fun i -> i < completion_at id)
           (positions (fun l -> id_of l = Some id && event_name l <> None)));
      Alcotest.(check bool) (name ^ " ok") true
        (Service.Client.ok (List.nth lines (completion_at id))))
    [ first; second ];
  Alcotest.(check bool)
    "no line of the second stream before the first completion" true
    (List.for_all
       (fun i -> i > completion_at first)
       (positions (fun l -> id_of l = Some second && not (is_ack l))));
  Service.Client.with_connection sock (fun c ->
      ignore (Service.Client.request c P.Shutdown));
  Domain.join server_domain

(* Client retry: a connection refused while the daemon is still coming
   up is retried into success, and a backpressure rejection is retried
   until the queue drains — reject first, accept later, same client —
   for a plain submit and for a progress submit, whose events go to the
   retry's callback. *)
let test_client_retry () =
  let sock = short_sock () in
  let cache = fresh_dir () in
  let server_domain =
    Domain.spawn (fun () ->
        Unix.sleepf 0.25;
        Service.Server.run
          (Service.Server.create
             (quiet_server_config ~sock ~cache ~workers:1 ~queue_depth:1
                ~jobs:1)))
  in
  (* nothing is listening yet: a bare connect refuses... *)
  (match Service.Client.connect sock with
  | c ->
      Service.Client.close c;
      Alcotest.fail "connected before the daemon was up"
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> ());
  (* ...but the retrying connect lands once the daemon binds *)
  let c = Service.Client.connect_retry ~retries:20 ~wait_ms:20 sock in
  let filler = Service.Client.connect sock in
  let wait_until what pred =
    let rec go n =
      if n > 2000 then Alcotest.failf "timeout waiting for %s" what
      else if not (pred ()) then begin
        Unix.sleepf 0.005;
        go (n + 1)
      end
    in
    go 0
  in
  let status name =
    Service.Client.with_connection sock (fun c ->
        let st = Service.Client.request c P.Status in
        Option.value (Option.bind (J.member name st) J.get_int) ~default:(-1))
  in
  (* fill the worker, then the queue of one (sequenced through status so
     the second submit queues instead of bouncing) *)
  let fill seed =
    let req vhdl = P.Submit { P.default_submit with P.vhdl; seed } in
    Service.Client.send filler (req (Core.Bench_circuits.multiplier 4));
    wait_until "first compile in flight" (fun () -> status "in_flight" = 1);
    Service.Client.send filler (req (Core.Bench_circuits.alu 8));
    wait_until "queue full" (fun () -> status "queue_depth" = 1)
  in
  let drain () =
    ignore (Service.Client.recv filler);
    ignore (Service.Client.recv filler)
  in
  fill 1;
  (* first attempts bounce with the structured backpressure code; the
     retry loop keeps going and wins a slot when the queue drains *)
  let resp =
    Service.Client.request_retry ~retries:12 ~wait_ms:10 c
      (submit_req (Core.Bench_circuits.counter 8))
  in
  Alcotest.(check bool) "rejected first, accepted later" true
    (Service.Client.ok resp);
  Alcotest.(check bool) "rejections were counted" true (status "rejected" >= 1);
  drain ();
  (* a progress submit bounces the same way, as its stream's first line.
     Seed 2 misses the cache the first round filled, so the fillers hold
     the worker again and the streamed compile runs its stages. *)
  fill 2;
  let rejected = status "rejected" in
  let events = ref [] in
  let resp =
    Service.Client.request_retry ~retries:12 ~wait_ms:10
      ~on_event:(fun e -> events := e :: !events)
      c
      (P.Submit
         {
           P.default_submit with
           P.vhdl = Core.Bench_circuits.counter 8;
           seed = 2;
           progress = true;
         })
  in
  Alcotest.(check bool) "streamed submit rejected first" true
    (status "rejected" > rejected);
  Alcotest.(check bool) "callback saw a stage-begin event" true
    (List.exists (fun e -> event_name e = Some "stage-begin") !events);
  Alcotest.(check bool) "returns the ok completion record" true
    (Service.Client.ok resp
    && event_name resp = None
    && J.member "result" resp <> None);
  drain ();
  Service.Client.close filler;
  let bye = Service.Client.request c P.Shutdown in
  Alcotest.(check bool) "shutdown acked" true (Service.Client.ok bye);
  Service.Client.close c;
  Domain.join server_domain

let suite =
  [
    ("jsonin roundtrip", `Quick, test_jsonin_roundtrip);
    ("jsonin values", `Quick, test_jsonin_values);
    ("jsonin accessors", `Quick, test_jsonin_accessors);
    ("protocol roundtrip", `Quick, test_protocol_roundtrip);
    ("protocol errors", `Quick, test_protocol_errors);
    ("hex roundtrip", `Quick, test_hex_roundtrip);
    ("manifest resolution", `Quick, test_manifest_resolution);
    ("concurrent stores, one key", `Slow, test_concurrent_store_same_key);
    ("gc scan only", `Quick, test_gc_scan_only);
    ("gc LRU eviction", `Quick, test_gc_lru_eviction);
    ("gc hit refreshes recency", `Quick, test_gc_hit_refreshes_recency);
    ("gc corrupt first", `Quick, test_gc_corrupt_first);
    ("gc removes stale temps", `Quick, test_gc_removes_stale_temps);
    ("daemon end to end", `Slow, test_daemon_e2e);
    ("daemon backpressure and drain", `Slow,
     test_daemon_backpressure_and_drain);
    ("daemon progress streaming", `Slow, test_daemon_streaming);
    ("daemon pipelined streams", `Slow, test_daemon_pipelined_streams);
    ("client retry: reject then accept", `Slow, test_client_retry);
  ]
  @ List.map
      (fun t ->
        let name, speed, fn = QCheck_alcotest.to_alcotest t in
        (name, speed, fn))
      [ prop_jsonin_print_stable ]
  @ [ ("jsonin parse_result", `Quick, test_jsonin_parse_result) ]
