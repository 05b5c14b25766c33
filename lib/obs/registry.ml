(* Typed metric registry with domain-safe recording.

   Each domain that records into a registry gets its own private buffer.
   A buffer is only ever mutated by its owning domain; the registry keeps
   a mutex-protected list of all buffers purely so [snapshot] can find
   them.  Worker domains spawned by Util.Parallel.map are joined before
   [map] returns, which gives the snapshotting domain a happens-before
   edge over every worker-side record.

   Buffer lookup is a one-entry per-domain cache (a single process-wide
   Domain.DLS slot holding the last (registry, buffer) pair this domain
   recorded into) backed by a mutex-protected domain-id -> buffer table
   in the registry itself.  The hot path — repeated records into the
   same registry, which is every flow stage — is one DLS read and a
   physical-equality check, no lock.  Crucially the process-wide
   footprint of a registry is bounded and collectable: creating one
   registry per request in a long-running daemon leaves behind nothing
   but the single cache slot per domain (holding at most the most
   recent registry), because DLS keys are never allocated per registry.
   (The previous design allocated a fresh Domain.DLS key per registry;
   DLS storage is append-only per domain, so a daemon serving millions
   of requests would have grown every domain's DLS array without
   bound.)

   Merge discipline (the deterministic-merge contract of
   docs/OBSERVABILITY.md): every merge operation is commutative and
   associative over the values actually recorded — counter sums, timer
   interval sums, histogram bucket-count sums, min/max — so the merged
   snapshot does not depend on which domain recorded what.  Histograms
   deliberately expose no sum/mean (float addition order would leak
   domain scheduling); percentiles are derived from integer bucket
   counts.  Gauges are last-write-wins by a global sequence number drawn
   from an atomic at [set] time. *)

type gcell = { mutable g : float; mutable g_seq : int; mutable g_volatile : bool }
type tcell = { mutable t_wall : float; mutable t_cpu : float; mutable t_n : int }

type hcell = {
  mutable h_n : int;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : (int, int ref) Hashtbl.t; (* frexp exponent -> count *)
}

type cell =
  | CCounter of int ref
  | CGauge of gcell
  | CTimer of tcell
  | CHist of hcell

type buffer = {
  cells : (string, cell) Hashtbl.t;
  mutable order : string list; (* first-record order, reversed *)
}

type t = {
  lock : Mutex.t;
  mutable buffers : buffer list; (* registration order, reversed *)
  mutable by_domain : (int * buffer) list; (* domain id -> buffer *)
  main : buffer; (* the creating domain's buffer: defines snapshot order *)
  seq : int Atomic.t;
}

let new_buffer () = { cells = Hashtbl.create 32; order = [] }

(* The process-wide per-domain cache: the last (registry, buffer) pair
   this domain recorded into.  One DLS key for every registry ever
   created, so registries are cheap and collectable at daemon scale. *)
let dls_cache : (t * buffer) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let create () =
  let main = new_buffer () in
  let t =
    {
      lock = Mutex.create ();
      buffers = [ main ];
      by_domain = [ ((Domain.self () :> int), main) ];
      main;
      seq = Atomic.make 0;
    }
  in
  (* Pre-seed the creating domain's cache with [main] so its records land
     there; other domains fall into the slow path of [buffer]. *)
  Domain.DLS.get dls_cache := Some (t, main);
  t

let buffer t =
  let cell = Domain.DLS.get dls_cache in
  match !cell with
  | Some (r, b) when r == t -> b
  | _ ->
      (* Domain switch (or first record on this domain): find or create
         this domain's buffer in the registry's table, then cache it.
         Domain ids are never shared by two live domains, so each buffer
         keeps a single writer even if an id is ever reused. *)
      let did = (Domain.self () :> int) in
      Mutex.lock t.lock;
      let b =
        match List.assq_opt did t.by_domain with
        | Some b -> b
        | None ->
            let b = new_buffer () in
            t.by_domain <- (did, b) :: t.by_domain;
            t.buffers <- b :: t.buffers;
            b
      in
      Mutex.unlock t.lock;
      cell := Some (t, b);
      b

let kind_name = function
  | CCounter _ -> "counter"
  | CGauge _ -> "gauge"
  | CTimer _ -> "timer"
  | CHist _ -> "histogram"

let conflict key c want =
  invalid_arg
    (Printf.sprintf "Obs.Registry: key %S already recorded as a %s, not a %s" key
       (kind_name c) want)

let cell b key make =
  match Hashtbl.find_opt b.cells key with
  | Some c -> c
  | None ->
      let c = make () in
      Hashtbl.add b.cells key c;
      b.order <- key :: b.order;
      c

let incr ?(by = 1) t key =
  match cell (buffer t) key (fun () -> CCounter (ref 0)) with
  | CCounter r -> r := !r + by
  | c -> conflict key c "counter"

let set ?(volatile = false) t key v =
  let s = Atomic.fetch_and_add t.seq 1 in
  match cell (buffer t) key (fun () -> CGauge { g = v; g_seq = s; g_volatile = volatile }) with
  | CGauge c ->
      c.g <- v;
      c.g_seq <- s;
      if volatile then c.g_volatile <- true
  | c -> conflict key c "gauge"

(* v <= 0 gets its own bucket below every positive one; a positive v in
   [2^(e-1), 2^e) lands in bucket e = exponent of frexp. *)
let bucket_of v = if v <= 0.0 then min_int else snd (Float.frexp v)

let observe t key v =
  match
    cell (buffer t) key (fun () ->
        CHist { h_n = 0; h_min = infinity; h_max = neg_infinity; h_buckets = Hashtbl.create 8 })
  with
  | CHist h ->
      h.h_n <- h.h_n + 1;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let e = bucket_of v in
      (match Hashtbl.find_opt h.h_buckets e with
      | Some r -> Stdlib.incr r
      | None -> Hashtbl.add h.h_buckets e (ref 1))
  | c -> conflict key c "histogram"

let add_time t key ~wall_s ~cpu_s =
  match cell (buffer t) key (fun () -> CTimer { t_wall = 0.; t_cpu = 0.; t_n = 0 }) with
  | CTimer c ->
      c.t_wall <- c.t_wall +. wall_s;
      c.t_cpu <- c.t_cpu +. cpu_s;
      c.t_n <- c.t_n + 1
  | c -> conflict key c "timer"

let time t key f =
  let w0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  let v = f () in
  add_time t key ~wall_s:(Unix.gettimeofday () -. w0) ~cpu_s:(Sys.time () -. c0);
  v

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type histogram = { count : int; min : float; max : float; p50 : float; p90 : float }

type value =
  | Counter of int
  | Gauge of float
  | Timer of { wall_s : float; cpu_s : float; intervals : int }
  | Histogram of histogram

type entry = { key : string; value : value; volatile : bool }
type snapshot = entry list

(* Percentile q of a merged histogram: walk buckets in ascending
   exponent order until the cumulative count reaches q*n; the answer is
   that bucket's upper bound 2^e, clamped into [min, max] so one-bucket
   histograms report exact values. *)
let percentile h q =
  if h.h_n = 0 then 0.0
  else
    let exps =
      Hashtbl.fold (fun e _ acc -> e :: acc) h.h_buckets [] |> List.sort compare
    in
    let need = q *. float_of_int h.h_n in
    let rec walk cum = function
      | [] -> h.h_max
      | e :: rest ->
          let cum = cum + !(Hashtbl.find h.h_buckets e) in
          if float_of_int cum >= need then
            let ub = if e = min_int then 0.0 else Float.ldexp 1.0 e in
            Float.min (Float.max ub h.h_min) h.h_max
          else walk cum rest
    in
    walk 0 exps

let copy_cell = function
  | CCounter r -> CCounter (ref !r)
  | CGauge g -> CGauge { g with g = g.g }
  | CTimer c -> CTimer { c with t_wall = c.t_wall }
  | CHist h ->
      let buckets = Hashtbl.create (Hashtbl.length h.h_buckets) in
      Hashtbl.iter (fun e r -> Hashtbl.add buckets e (ref !r)) h.h_buckets;
      CHist { h with h_buckets = buckets }

let merge_cell key a b =
  match (a, b) with
  | CCounter x, CCounter y -> x := !x + !y
  | CGauge x, CGauge y ->
      if y.g_seq >= x.g_seq then begin
        x.g <- y.g;
        x.g_seq <- y.g_seq
      end;
      x.g_volatile <- x.g_volatile || y.g_volatile
  | CTimer x, CTimer y ->
      x.t_wall <- x.t_wall +. y.t_wall;
      x.t_cpu <- x.t_cpu +. y.t_cpu;
      x.t_n <- x.t_n + y.t_n
  | CHist x, CHist y ->
      x.h_n <- x.h_n + y.h_n;
      if y.h_min < x.h_min then x.h_min <- y.h_min;
      if y.h_max > x.h_max then x.h_max <- y.h_max;
      Hashtbl.iter
        (fun e r ->
          match Hashtbl.find_opt x.h_buckets e with
          | Some rx -> rx := !rx + !r
          | None -> Hashtbl.add x.h_buckets e (ref !r))
        y.h_buckets
  | a, b -> conflict key a (kind_name b)

let value_of = function
  | CCounter r -> Counter !r
  | CGauge g -> Gauge g.g
  | CTimer c -> Timer { wall_s = c.t_wall; cpu_s = c.t_cpu; intervals = c.t_n }
  | CHist h ->
      let mn = if h.h_n = 0 then 0.0 else h.h_min in
      let mx = if h.h_n = 0 then 0.0 else h.h_max in
      Histogram { count = h.h_n; min = mn; max = mx; p50 = percentile h 0.5; p90 = percentile h 0.9 }

let volatile_of = function
  | CTimer _ -> true (* wall/CPU seconds can never reproduce across runs *)
  | CGauge g -> g.g_volatile
  | CCounter _ | CHist _ -> false

let snapshot t =
  Mutex.lock t.lock;
  let bufs = List.rev t.buffers in
  Mutex.unlock t.lock;
  let merged : (string, cell) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun key c ->
          match Hashtbl.find_opt merged key with
          | Some m -> merge_cell key m c
          | None -> Hashtbl.add merged key (copy_cell c))
        b.cells)
    bufs;
  (* Order: the creating domain's first-record order (the flow's stage
     order), then any worker-only keys in ascending key order — both
     independent of domain scheduling. *)
  let main_keys = List.rev t.main.order in
  let rest =
    Hashtbl.fold
      (fun key _ acc -> if Hashtbl.mem t.main.cells key then acc else key :: acc)
      merged []
    |> List.sort compare
  in
  List.map
    (fun key ->
      let c = Hashtbl.find merged key in
      { key; value = value_of c; volatile = volatile_of c })
    (main_keys @ rest)

let find snap key = List.find_map (fun e -> if e.key = key then Some e.value else None) snap

let counter snap key = match find snap key with Some (Counter n) -> n | _ -> 0

let value_json = function
  | Counter n -> Emit.Obj [ ("kind", Emit.String "counter"); ("value", Emit.Int n) ]
  | Gauge v -> Emit.Obj [ ("kind", Emit.String "gauge"); ("value", Emit.Float v) ]
  | Timer { wall_s; cpu_s; intervals } ->
      Emit.Obj
        [
          ("kind", Emit.String "timer");
          ("cpu_s", Emit.Float cpu_s);
          ("wall_s", Emit.Float wall_s);
          ("intervals", Emit.Int intervals);
        ]
  | Histogram h ->
      Emit.Obj
        [
          ("kind", Emit.String "histogram");
          ("count", Emit.Int h.count);
          ("min", Emit.Float h.min);
          ("max", Emit.Float h.max);
          ("p50", Emit.Float h.p50);
          ("p90", Emit.Float h.p90);
        ]

let to_json ?(deterministic = false) snap =
  let entries = if deterministic then List.filter (fun e -> not e.volatile) snap else snap in
  let entries = List.sort (fun a b -> compare a.key b.key) entries in
  Emit.Obj (List.map (fun e -> (e.key, value_json e.value)) entries)
