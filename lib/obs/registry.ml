(* Typed metric registry with domain-safe recording.

   One table guarded by one mutex: every record is one find-or-create
   plus update under the lock, and [snapshot] reads the table under the
   same lock.  A compile records on the order of ten thousand values,
   so the uncontended lock costs well under a millisecond of it.  Worker
   domains spawned by Util.Parallel.map are joined before [map] returns,
   so a snapshot taken afterwards sees every worker-side record.

   Update discipline (the deterministic-merge contract of
   docs/OBSERVABILITY.md): every update is commutative and associative
   over the values actually recorded — counter sums, timer interval
   sums, histogram bucket-count sums, min/max — so the table does not
   depend on which domain recorded what, or in which order.  Histograms
   deliberately expose no sum/mean (float addition order would leak
   domain scheduling); percentiles are derived from integer bucket
   counts.  A gauge keeps its last write. *)

type gcell = { mutable g : float; mutable g_volatile : bool }
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

(* [owned]: the creating domain has recorded this key, which puts it in
   [order]. *)
type slot = { cell : cell; mutable owned : bool }

type t = {
  lock : Mutex.t;
  slots : (string, slot) Hashtbl.t;
  owner : Domain.id; (* the creating domain: defines snapshot order *)
  mutable order : string list; (* the owner's first-record order, reversed *)
}

let create () =
  { lock = Mutex.create (); slots = Hashtbl.create 64; owner = Domain.self (); order = [] }

let kind_name = function
  | CCounter _ -> "counter"
  | CGauge _ -> "gauge"
  | CTimer _ -> "timer"
  | CHist _ -> "histogram"

let conflict key c want =
  invalid_arg
    (Printf.sprintf "Obs.Registry: key %S already recorded as a %s, not a %s" key
       (kind_name c) want)

(* Find or create [key]'s cell; the caller holds [t.lock].  The owner's
   first record of a key fixes the key's place in the snapshot order. *)
let cell t key make =
  let s =
    match Hashtbl.find_opt t.slots key with
    | Some s -> s
    | None ->
        let s = { cell = make (); owned = false } in
        Hashtbl.add t.slots key s;
        s
  in
  if (not s.owned) && Domain.self () = t.owner then begin
    s.owned <- true;
    t.order <- key :: t.order
  end;
  s.cell

let incr ?(by = 1) t key =
  Mutex.protect t.lock (fun () ->
      match cell t key (fun () -> CCounter (ref 0)) with
      | CCounter r -> r := !r + by
      | c -> conflict key c "counter")

let set ?(volatile = false) t key v =
  Mutex.protect t.lock (fun () ->
      match cell t key (fun () -> CGauge { g = v; g_volatile = volatile }) with
      | CGauge c ->
          c.g <- v;
          if volatile then c.g_volatile <- true
      | c -> conflict key c "gauge")

(* v <= 0 gets its own bucket below every positive one; a positive v in
   [2^(e-1), 2^e) lands in bucket e = exponent of frexp. *)
let bucket_of v = if v <= 0.0 then min_int else snd (Float.frexp v)

let observe t key v =
  Mutex.protect t.lock (fun () ->
      match
        cell t key (fun () ->
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
      | c -> conflict key c "histogram")

let add_time t key ~wall_s ~cpu_s =
  Mutex.protect t.lock (fun () ->
      match cell t key (fun () -> CTimer { t_wall = 0.; t_cpu = 0.; t_n = 0 }) with
      | CTimer c ->
          c.t_wall <- c.t_wall +. wall_s;
          c.t_cpu <- c.t_cpu +. cpu_s;
          c.t_n <- c.t_n + 1
      | c -> conflict key c "timer")

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

(* Percentile q of a histogram: walk buckets in ascending
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
  Mutex.protect t.lock (fun () ->
      (* Order: the creating domain's first-record order (the flow's stage
         order), then the keys only other domains recorded, in ascending
         key order — both independent of domain scheduling. *)
      let rest =
        Hashtbl.fold (fun key s acc -> if s.owned then acc else key :: acc) t.slots []
        |> List.sort compare
      in
      List.map
        (fun key ->
          let c = (Hashtbl.find t.slots key).cell in
          { key; value = value_of c; volatile = volatile_of c })
        (List.rev_append t.order rest))

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
