(* Tests for the shared infrastructure library and the router's priority
   queue. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Lu ---------- *)

let test_lu_identity () =
  let a = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let x = Util.Lu.solve_system a [| 3.0; -4.0 |] in
  check_float "x0" 3.0 x.(0);
  check_float "x1" (-4.0) x.(1)

let test_lu_known_system () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Util.Lu.solve_system a [| 5.0; 10.0 |] in
  check_float "x" 1.0 x.(0);
  check_float "y" 3.0 x.(1)

let test_lu_pivoting () =
  (* zero on the leading diagonal forces a row swap *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Util.Lu.solve_system a [| 7.0; 9.0 |] in
  check_float "x" 9.0 x.(0);
  check_float "y" 7.0 x.(1)

let test_lu_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Util.Lu.Singular 1) (fun () ->
      ignore (Util.Lu.solve_system a [| 1.0; 2.0 |]))

let prop_lu_random_solve =
  QCheck.Test.make ~count:100 ~name:"Lu: A * solve(A, b) = b"
    QCheck.(pair (int_bound 1000) (int_range 1 8))
    (fun (seed, n) ->
      let rng = Util.Prng.create (seed + 1) in
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                Util.Prng.float_range rng (-1.0) 1.0
                +. if i = j then 4.0 else 0.0))
      in
      let b = Array.init n (fun _ -> Util.Prng.float_range rng (-10.0) 10.0) in
      let x = Util.Lu.solve_system a b in
      let residual = ref 0.0 in
      for i = 0 to n - 1 do
        let s = ref 0.0 in
        for j = 0 to n - 1 do
          s := !s +. (a.(i).(j) *. x.(j))
        done;
        residual := Float.max !residual (Float.abs (!s -. b.(i)))
      done;
      !residual < 1e-8)

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 and b = Util.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Util.Prng.int a 1000) (Util.Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Util.Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Util.Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let f = Util.Prng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_shuffle_is_permutation () =
  let rng = Util.Prng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Util.Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ---------- Pqueue: the router's wavefront heap ---------- *)

(* The priority queue lives in the router, its only user
   ([Route.Pathfinder.Heap]), so these properties run the sift code the
   wavefront runs. *)
module Heap = Route.Pathfinder.Heap

let is_empty q = Heap.length q = 0

(* Pop the minimum entry as a (priority, payload) pair. *)
let pqueue_pop q =
  let p = Heap.min_prio q in
  (p, Heap.pop q)

let pqueue_drain_prios q =
  let rec drain acc =
    if is_empty q then List.rev acc
    else drain (fst (pqueue_pop q) :: acc)
  in
  drain []

let test_pqueue_ordering () =
  let q = Heap.create () in
  List.iter (fun p -> Heap.push q p (int_of_float p))
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> Heap.pop q) in
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ] order

let test_pqueue_empty () =
  let q = Heap.create () in
  Alcotest.(check bool) "empty" true (is_empty q);
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Heap.pop q));
  Alcotest.check_raises "min_prio empty" Not_found (fun () ->
      ignore (Heap.min_prio q))

let prop_pqueue_sorts =
  QCheck.Test.make ~count:100 ~name:"Pqueue: pops come out sorted"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun floats ->
      let q = Heap.create () in
      List.iteri (fun i p -> Heap.push q p i) floats;
      pqueue_drain_prios q = List.sort compare floats)

(* Interleaved push/pop/peek against a sorted-multiset model: pops come
   out in priority order, each with the payload it was pushed with (the
   payload is the push's sequence number, so a payload popped twice or
   paired with another entry's priority is caught), peek ([min_prio])
   agrees with the next pop, length tracks, and popping empty raises. *)
let prop_pqueue_interleaved =
  QCheck.Test.make ~count:200 ~name:"Pqueue: interleaved ops match model"
    QCheck.(list (option (float_bound_exclusive 1000.0)))
    (fun ops ->
      let q = Heap.create () in
      let model = ref [] in
      let prio_of = Hashtbl.create 16 in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some p ->
              Heap.push q p !next;
              Hashtbl.replace prio_of !next p;
              incr next;
              model := List.sort compare (p :: !model);
              Heap.length q = List.length !model
              && Heap.min_prio q = List.hd !model
          | None -> (
              match !model with
              | [] -> (
                  match Heap.pop q with
                  | _ -> false
                  | exception Not_found -> is_empty q)
              | m :: rest ->
                  let p, x = pqueue_pop q in
                  model := rest;
                  let paired = Hashtbl.find_opt prio_of x = Some p in
                  Hashtbl.remove prio_of x;
                  p = m && paired
                  && Heap.length q = List.length rest))
        ops)

(* [clear] really empties: the queue drains as if freshly created. *)
let prop_pqueue_clear =
  QCheck.Test.make ~count:100 ~name:"Pqueue: clear then reuse is fresh"
    QCheck.(pair (list (float_bound_exclusive 100.0))
              (list (float_bound_exclusive 100.0)))
    (fun (first, second) ->
      let q = Heap.create () in
      List.iteri (fun i p -> Heap.push q p i) first;
      Heap.clear q;
      is_empty q
      && Heap.length q = 0
      && begin
           List.iteri (fun i p -> Heap.push q p i) second;
           pqueue_drain_prios q = List.sort compare second
         end)

(* Reference heap: the polymorphic, option-backed queue the router used
   before the queue was specialised to int payloads and moved into the
   router, kept verbatim in its sift logic.  Equal priorities pop in an
   order fixed by that logic, and routes depend on it, so the router's
   heap must reproduce it exactly. *)
module Ref_heap = struct
  type 'a t = {
    mutable prio : float array;
    mutable data : 'a option array;
    mutable size : int;
  }

  let create () = { prio = [||]; data = [||]; size = 0 }

  let clear t =
    Array.fill t.data 0 t.size None;
    t.size <- 0

  let grow t =
    let cap = Array.length t.prio in
    let ncap = if cap = 0 then 16 else 2 * cap in
    let np = Array.make ncap 0.0 and nd = Array.make ncap None in
    Array.blit t.prio 0 np 0 t.size;
    Array.blit t.data 0 nd 0 t.size;
    t.prio <- np;
    t.data <- nd

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.prio.(i) < t.prio.(parent) then begin
        let p = t.prio.(i) and d = t.data.(i) in
        t.prio.(i) <- t.prio.(parent);
        t.data.(i) <- t.data.(parent);
        t.prio.(parent) <- p;
        t.data.(parent) <- d;
        sift_up t parent
      end
    end

  let push t prio x =
    if t.size >= Array.length t.prio then grow t;
    t.prio.(t.size) <- prio;
    t.data.(t.size) <- Some x;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && t.prio.(l) < t.prio.(!smallest) then smallest := l;
    if r < t.size && t.prio.(r) < t.prio.(!smallest) then smallest := r;
    if !smallest <> i then begin
      let p = t.prio.(i) and d = t.data.(i) in
      t.prio.(i) <- t.prio.(!smallest);
      t.data.(i) <- t.data.(!smallest);
      t.prio.(!smallest) <- p;
      t.data.(!smallest) <- d;
      sift_down t !smallest
    end

  let pop t =
    if t.size = 0 then raise Not_found;
    let p = t.prio.(0) in
    let x = match t.data.(0) with Some x -> x | None -> assert false in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.prio.(0) <- t.prio.(t.size);
      t.data.(0) <- t.data.(t.size);
      t.data.(t.size) <- None;
      sift_down t 0
    end
    else t.data.(0) <- None;
    (p, x)
end

(* Many equal priorities (three distinct values), interleaved pushes and
   pops, with a clear in the middle: the (priority, payload) pop
   sequence equals the reference heap's, entry for entry. *)
let prop_pqueue_ties_match_reference =
  QCheck.Test.make ~count:300
    ~name:"Pqueue: equal priorities pop in reference order"
    QCheck.(list (option (int_bound 2)))
    (fun ops ->
      let q = Heap.create () and r = Ref_heap.create () in
      let next = ref 0 in
      let run ops =
        List.for_all
          (function
            | Some k ->
                let p = float_of_int k in
                Heap.push q p !next;
                Ref_heap.push r p !next;
                incr next;
                true
            | None ->
                if is_empty q then r.Ref_heap.size = 0
                else pqueue_pop q = Ref_heap.pop r)
          ops
      in
      let half = List.length ops / 2 in
      let first = List.filteri (fun i _ -> i < half) ops in
      let second = List.filteri (fun i _ -> i >= half) ops in
      run first
      && begin
           Heap.clear q;
           Ref_heap.clear r;
           run (second @ List.init (List.length second) (fun _ -> None))
         end)

(* ---------- Union_find ---------- *)

let test_union_find () =
  let uf = Util.Union_find.create 10 in
  Alcotest.(check int) "initial components" 10 (Util.Union_find.components uf);
  Util.Union_find.union uf 0 1;
  Util.Union_find.union uf 1 2;
  Alcotest.(check bool) "0~2" true (Util.Union_find.same uf 0 2);
  Alcotest.(check bool) "0!~3" false (Util.Union_find.same uf 0 3);
  Alcotest.(check int) "components" 8 (Util.Union_find.components uf)

(* ---------- Stats ---------- *)

let test_stats () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Util.Stats.mean a);
  check_float "median" 2.5 (Util.Stats.median a);
  let lo, hi = Util.Stats.min_max a in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi;
  check_float "geomean of 2,8" 4.0 (Util.Stats.geomean [| 2.0; 8.0 |]);
  check_float "variance" (5.0 /. 3.0) (Util.Stats.variance a)

(* ---------- Tablefmt ---------- *)

let test_tablefmt_alignment () =
  let s = Util.Tablefmt.render [ "name"; "v" ] [ [ "a"; "10" ]; [ "bb"; "5" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "rows" 4 (List.length lines);
  (* numeric column right-aligned: the 5 sits under the 0 of 10 *)
  Alcotest.(check bool) "right aligned" true
    (match lines with
    | [ _; _; r1; r2 ] ->
        String.length r1 = String.length r2
    | _ -> false)

(* ---------- Parallel ---------- *)

let test_parallel_map_ordering () =
  let xs = Array.init 100 Fun.id in
  let expect = Array.map (fun i -> i * i) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Util.Parallel.map ~jobs (fun i -> i * i) xs))
    [ 1; 2; 4; 7 ]

let test_parallel_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||]
    (Util.Parallel.map ~jobs:4 (fun i -> i) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |]
    (Util.Parallel.map ~jobs:4 (fun i -> i * 9) [| 1 |])

exception Boom of int

let test_parallel_exception_first_index () =
  (* several tasks fail; the lowest index must be the one re-raised,
     exactly as a sequential loop would surface it *)
  let raised =
    match
      Util.Parallel.map ~jobs:4
        (fun i -> if i mod 3 = 1 then raise (Boom i) else i)
        (Array.init 32 Fun.id)
    with
    | _ -> None
    | exception Boom i -> Some i
  in
  Alcotest.(check (option int)) "lowest failing index" (Some 1) raised

let test_parallel_nested_sequential () =
  (* a map inside a pool worker must not spawn further domains *)
  let inner =
    Util.Parallel.map ~jobs:2
      (fun _ -> Util.Parallel.resolve_jobs ~jobs:8 ())
      (Array.init 4 Fun.id)
  in
  Array.iter (fun j -> Alcotest.(check int) "nested resolves to 1" 1 j) inner;
  Alcotest.(check bool) "caller left worker mode" false
    (Util.Parallel.in_worker ())

let prop_parallel_matches_sequential =
  QCheck.Test.make ~count:50 ~name:"Parallel.map = Array.map for any jobs"
    QCheck.(pair (int_range 1 8) (int_range 0 40))
    (fun (jobs, n) ->
      let xs = Array.init n (fun i -> i * 7 mod 13) in
      Util.Parallel.map ~jobs (fun x -> (x * x) + 1) xs
      = Array.map (fun x -> (x * x) + 1) xs)

let suite =
  [
    ("lu identity", `Quick, test_lu_identity);
    ("lu known system", `Quick, test_lu_known_system);
    ("lu pivoting", `Quick, test_lu_pivoting);
    ("lu singular", `Quick, test_lu_singular);
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng bounds", `Quick, test_prng_bounds);
    ("prng shuffle permutation", `Quick, test_prng_shuffle_is_permutation);
    ("pqueue ordering", `Quick, test_pqueue_ordering);
    ("pqueue empty", `Quick, test_pqueue_empty);
    ("union find", `Quick, test_union_find);
    ("stats", `Quick, test_stats);
    ("tablefmt alignment", `Quick, test_tablefmt_alignment);
    ("parallel map ordering", `Quick, test_parallel_map_ordering);
    ("parallel empty/singleton", `Quick, test_parallel_empty_and_singleton);
    ("parallel exception propagation", `Quick,
     test_parallel_exception_first_index);
    ("parallel nested sequential", `Quick, test_parallel_nested_sequential);
    QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
    QCheck_alcotest.to_alcotest prop_lu_random_solve;
    QCheck_alcotest.to_alcotest prop_pqueue_sorts;
    QCheck_alcotest.to_alcotest prop_pqueue_interleaved;
    QCheck_alcotest.to_alcotest prop_pqueue_clear;
    QCheck_alcotest.to_alcotest prop_pqueue_ties_match_reference;
  ]
