(* Binary-heap priority queue: float priorities, int payloads (min-heap).

   The PathFinder router's Dijkstra/A* wavefront is the only user; it
   pushes RR node ids.  Stale entries are handled by the caller
   (decrease-key is emulated by re-insertion, the standard trick for
   Dijkstra).

   Priorities and payloads live in two flat arrays, so [push] and [pop]
   allocate nothing of their own: [pop] returns the payload alone, and
   the caller reads the priority first with [min_prio].  The sift logic
   fixes the order in which equal priorities pop, and the router's
   routes depend on that order, so it is part of the determinism
   contract (docs/ARCHITECTURE.md). *)

type t = {
  mutable prio : float array;
  mutable data : int array;
  mutable size : int;
}

let create () = { prio = [||]; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let clear t = t.size <- 0

let grow t =
  let cap = Array.length t.prio in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let np = Array.make ncap 0.0 and nd = Array.make ncap 0 in
  Array.blit t.prio 0 np 0 t.size;
  Array.blit t.data 0 nd 0 t.size;
  t.prio <- np;
  t.data <- nd

(* The sifts take the arrays as arguments; the type annotations keep
   their comparisons and accesses specialised to float and int (left
   polymorphic, they box every priority they read). *)
let rec sift_up (prio : float array) (data : int array) i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if prio.(i) < prio.(parent) then begin
      let p = prio.(i) and d = data.(i) in
      prio.(i) <- prio.(parent);
      data.(i) <- data.(parent);
      prio.(parent) <- p;
      data.(parent) <- d;
      sift_up prio data parent
    end
  end

let push t p x =
  if t.size >= Array.length t.prio then grow t;
  t.prio.(t.size) <- p;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t.prio t.data (t.size - 1)

let rec sift_down (prio : float array) (data : int array) size i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < size && prio.(l) < prio.(i) then l else i in
  let smallest =
    if r < size && prio.(r) < prio.(smallest) then r else smallest
  in
  if smallest <> i then begin
    let p = prio.(i) and d = data.(i) in
    prio.(i) <- prio.(smallest);
    data.(i) <- data.(smallest);
    prio.(smallest) <- p;
    data.(smallest) <- d;
    sift_down prio data size smallest
  end

let min_prio t =
  if t.size = 0 then raise Not_found;
  t.prio.(0)

(* Remove the minimum-priority entry and return its payload. *)
let pop t =
  if t.size = 0 then raise Not_found;
  let x = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.prio.(0) <- t.prio.(t.size);
    t.data.(0) <- t.data.(t.size);
    sift_down t.prio t.data t.size 0
  end;
  x
