(** Binary-heap priority queue with float priorities and int payloads
    (min-heap).

    The PathFinder router's Dijkstra/A* wavefront pushes RR node ids
    here.  Decrease-key is emulated by re-insertion (the standard
    Dijkstra trick); stale entries are the caller's concern.

    [push], [pop] and [clear] allocate nothing of their own (no tuple,
    no option box), so one queue can serve every search of a routing.  Entries of equal priority pop in an
    order fixed by the sift logic; routes depend on it, so it is part of
    the router's determinism contract (docs/ARCHITECTURE.md). *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val clear : t -> unit
(** Remove every entry in O(1); storage is retained. *)

val push : t -> float -> int -> unit
(** [push q priority x] inserts [x]. *)

val min_prio : t -> float
(** The priority of the minimum entry, which [pop] removes next.
    @raise Not_found when empty. *)

val pop : t -> int
(** Remove the minimum-priority entry and return its payload.
    @raise Not_found when empty. *)
