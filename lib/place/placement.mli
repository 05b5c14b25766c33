(** A placement assignment plus the bounding-box wirelength cost. *)

type t = {
  problem : Problem.t;
  loc : Fpga_arch.Grid.location array;       (** per block *)
  clb_at : int array array;                  (** (x, y) -> block or -1 *)
  pad_at : int array;
      (** {!pad_slot} (x, y, sub) -> block or -1.  Like [clb_at], a
          function of [loc]: the inverse of its blocks' slots. *)
}

val pad_slot : Fpga_arch.Grid.t -> int -> int -> int -> int
(** [pad_slot grid x y sub]: the index of pad slot (x, y, sub) in
    [pad_at].  The numbering is dense: the pad slots of
    {!Fpga_arch.Grid.pad_positions} map one to one onto
    [0 .. Fpga_arch.Grid.n_pad_slots grid - 1]. *)

val location : t -> int -> Fpga_arch.Grid.location
(** Slot currently holding a block. *)

val coords : t -> int -> int * int
(** Grid coordinates of a block (pads report their perimeter position). *)

val initial : ?seed:int -> Problem.t -> t
(** Random legal placement. *)

val q_factor : int -> float
(** VPR's fanout correction for the half-perimeter metric. *)

val net_bbox : t -> Problem.net -> int * int * int * int
(** (xmin, xmax, ymin, ymax). *)

val net_cost : t -> Problem.net -> float
(** q(fanout) x half-perimeter. *)

val total_cost : t -> float
(** Sum of {!net_cost} over every net (the annealer's objective). *)

(** {1 Incremental bounding boxes}

    VPR-style cached net extents with count-at-boundary bookkeeping, so
    the annealer evaluates a move's wirelength delta in O(touched nets)
    instead of rescanning terminals.  Extents are integers: a maintained
    box yields costs {e bit-identical} to {!net_cost}'s scan. *)

type box = {
  mutable xmin : int;
  mutable xmax : int;
  mutable ymin : int;
  mutable ymax : int;
  mutable on_xmin : int;  (** terminals currently at each boundary *)
  mutable on_xmax : int;
  mutable on_ymin : int;
  mutable on_ymax : int;
}

type bbox_cache = {
  boxes : box array;  (** per net *)
  qs : float array;   (** {!q_factor} per net, precomputed *)
  touch : (int * int) array array;
      (** per block: (net index, terminal multiplicity) pairs, ascending
          net index *)
}

val bbox_cache : t -> bbox_cache
(** Scan every net of the current placement into a fresh cache. *)

val box_cost : bbox_cache -> int -> float
(** q x half-perimeter from the cached box; equals {!net_cost} whenever
    the box matches the placement. *)

val scan_box : t -> int -> box -> unit
(** Recompute net [ni]'s box from the current placement (the
    get-from-scratch fallback). *)

val copy_box : src:box -> dst:box -> unit

val empty_box : unit -> box

val shift_box : box -> count:int -> src:int * int -> dst:int * int -> bool
(** Move [count] terminals of the box from [src] to [dst] coordinates.
    Returns [false] when a boundary lost its last occupant, leaving the
    extent unknown — the caller must {!scan_box} (with every mover
    already at its final location) and apply no further shifts for that
    net this move. *)

val legal : t -> bool
(** Every block on a distinct slot of the right kind (used by tests). *)
