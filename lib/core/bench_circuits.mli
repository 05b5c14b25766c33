(** Benchmark circuit generators: the workload suite standing in for the
    MCNC LGSynth93 circuits the paper references (DESIGN.md §4).

    Each generator emits synthesizable VHDL covering the circuit families
    the original suite spans: arithmetic, random logic, shift/LFSR
    structures, FSM control and a hierarchical datapath. *)

val counter : int -> string
(** n-bit counter with enable and asynchronous reset. *)

val shift_register : int -> string

val lfsr : int -> string
(** Fibonacci LFSR seeded to 1 on reset. *)

val alu : int -> string
(** Registered and/or/xor/add ALU. *)

val parity : int -> string

val decoder : int -> string
(** n-to-2^n one-hot decoder (case statement). *)

val priority_encoder : int -> string

val multiplier : int -> string
(** Shift-and-add array multiplier, registered output. *)

val gray_counter : int -> string

val traffic_fsm : string
(** A small Moore FSM (control-dominated class). *)

val accumulator : int -> string

val pwm : int -> string
(** Counter + magnitude comparator (relational operators). *)

val datapath : int -> string
(** Hierarchical: adder + register bank composed by entity instances. *)

val gen_adder : int -> string
(** Structural ripple adder: for-generate over full-adder instances. *)

val find : string -> string option
(** [find name] is the VHDL of the design whose top entity is [name]:
    [traffic], or a family's entity prefix followed by a size in
    decimal with no leading zero, from 2 up to 8 for [decoder] and 64
    for [counter], [shiftreg], [lfsr], [alu], [parity], [prienc],
    [mult], [gray], [accum], [pwm], [datapath] and [gen_adder]
    ([mult24], [alu32]).  [None] for any other name. *)

val suite : (string * string) list
(** The evaluation suite (name, VHDL); each name is its design's top
    entity, so [find name] gives the same VHDL. *)

val quick_suite : (string * string) list
(** A 3-circuit subset for fast tests. *)

val stress : (string * string) list
(** Five larger designs (alu16, mult8, counter32, accum24, mult12) for
    the full-flow scaling check. *)
