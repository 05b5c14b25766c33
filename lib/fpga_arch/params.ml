(* FPGA architecture parameters (what DUTYS captures in the architecture
   file).  Defaults are the platform the paper selected in §3:
   K = 4, N = 5, I = 12, pass-transistor switches at 10x minimum width,
   length-1 segments, disjoint switch boxes (Fs = 3), Fc = 1.  The §3
   interconnect circuit (pass-transistor switches, Fs = 3, registrable
   CLB outputs) is the only one the flow models, so it is fixed rather
   than described; the channel itself is the segment mix. *)

(* Metal configurations of the routing wires (the three layouts explored
   in Figs. 8-10).  Mirrored by [Spice.Tech.wire_config]; this library
   sits below lib/spice, so the electrical translation lives in the
   consumers (Route.Timing maps these onto the measured per-length RC). *)
type metal = Metal_min_min | Metal_min_double | Metal_double_double

let metal_name = function
  | Metal_min_min -> "min_min"
  | Metal_min_double -> "min_double"
  | Metal_double_double -> "double_double"

let metal_of_name = function
  | "min_min" -> Some Metal_min_min
  | "min_double" -> Some Metal_min_double
  | "double_double" -> Some Metal_double_double
  | _ -> None

(* One segment type of a mixed-length channel: [s_count] tracks out of
   every sum-of-counts tracks carry wires spanning [s_length] tiles, with
   their own connection-box fractions and metal layout.  A channel
   declaring [4xL1 + 4xL2 + 2xL4] repeats that 10-track pattern across
   the channel width (truncated to a prefix when the width is smaller
   than one repetition). *)
type segment = {
  s_length : int;   (* logic-block tiles spanned by one wire *)
  s_count : int;    (* tracks of this type per pattern repetition *)
  s_fc_in : float;  (* input-pin connection-box fraction, over this type *)
  s_fc_out : float; (* output-pin connection-box fraction, over this type *)
  s_metal : metal;
}

type t = {
  name : string;
  k : int;                 (* LUT inputs *)
  n : int;                 (* BLEs per CLB *)
  i : int;                 (* CLB inputs *)
  segments : segment list; (* the channel: the mixed-length segment spec *)
  switch_width : float;    (* multiples of the minimum transistor width *)
  io_rat : int;            (* IO pads per perimeter grid position *)
  gated_clock : bool;      (* BLE + CLB gated clocks (paper Tables 2-3) *)
}

(* The paper's empirical rule: I = (K/2)(N+1) gives ~98% BLE utilisation. *)
let recommended_inputs ~k ~n = k * (n + 1) / 2

exception Invalid_params of string

let validate_segment idx (s : segment) =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        raise
          (Invalid_params (Printf.sprintf "segment %d (L%d): %s" idx s.s_length msg)))
      fmt
  in
  if s.s_length < 1 then
    fail "length must be a positive tile count (got %d)" s.s_length;
  if s.s_length > 64 then
    fail "length %d exceeds the supported maximum of 64 tiles" s.s_length;
  if s.s_count < 1 then
    fail "count must be a positive number of tracks per pattern (got %d)"
      s.s_count;
  (* negated ranges, so NaN fails them too *)
  if not (s.s_fc_in > 0.0 && s.s_fc_in <= 1.0) then
    fail "Fc_in must be in (0, 1] (got %g)" s.s_fc_in;
  if not (s.s_fc_out > 0.0 && s.s_fc_out <= 1.0) then
    fail "Fc_out must be in (0, 1] (got %g)" s.s_fc_out

let validate p =
  let fail msg = raise (Invalid_params msg) in
  if p.k < 2 || p.k > 5 then fail "K must be between 2 and 5";
  if p.n < 1 then fail "N must be positive";
  if p.i < p.k then fail "I must be at least K";
  if p.i > p.k * p.n then fail "I must not exceed K*N (a full crossbar)";
  if p.segments = [] then
    fail "the segment mix must declare at least one segment type";
  List.iteri validate_segment p.segments;
  if not (p.switch_width >= 1.0 && Float.is_finite p.switch_width) then
    fail "switch width must be finite and at least the minimum (1)";
  if p.io_rat < 1 then fail "io_rat must be positive";
  p

(* ---------- segment-mix helpers ---------- *)

(* "4xL1+4xL2+2xL4" <-> a segment list (defaults for Fc and metal). *)
let segments_of_string ?(fc_in = 1.0) ?(fc_out = 1.0)
    ?(metal = Metal_min_double) text =
  let fail msg = raise (Invalid_params msg) in
  let text = String.trim text in
  if text = "" then fail "segment mix must be non-empty (e.g. \"4xL1+2xL4\")";
  String.split_on_char '+' text
  |> List.map (fun term ->
         let term = String.trim term in
         let count, rest =
           match String.index_opt term 'x' with
           | Some i ->
               let c =
                 try int_of_string (String.sub term 0 i)
                 with _ ->
                   fail
                     (Printf.sprintf
                        "bad segment term %S: expected COUNTxL<len>" term)
               in
               (c, String.sub term (i + 1) (String.length term - i - 1))
           | None -> (1, term)
         in
         let len =
           if String.length rest >= 2 && (rest.[0] = 'L' || rest.[0] = 'l')
           then
             try int_of_string (String.sub rest 1 (String.length rest - 1))
             with _ ->
               fail (Printf.sprintf "bad segment length in term %S" term)
           else fail (Printf.sprintf "bad segment term %S: expected L<len>" term)
         in
         {
           s_length = len;
           s_count = count;
           s_fc_in = fc_in;
           s_fc_out = fc_out;
           s_metal = metal;
         })

let amdrel =
  {
    name = "amdrel_018";
    k = 4;
    n = 5;
    i = recommended_inputs ~k:4 ~n:5;
    (* one type of length-1 wires at Fc = 1 in the §3.3
       min-width/double-spacing metal *)
    segments = segments_of_string "1xL1";
    switch_width = 10.0;
    io_rat = 2;
    gated_clock = true;
  }

let mix_name p =
  p.segments
  |> List.map (fun s -> Printf.sprintf "%dxL%d" s.s_count s.s_length)
  |> String.concat "+"

(* Per-track channel composition: track [t] of a width-[width] channel
   carries segment type [fst plan.(t)] with stagger offset
   [snd plan.(t)] (the wire covering tile 1 on that track starts
   [offset] tiles before the channel, so consecutive tracks of one type
   break at evenly distributed positions).  For a single-type channel
   this reduces to offset = t mod length. *)
let track_plan p ~width =
  let segs = Array.of_list p.segments in
  let pattern =
    Array.concat
      (List.mapi
         (fun si (s : segment) -> Array.make s.s_count si)
         (Array.to_list segs))
  in
  let plen = Array.length pattern in
  let seen = Array.make (Array.length segs) 0 in
  let plan = Array.make (max width 0) (0, 0) in
  for t = 0 to width - 1 do
    let si = pattern.(t mod plen) in
    let rank = seen.(si) in
    seen.(si) <- rank + 1;
    plan.(t) <- (si, rank mod segs.(si).s_length)
  done;
  plan

(* Follows the paper's utilisation rule? (informational) *)
let follows_input_rule p = p.i = recommended_inputs ~k:p.k ~n:p.n

(* Configuration bits per CLB tile, from the platform description in §3:
   - each BLE: 2^K LUT bits, 1 output-register select, 1 clock enable;
   - fully connected local crossbar: each of the N*K LUT inputs picks one
     of I + N sources (a (I+N)-to-1 mux, encoded one-hot-free in
     ceil(log2 (I+N+1)) bits — the +1 is the unconnected state). *)
let clb_config_bits p =
  let mux_inputs = p.i + p.n + 1 in
  let bits_per_mux =
    let rec log2up v acc = if v <= 1 then acc else log2up ((v + 1) / 2) (acc + 1) in
    log2up mux_inputs 0
  in
  (p.n * ((1 lsl p.k) + 2)) + (p.n * p.k * bits_per_mux)
