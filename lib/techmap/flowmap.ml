(* FlowMap: depth-optimal K-LUT technology mapping (Cong & Ding, 1994) —
   the role SIS plays in the paper's flow.

   Phase 1 computes, for every gate of a two-bounded network, its label
   (optimal mapped depth) and a K-feasible cut realising it, using the
   classic collapse-and-max-flow argument.  Phase 2 walks from the outputs
   generating one LUT per needed cut, composing the covered cone into a
   truth table over the cut signals. *)

open Netlist

exception Not_two_bounded of string

type cut_info = {
  label : int;
  cut : int list; (* signal ids forming the LUT inputs *)
}

(* ---------- small max-flow on node-split graphs ---------- *)

(* The flow network per FlowMap query is tiny; adjacency lists with
   Edmonds-Karp and early exit once flow exceeds k is plenty. *)
module Flow = struct
  type edge = { dst : int; mutable cap : int; mutable flow : int; inv : int }

  type t = { mutable adj : edge array array; n : int; store : edge list array }

  let create n = { adj = [||]; n; store = Array.make n [] }

  (* add edge u->v with capacity c (and residual v->u with 0) *)
  let add_edge g u v c =
    let e1 = { dst = v; cap = c; flow = 0; inv = List.length g.store.(v) } in
    let e2 = { dst = u; cap = 0; flow = 0; inv = List.length g.store.(u) } in
    g.store.(u) <- g.store.(u) @ [ e1 ];
    g.store.(v) <- g.store.(v) @ [ e2 ]

  let freeze g = g.adj <- Array.map Array.of_list g.store

  (* BFS one augmenting path of capacity >= 1 from s to t; returns true if
     found (and applies it). *)
  let augment g s t =
    let prev = Array.make g.n (-1, -1) in
    let visited = Array.make g.n false in
    visited.(s) <- true;
    let q = Queue.create () in
    Queue.push s q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      Array.iteri
        (fun ei e ->
          if (not visited.(e.dst)) && e.cap - e.flow > 0 then begin
            visited.(e.dst) <- true;
            prev.(e.dst) <- (u, ei);
            if e.dst = t then found := true else Queue.push e.dst q
          end)
        g.adj.(u)
    done;
    if !found then begin
      (* unit capacities: push 1 *)
      let rec walk v =
        if v <> s then begin
          let u, ei = prev.(v) in
          let e = g.adj.(u).(ei) in
          e.flow <- e.flow + 1;
          let back = g.adj.(v).(e.inv) in
          back.flow <- back.flow - 1;
          walk u
        end
      in
      walk t;
      true
    end
    else false

  (* nodes reachable from s in the residual graph *)
  let residual_reachable g s =
    let visited = Array.make g.n false in
    visited.(s) <- true;
    let q = Queue.create () in
    Queue.push s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Array.iter
        (fun e ->
          if (not visited.(e.dst)) && e.cap - e.flow > 0 then begin
            visited.(e.dst) <- true;
            Queue.push e.dst q
          end)
        g.adj.(u)
    done;
    visited
end

(* ---------- cone extraction ---------- *)

(* Transitive fanin cone of [v]: gate ids in the cone (including v) and the
   source signals (inputs/latches/consts) feeding it. *)
let cone (net : Logic.t) v =
  let seen = Hashtbl.create 16 in
  let gates = ref [] and sources = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      match Logic.driver net id with
      | Logic.Gate { fanins; _ } ->
          gates := id :: !gates;
          Array.iter visit fanins
      | Logic.Input | Logic.Const _ | Logic.Latch _ -> sources := id :: !sources
    end
  in
  visit v;
  (!gates, !sources)

(* ---------- labelling ---------- *)

let compute_labels (net : Logic.t) ~k =
  let n = Logic.signal_count net in
  let info = Array.make n { label = 0; cut = [] } in
  let order = Logic.topo_order net in
  List.iter
    (fun v ->
      match Logic.driver net v with
      | Logic.Input | Logic.Const _ | Logic.Latch _ ->
          info.(v) <- { label = 0; cut = [] }
      | Logic.Gate { fanins; _ } ->
          if Array.length fanins > 2 then
            raise (Not_two_bounded (Logic.name net v));
          let gates, sources = cone net v in
          let p =
            Array.fold_left (fun m f -> max m info.(f).label) 0 fanins
          in
          (* Collapse v and every cone gate with label = p into the sink.
             Source signals and remaining gates are split with capacity 1. *)
          let collapsed id =
            id = v
            || (match Logic.driver net id with
               | Logic.Gate _ -> info.(id).label = p
               | _ -> false)
          in
          let cone_gates = gates in
          let members = cone_gates @ sources in
          (* node numbering: S = 0, T = 1; each non-collapsed member m gets
             in = 2 + 2*idx, out = 3 + 2*idx *)
          let index = Hashtbl.create 16 in
          let next = ref 0 in
          List.iter
            (fun id ->
              if not (collapsed id) then begin
                Hashtbl.replace index id !next;
                incr next
              end)
            members;
          let size = 2 + (2 * !next) in
          let g = Flow.create size in
          let node_in id = 2 + (2 * Hashtbl.find index id) in
          let node_out id = node_in id + 1 in
          let big = 1000000 in
          (* split edges *)
          Hashtbl.iter (fun id _ -> Flow.add_edge g (node_in id) (node_out id) 1)
            index;
          (* source feeds all source-signals *)
          List.iter
            (fun id ->
              if collapsed id then Flow.add_edge g 0 1 big
              else Flow.add_edge g 0 (node_in id) big)
            sources;
          (* internal edges: for each cone gate, edges from its fanins *)
          List.iter
            (fun gid ->
              match Logic.driver net gid with
              | Logic.Gate { fanins; _ } ->
                  let dst = if collapsed gid then 1 else node_in gid in
                  Array.iter
                    (fun f ->
                      (* fanin must be in the cone (gate or source) *)
                      let src = if collapsed f then 1 else node_out f in
                      if src = 1 && dst = 1 then ()
                      else if src = 1 then
                        (* edge out of the sink is irrelevant for s-t flow *)
                        ()
                      else Flow.add_edge g src dst big)
                    fanins
              | _ -> ())
            cone_gates;
          Flow.freeze g;
          (* max-flow with early exit at k+1 *)
          let flow = ref 0 in
          while !flow <= k && Flow.augment g 0 1 do
            incr flow
          done;
          if !flow <= k then begin
            (* min cut: members whose in-side is residual-reachable but
               out-side is not *)
            let reach = Flow.residual_reachable g 0 in
            let cut =
              Hashtbl.fold
                (fun id _ acc ->
                  if reach.(node_in id) && not (reach.(node_out id)) then
                    id :: acc
                  else acc)
                index []
            in
            (* a source directly collapsed never appears; the standard
               theory guarantees |cut| = flow <= k *)
            info.(v) <- { label = max p 1; cut = List.sort compare cut }
          end
          else
            (* no K-feasible cut at height p: the node starts a new LUT *)
            info.(v) <-
              { label = p + 1; cut = List.sort compare (Array.to_list fanins) }
    )
    order;
  info

(* ---------- covering phase ---------- *)

(* Truth table of the cone rooted at [v] over the ordered cut signals. *)
let cone_function (net : Logic.t) v cut =
  let cut_index = List.mapi (fun i id -> (id, i)) cut in
  let nvars = List.length cut in
  let memo = Hashtbl.create 16 in
  let rec tt_of id =
    match List.assoc_opt id cut_index with
    | Some i -> Tt.var nvars i
    | None -> (
        match Hashtbl.find_opt memo id with
        | Some t -> t
        | None ->
            let t =
              match Logic.driver net id with
              | Logic.Const b -> if b then Tt.const1 nvars else Tt.const0 nvars
              | Logic.Gate { tt; fanins } ->
                  (* compose: substitute each fanin's table into tt *)
                  let sub = Array.map tt_of fanins in
                  let bits = ref 0 in
                  for row = 0 to (1 lsl nvars) - 1 do
                    let assignment = ref 0 in
                    Array.iteri
                      (fun i s -> if Tt.eval s row then
                          assignment := !assignment lor (1 lsl i))
                      sub;
                    if Tt.eval tt !assignment then bits := !bits lor (1 lsl row)
                  done;
                  Tt.create nvars !bits
              | Logic.Input | Logic.Latch _ ->
                  invalid_arg
                    ("Flowmap: source " ^ Logic.name net id ^ " inside cone")
            in
            Hashtbl.replace memo id t;
            t)
  in
  tt_of v

(* Map the network into K-LUTs.  Latches, inputs, constants and output
   names are preserved.  The depth is the labels' bound: the worst label
   over every combinational endpoint (primary outputs and latch data). *)
let map ?(k = 4) (net : Logic.t) =
  let info = compute_labels net ~k in
  let mapped = Logic.create ~model:net.Logic.model () in
  mapped.Logic.clock <- net.Logic.clock;
  let translated = Array.make (Logic.signal_count net) (-1) in
  (* every source signal exists in the mapped network up front *)
  for id = 0 to Logic.signal_count net - 1 do
    match Logic.driver net id with
    | Logic.Input -> translated.(id) <- Logic.add_input mapped (Logic.name net id)
    | Logic.Const b -> translated.(id) <- Logic.add_const mapped (Logic.name net id) b
    | Logic.Latch _ ->
        translated.(id) <- Logic.add_input mapped (Logic.name net id)
        (* placeholder; becomes a latch after its data cone is mapped *)
    | Logic.Gate _ -> ()
  done;
  (* generate a LUT for gate [v]; returns the mapped signal id *)
  let rec realize v =
    if translated.(v) >= 0 then translated.(v)
    else
      match Logic.driver net v with
      | Logic.Gate _ ->
          let cut = info.(v).cut in
          let lut_inputs = List.map realize cut in
          let tt = cone_function net v cut in
          (* drop non-support inputs to keep LUTs tight *)
          let tt, sup = Tt.compact tt in
          let lut_inputs =
            List.map (fun i -> List.nth lut_inputs i) sup
          in
          let id =
            if Tt.arity tt = 0 then
              Logic.add_const mapped (Logic.name net v) (Tt.is_const1 tt)
            else
              Logic.add_gate mapped (Logic.name net v) tt
                (Array.of_list lut_inputs)
          in
          translated.(v) <- id;
          id
      | Logic.Input | Logic.Const _ | Logic.Latch _ -> translated.(v)
  in
  (* map cones of all outputs and all latch data inputs *)
  List.iter (fun o -> ignore (realize o)) (Logic.outputs net);
  List.iter
    (fun l ->
      match Logic.driver net l with
      | Logic.Latch { data; _ } -> ignore (realize data)
      | _ -> ())
    (Logic.latches net);
  (* resolve latch placeholders *)
  List.iter
    (fun l ->
      match Logic.driver net l with
      | Logic.Latch { data; init } ->
          Logic.set_driver mapped translated.(l)
            (Logic.Latch { data = translated.(data); init })
      | _ -> ())
    (Logic.latches net);
  List.iter (fun o -> Logic.set_output mapped translated.(o)) (Logic.outputs net);
  let label_of id =
    match Logic.driver net id with
    | Logic.Gate _ -> info.(id).label
    | Logic.Latch _ | Logic.Input | Logic.Const _ -> 0
  in
  let endpoints =
    Logic.outputs net
    @ List.filter_map
        (fun l ->
          match Logic.driver net l with
          | Logic.Latch { data; _ } -> Some data
          | _ -> None)
        (Logic.latches net)
  in
  ( Synth.Opt.garbage_collect mapped,
    List.fold_left (fun m e -> max m (label_of e)) 0 endpoints )
