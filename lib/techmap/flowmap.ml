(* FlowMap: depth-optimal K-LUT technology mapping (Cong & Ding, 1994) —
   the role SIS plays in the paper's flow.

   Phase 1 labels every gate of a two-bounded network with its optimal
   mapped depth and a K-feasible cut realising it, in one topological
   sweep that keeps every signal's K-feasible cuts as sorted signal-id
   lists.  A source's only cut is itself; a gate's cuts are the gate
   itself plus every union of one cut per fanin with at most K signals
   that strictly contains no other such union.  Dropping dominated
   unions keeps dense networks from blowing up and changes no label or
   chosen cut: a smallest low cut is never dominated (the union inside
   it would be low and smaller), and a union built from a dominated
   fanin cut contains the one built from the cut inside it.
   With p the worst fanin label, a cut is low when every member is a
   source or a gate labelled below p.  A gate with a low cut gets label
   max(p, 1) and keeps its smallest low cut; a gate with none gets p + 1
   and its sorted fanins.  Among equally small low cuts it keeps the one
   with the fewest cone signals that a source reaches without crossing
   the cut.

   This is the textbook max-flow FlowMap, cut for cut.  That method
   collapses the gate and every cone gate labelled p into the sink of a
   node-split flow network, so the network's node cuts are the low cuts
   and a min cut of at most K nodes is a smallest low cut.  Every cut of
   at most K signals with no smaller cut inside it is a union of fanin
   cuts, so the sweep sees every min cut.  Edmonds–Karp returns the min
   cut its residual graph reaches from the source, the one nearest the
   sources.  The min cuts' source sides all contain that one's, so it
   has the fewest reached signals, and it is the only tie whose members
   all lie on every other tie's source side.  The sweep finds it that
   way: a short walk back from each member, not a count over the cone.

   Phase 2 walks from the outputs generating one LUT per needed cut,
   composing the covered cone into a truth table over the cut signals. *)

open Netlist

exception Not_two_bounded of string

(* Sorted union of two sorted signal lists. *)
let rec union a b =
  match (a, b) with
  | [], c | c, [] -> c
  | x :: a', y :: b' ->
      if x < y then x :: union a' b
      else if x > y then y :: union a b'
      else x :: union a' b'

(* Whether sorted list [a] is a subset of sorted list [b]. *)
let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> if x = y then subset a' b' else x > y && subset a b'

(* The cuts of [cuts] (sorted, distinct) that strictly contain no other:
   lengths first, so the subset walk only runs against smaller cuts. *)
let undominated cuts =
  let sized = List.map (fun c -> (List.length c, c)) cuts in
  List.filter_map
    (fun (n, c) ->
      if List.exists (fun (m, d) -> m < n && subset d c) sized then None
      else Some c)
    sized

(* Whether a source reaches [id] without crossing [cut] before it.  A
   signal seen twice already failed: the first success ends the walk. *)
let reached (net : Logic.t) cut id =
  let seen = Hashtbl.create 16 in
  let rec reach id =
    (not (Hashtbl.mem seen id))
    && begin
         Hashtbl.replace seen id ();
         match Logic.driver net id with
         | Logic.Gate { fanins; _ } ->
             Array.exists (fun f -> (not (List.mem f cut)) && reach f) fanins
         | Logic.Input | Logic.Const _ | Logic.Latch _ -> true
       end
  in
  reach id

(* ---------- labelling ---------- *)

(* Every signal's label (sources 0) and chosen cut (sources none). *)
let labels (net : Logic.t) ~k =
  let n = Logic.signal_count net in
  let label = Array.make n 0 and cut = Array.make n [] in
  let cuts = Array.make n [] in
  List.iter
    (fun v ->
      match Logic.driver net v with
      | Logic.Input | Logic.Const _ | Logic.Latch _ -> cuts.(v) <- [ [ v ] ]
      | Logic.Gate { fanins; _ } -> (
          if Array.length fanins > 2 then
            raise (Not_two_bounded (Logic.name net v));
          let unions =
            Array.fold_left
              (fun acc f ->
                List.concat_map
                  (fun c ->
                    List.filter_map
                      (fun d ->
                        let u = union c d in
                        if List.length u <= k then Some u else None)
                      cuts.(f))
                  acc)
              [ [] ] fanins
            |> List.sort_uniq compare |> undominated
          in
          cuts.(v) <- [ v ] :: unions;
          let p = Array.fold_left (fun m f -> max m label.(f)) 0 fanins in
          let low m =
            match Logic.driver net m with
            | Logic.Gate _ -> label.(m) < p
            | Logic.Input | Logic.Const _ | Logic.Latch _ -> true
          in
          match List.filter (List.for_all low) unions with
          | [] ->
              label.(v) <- p + 1;
              cut.(v) <- List.sort compare (Array.to_list fanins)
          | lows ->
              let size =
                List.fold_left (fun m c -> min m (List.length c)) k lows
              in
              let ties = List.filter (fun c -> List.length c = size) lows in
              label.(v) <- max p 1;
              (* keep the tie whose members lie on every other tie's
                 source side: the min cut nearest the sources *)
              cut.(v) <-
                List.fold_left
                  (fun best c ->
                    if List.for_all (reached net c) best then best else c)
                  (List.hd ties) (List.tl ties)))
    (Logic.topo_order net);
  (label, cut)

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
  let label, cut = labels net ~k in
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
          let lut_inputs = List.map realize cut.(v) in
          let tt = cone_function net v cut.(v) in
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
    List.fold_left (fun m e -> max m label.(e)) 0 endpoints )
