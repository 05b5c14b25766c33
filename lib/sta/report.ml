(* Timing reports: top-K critical paths with named endpoints, rendered
   as text and as JSON (the machine-readable half of the schema in
   docs/OBSERVABILITY.md). *)

open Netlist

type hop = {
  signal : int;
  name : string;
  arrival_s : float;
  incr_s : float; (* delay added by this hop (interconnect + logic) *)
}

type path = {
  rank : int;
  endpoint : Graph.endpoint;
  endpoint_name : string;
  kind : string; (* "reg-setup" or "output-pad" *)
  arrival_s : float;
  slack_s : float;
  hops : hop list; (* startpoint first, endpoint signal last *)
}

(* Walk back from a signal through the worst-arrival fanin chain. *)
let trace (a : Analysis.t) last =
  let g = a.Analysis.graph in
  let p = a.Analysis.provider in
  let rec back id acc =
    let acc = id :: acc in
    match Logic.driver g.Graph.net id with
    | Logic.Input | Logic.Const _ | Logic.Latch _ -> acc
    | Logic.Gate { fanins; _ } ->
        if Array.length fanins = 0 then acc
        else begin
          let best = ref fanins.(0) and best_t = ref neg_infinity in
          Array.iter
            (fun f ->
              let t = a.Analysis.arrival.(f) +. Delays.conn p f id in
              if t > !best_t then begin
                best := f;
                best_t := t
              end)
            fanins;
          back !best acc
        end
  in
  let chain = back last [] in
  let _, hops =
    List.fold_left
      (fun (prev, acc) id ->
        let t = a.Analysis.arrival.(id) in
        let incr = match prev with None -> t | Some pt -> t -. pt in
        ( Some t,
          { signal = id; name = Logic.name g.Graph.net id; arrival_s = t;
            incr_s = incr }
          :: acc ))
      (None, []) chain
  in
  List.rev hops

let paths ?(k = 5) (a : Analysis.t) =
  let g = a.Analysis.graph in
  let order =
    Array.init (Array.length g.Graph.endpoints) Fun.id |> Array.to_list
    |> List.sort (fun i j ->
           compare
             (a.Analysis.endpoint_arrival.(j), i)
             (a.Analysis.endpoint_arrival.(i), j))
  in
  List.filteri (fun i _ -> i < k) order
  |> List.mapi (fun rank i ->
         let ep = g.Graph.endpoints.(i) in
         {
           rank = rank + 1;
           endpoint = ep;
           endpoint_name = Graph.endpoint_name g ep;
           kind =
             (match ep with
             | Graph.Reg_data _ -> "reg-setup"
             | Graph.Pad_out _ -> "output-pad");
           arrival_s = a.Analysis.endpoint_arrival.(i);
           slack_s = Analysis.endpoint_slack a i;
           hops = trace a (Graph.endpoint_signal ep);
         })

(* ---------- text rendering ---------- *)

let ns t = t *. 1e9

let to_text ?(title = "timing report") (a : Analysis.t) ps =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%s (%s)\n" title a.Analysis.provider.Delays.name;
  pf "  critical path %.3f ns" (ns a.Analysis.dmax);
  (match a.Analysis.constraints.Analysis.period with
  | Some p ->
      pf ", period %.3f ns (budget %.3f ns%s), wns %.3f ns, tns %.3f ns\n"
        (ns p) (ns a.Analysis.budget)
        (if a.Analysis.constraints.Analysis.detff then ", DETFF half-cycle"
         else "")
        (ns a.Analysis.wns) (ns a.Analysis.tns)
  | None -> pf " (unconstrained)\n");
  List.iter
    (fun p ->
      pf "  path %d: %s %s  arrival %.3f ns  slack %.3f ns\n" p.rank p.kind
        p.endpoint_name (ns p.arrival_s) (ns p.slack_s);
      List.iter
        (fun (h : hop) ->
          pf "    %8.3f ns  +%.3f  %s\n" (ns h.arrival_s) (ns h.incr_s) h.name)
        p.hops;
      (* the endpoint arc (interconnect + setup / pad) closes the path *)
      match p.hops with
      | [] -> ()
      | hs ->
          let last = List.nth hs (List.length hs - 1) in
          pf "    %8.3f ns  +%.3f  %s (%s)\n" (ns p.arrival_s)
            (ns (p.arrival_s -. last.arrival_s))
            p.endpoint_name p.kind)
    ps;
  Buffer.contents b

(* ---------- JSON rendering ---------- *)

(* The shared Obs.Emit emitter reproduces the separators and string
   escaping of the original hand-rolled printer byte for byte; float
   formatting (%.9g vs the old %.6e) is absorbed by the golden harness's
   tolerant numeric compare. *)
let json (a : Analysis.t) ps =
  let open Obs.Emit in
  let hop_json (h : hop) =
    Obj
      [
        ("signal", String h.name);
        ("arrival_s", Float h.arrival_s);
        ("incr_s", Float h.incr_s);
      ]
  in
  let path_json p =
    Obj
      [
        ("rank", Int p.rank);
        ("endpoint", String p.endpoint_name);
        ("kind", String p.kind);
        ("arrival_s", Float p.arrival_s);
        ("slack_s", Float p.slack_s);
        ("hops", List (List.map hop_json p.hops));
      ]
  in
  Obj
    [
      ("provider", String a.Analysis.provider.Delays.name);
      ("dmax_s", Float a.Analysis.dmax);
      ("budget_s", Float a.Analysis.budget);
      ( "period_s",
        match a.Analysis.constraints.Analysis.period with
        | Some p -> Float p
        | None -> Null );
      ("detff", Bool a.Analysis.constraints.Analysis.detff);
      ("wns_s", Float a.Analysis.wns);
      ("tns_s", Float a.Analysis.tns);
      ("endpoints", Int (Array.length a.Analysis.graph.Graph.endpoints));
      ("paths", List (List.map path_json ps));
    ]

let to_json a ps = Obs.Emit.to_string (json a ps)
