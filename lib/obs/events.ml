(* Progress events through an ambient sink function.

   One DLS cell per domain holds the ambient sink; [with_sink]
   installs/restores it, and pool worker domains see no ambient, so
   their emissions vanish.  That — plus [without] around the
   jobs-dependent paths — is what keeps the event-kind sequence
   deterministic across jobs settings.  The sink's owner stamps [seq]
   and [t_s]; this module only routes kinds to it, and renders the
   stamped records as JSON lines or as a Chrome trace. *)

type kind =
  | Stage_begin of { stage : string }
  | Stage_end of { stage : string; wall_s : float }
  | Cache_lookup of { stage : string; hit : bool }
  | Route_iteration of {
      iteration : int;
      overused : int;
      rerouted : int;
      heap_pops : int;
      wall_s : float;
    }
  | Place_temperature of {
      step : int;
      temperature : float;
      accept_rate : float;
      wall_s : float;
    }
  | Heartbeat

type event = { seq : int; t_s : float; kind : kind }

let ambient : (kind -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let install s f =
  let cell = Domain.DLS.get ambient in
  let saved = !cell in
  cell := s;
  Fun.protect ~finally:(fun () -> cell := saved) f

let with_sink s f = install (Some s) f

let without f = install None f

let active () = Option.is_some !(Domain.DLS.get ambient)

let emit kind =
  match !(Domain.DLS.get ambient) with None -> () | Some s -> s kind

let collect f =
  let epoch = Unix.gettimeofday () in
  let got = ref [] and seq = ref 0 in
  let keep kind =
    got := { seq = !seq; t_s = Unix.gettimeofday () -. epoch; kind } :: !got;
    incr seq
  in
  let r = with_sink keep f in
  (r, List.rev !got)

let kind_name = function
  | Stage_begin _ -> "stage-begin"
  | Stage_end _ -> "stage-end"
  | Cache_lookup _ -> "cache"
  | Route_iteration _ -> "route-iteration"
  | Place_temperature _ -> "place-temperature"
  | Heartbeat -> "heartbeat"

let volatile = function Heartbeat -> true | _ -> false

let kind_fields = function
  | Stage_begin { stage } -> [ ("stage", Emit.String stage) ]
  | Stage_end { stage; wall_s } ->
      [ ("stage", Emit.String stage); ("wall_s", Emit.Float wall_s) ]
  | Cache_lookup { stage; hit } ->
      [ ("stage", Emit.String stage); ("hit", Emit.Bool hit) ]
  | Route_iteration { iteration; overused; rerouted; heap_pops; wall_s } ->
      [
        ("iteration", Emit.Int iteration);
        ("overused", Emit.Int overused);
        ("rerouted", Emit.Int rerouted);
        ("heap_pops", Emit.Int heap_pops);
        ("wall_s", Emit.Float wall_s);
      ]
  | Place_temperature { step; temperature; accept_rate; wall_s } ->
      [
        ("step", Emit.Int step);
        ("temperature", Emit.Float temperature);
        ("accept_rate", Emit.Float accept_rate);
        ("wall_s", Emit.Float wall_s);
      ]
  | Heartbeat -> []

let to_fields ev =
  (("event", Emit.String (kind_name ev.kind)) :: ("seq", Emit.Int ev.seq)
  :: kind_fields ev.kind)
  @ [ ("t_s", Emit.Float ev.t_s) ]

let to_json ev = Emit.Obj (to_fields ev)

let deterministic_fields ev =
  if volatile ev.kind then None
  else
    Some
      (("event", Emit.String (kind_name ev.kind))
      :: List.filter (fun (k, _) -> k <> "wall_s") (kind_fields ev.kind))

(* Chrome trace-event rendering of one run's records.  Each record maps
   to at most one trace event, in record order: a stage-begin/stage-end
   pair to a B/E span named after the stage, route-iteration and
   place-temperature to one X span that ends at the record's [t_s] and
   lasts its [wall_s], cache to an instant; heartbeat and done draw
   nothing.  A record is emitted after the work it times, and the next
   record's work starts after that, so the timestamps ascend (to the
   clock's resolution) and every X span lies inside its stage's B/E
   window. *)
let to_chrome ~design records =
  let num k r = Option.bind (Jsonin.member k r) Jsonin.get_float in
  let at r = Option.value (num "t_s" r) ~default:0.0 in
  let ev ?(extra = []) ?(args = []) name ph t_s =
    Emit.Obj
      ([
         ("name", Emit.String name);
         ("cat", Emit.String "amdrel");
         ("ph", Emit.String ph);
         ("ts", Emit.Float (t_s *. 1e6));
         ("pid", Emit.Int 1);
         ("tid", Emit.Int 1);
       ]
      @ extra
      @ if args = [] then [] else [ ("args", Emit.Obj args) ])
  in
  (* the record's payload: everything but the kind, the stamps, the
     volatile duration and the daemon's routing id *)
  let args = function
    | Emit.Obj fs ->
        List.filter
          (fun (k, _) ->
            not (List.mem k [ "event"; "id"; "seq"; "t_s"; "wall_s" ]))
          fs
    | _ -> []
  in
  let draw r =
    let stage ph =
      Option.map
        (fun s -> ev s ph (at r))
        (Option.bind (Jsonin.member "stage" r) Jsonin.get_string)
    in
    let span name =
      let w = Option.value (num "wall_s" r) ~default:0.0 in
      Some
        (ev name "X" (at r -. w) ~args:(args r)
           ~extra:[ ("dur", Emit.Float (w *. 1e6)) ])
    in
    match Option.bind (Jsonin.member "event" r) Jsonin.get_string with
    | Some "stage-begin" -> stage "B"
    | Some "stage-end" -> stage "E"
    | Some "cache" ->
        Some
          (ev "cache" "i" (at r) ~args:(args r)
             ~extra:[ ("s", Emit.String "t") ])
    | Some "route-iteration" -> span "route.iteration"
    | Some "place-temperature" -> span "place.temperature"
    | _ -> None
  in
  let last = List.fold_left (fun m r -> Float.max m (at r)) 0.0 records in
  Emit.Obj
    [
      ("displayTimeUnit", Emit.String "ms");
      ( "traceEvents",
        Emit.List
          ((ev "flow" "B" 0.0 ~args:[ ("design", Emit.String design) ]
           :: List.filter_map draw records)
          @ [ ev "flow" "E" last ]) );
    ]
