(* Progress events through an ambient sink function.

   The ambient slot mirrors Span's discipline exactly: one DLS cell per
   domain, [with_sink] installs/restores, pool worker domains see no
   ambient and their emissions vanish.  That — plus [without] around the
   jobs-dependent paths — is what keeps the event-kind sequence
   deterministic across jobs settings.  The sink's owner stamps [seq]
   and [t_s]; this module only routes kinds to it. *)

type kind =
  | Stage_begin of { stage : string }
  | Stage_end of { stage : string; wall_s : float }
  | Cache_lookup of { stage : string; hit : bool }
  | Route_iteration of {
      iteration : int;
      overused : int;
      rerouted : int;
      heap_pops : int;
    }
  | Place_temperature of { step : int; temperature : float; accept_rate : float }
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
  | Route_iteration { iteration; overused; rerouted; heap_pops } ->
      [
        ("iteration", Emit.Int iteration);
        ("overused", Emit.Int overused);
        ("rerouted", Emit.Int rerouted);
        ("heap_pops", Emit.Int heap_pops);
      ]
  | Place_temperature { step; temperature; accept_rate } ->
      [
        ("step", Emit.Int step);
        ("temperature", Emit.Float temperature);
        ("accept_rate", Emit.Float accept_rate);
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
