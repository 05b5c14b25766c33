(* Bounded progress-event queue under one mutex.

   The producer (the domain running a flow) appends under the lock; the
   consumer (daemon IO loop or CLI) takes the whole queue under the same
   lock and stamps and frames the events after releasing it, so the
   producer never waits on the consumer's socket IO.  A full queue
   never back-pressures the producer: when it holds [cap] events the new
   one is counted into [dropped] and discarded, and the next drain
   synthesizes a [Dropped] record for the gap.

   The ambient slot mirrors Span's discipline exactly: one DLS cell per
   domain, [with_sink] installs/restores, pool worker domains see no
   ambient and their emissions vanish.  That — plus [without] around the
   jobs-dependent paths — is what keeps the event-kind sequence
   deterministic across jobs settings. *)

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
  | Dropped of { count : int }

type event = { seq : int; t_s : float; kind : kind }

type sink = {
  lock : Mutex.t;
  queue : (float * kind) Queue.t; (* (t_s, kind) in emission order *)
  cap : int;
  mutable dropped : int; (* under [lock] *)
  epoch : float;
  mutable next_seq : int; (* consumer-owned *)
  mutable drop_seen : int; (* consumer-owned: drops already reported *)
}

let create ?(capacity = 8192) () =
  {
    lock = Mutex.create ();
    queue = Queue.create ();
    cap = max 16 capacity;
    dropped = 0;
    epoch = Unix.gettimeofday ();
    next_seq = 0;
    drop_seen = 0;
  }

let ambient : sink option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_sink s f =
  let cell = Domain.DLS.get ambient in
  let saved = !cell in
  cell := Some s;
  Fun.protect ~finally:(fun () -> cell := saved) f

let without f =
  let cell = Domain.DLS.get ambient in
  let saved = !cell in
  cell := None;
  Fun.protect ~finally:(fun () -> cell := saved) f

let active () = Option.is_some !(Domain.DLS.get ambient)

let emit_to s kind =
  Mutex.protect s.lock (fun () ->
      if Queue.length s.queue >= s.cap then s.dropped <- s.dropped + 1
      else Queue.push (Unix.gettimeofday () -. s.epoch, kind) s.queue)

let emit kind =
  match !(Domain.DLS.get ambient) with
  | None -> ()
  | Some s -> emit_to s kind

let stamp s kind t_s =
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  { seq; t_s; kind }

let next_seq s =
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  seq

let heartbeat s = stamp s Heartbeat (Unix.gettimeofday () -. s.epoch)

let dropped_total s = Mutex.protect s.lock (fun () -> s.dropped)

let drain s =
  let taken = Queue.create () in
  let dropped =
    Mutex.protect s.lock (fun () ->
        Queue.transfer s.queue taken;
        s.dropped)
  in
  let gap = dropped - s.drop_seen in
  s.drop_seen <- dropped;
  let out = ref [] in
  if gap > 0 then
    out :=
      [ stamp s (Dropped { count = gap }) (Unix.gettimeofday () -. s.epoch) ];
  Queue.iter (fun (t_s, kind) -> out := stamp s kind t_s :: !out) taken;
  List.rev !out

let kind_name = function
  | Stage_begin _ -> "stage-begin"
  | Stage_end _ -> "stage-end"
  | Cache_lookup _ -> "cache"
  | Route_iteration _ -> "route-iteration"
  | Place_temperature _ -> "place-temperature"
  | Heartbeat -> "heartbeat"
  | Dropped _ -> "dropped"

let volatile = function Heartbeat | Dropped _ -> true | _ -> false

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
  | Dropped { count } -> [ ("count", Emit.Int count) ]

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
