(* The compile-service daemon core: accept loop, bounded admission
   queue, worker domains, graceful drain.  See server.mli for the
   architecture overview; threading discipline in one line: the IO loop
   (the domain calling [run]) owns every file descriptor, the server
   registry and the server-side cache handle; workers own nothing but
   the job they popped.  The only shared state is the admission queue
   (qlock/qcond), the one queue of worker output (olock) and two
   atomics. *)

module E = Obs.Emit
module R = Obs.Registry
module F = Core.Flow
module P = Protocol

type config = {
  socket_path : string;
  queue_depth : int;
  workers : int;
  jobs : int;
  cache_max_bytes : int option;
  flow : F.config;
  log : string -> unit;
}

let default_config =
  {
    socket_path = "amdreld.sock";
    queue_depth = 32;
    workers = 2;
    jobs = Util.Parallel.default_jobs ();
    cache_max_bytes = None;
    flow = { F.default_config with F.cache_dir = Some "_amdrel_cache" };
    log = ignore;
  }

(* Seconds of silence after which a progress stream gets a heartbeat. *)
let heartbeat_s = 1.0

(* One admitted compile request. *)
type job = {
  id : int;
  conn_uid : int;
  submit : P.submit;
  enqueued_at : float;
}

(* IO-loop-owned view of one progress stream. *)
type stream = {
  st_conn : int; (* submitting conn uid *)
  st_epoch : float; (* admission time: [t_s] counts from here *)
  mutable st_seq : int; (* next [seq]; heartbeats and [done] share it *)
  mutable st_last : float; (* last line framed; heartbeat timer *)
}

(* What a worker hands back to the IO loop: the finished response line
   plus the headline telemetry the loop folds into the server registry
   (workers never record into it directly — single-writer keeps the
   registry race-free without any locking discipline beyond this). *)
type completion = {
  c_id : int;
  c_conn : int;
  c_line : string;
  c_ok : bool;
  c_design : string;
  c_wait_s : float;
  c_wall_s : float;
  c_cpu_s : float;
  c_hits : int;
  c_misses : int;
}

(* The one channel from the workers to the IO loop.  A worker pushes a
   progress request's events while it compiles and the request's
   completion after them, so a request's events, its [done] and its
   completion line, and the next request's events, reach the loop in
   the order the wire needs. *)
type output =
  | Event of int * float * Obs.Events.kind (* request id, t_s, kind *)
  | Done of completion

type conn = {
  fd : Unix.file_descr;
  uid : int;
  inbuf : Buffer.t;   (* bytes read, not yet newline-terminated *)
  outbox : Buffer.t;  (* response bytes not yet written *)
  mutable out_pos : int;  (* consumed prefix of [outbox] *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;  (* self-pipe: workers nudge the select loop *)
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  (* admission queue: IO loop pushes, workers pop *)
  qlock : Mutex.t;
  qcond : Condition.t;
  queue : job Queue.t;
  mutable q_closed : bool;
  (* worker output: workers push, IO loop drains each pass *)
  olock : Mutex.t;
  outputs : output Queue.t;
  (* IO-loop-owned state: no lock, single domain *)
  obs : R.t;
  store : Cache.Store.t option;
  per_request_jobs : int;
  mutable draining : bool;
  mutable next_id : int;
  mutable accepted : int;
  mutable completed : int;
  mutable rejected : int;
  conns : (int, conn) Hashtbl.t;
  mutable next_uid : int;
  streams : (int, stream) Hashtbl.t; (* request id -> live stream *)
}

let wake_byte = Bytes.make 1 '!'

let wake t =
  (* Best-effort: a full pipe already guarantees a pending wake. *)
  try ignore (Unix.write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

let initiate_shutdown t =
  Atomic.set t.stop true;
  wake t

(* ---------- responses ---------- *)

let error_json ~code msg =
  E.Obj
    [ ("ok", E.Bool false); ("code", E.String code); ("error", E.String msg) ]

let send conn json = Buffer.add_string conn.outbox (E.to_string json ^ "\n")

let queue_len t =
  Mutex.lock t.qlock;
  let n = Queue.length t.queue in
  Mutex.unlock t.qlock;
  n

let status_json t =
  (* Snapshot the queued requests with their FIFO positions and ages in
     one lock hold, so position/age pairs are mutually consistent. *)
  let now = Unix.gettimeofday () in
  Mutex.lock t.qlock;
  let queued =
    Queue.fold
      (fun acc (j : job) ->
        E.Obj
          [
            ("id", E.Int j.id);
            ("position", E.Int (List.length acc + 1));
            ( "age_us",
              E.Int (int_of_float ((now -. j.enqueued_at) *. 1e6)) );
          ]
        :: acc)
      [] t.queue
  in
  Mutex.unlock t.qlock;
  let queued = List.rev queued in
  let q = List.length queued in
  E.Obj
    [
      ("ok", E.Bool true);
      ("queue_depth", E.Int q);
      ("queue_capacity", E.Int t.cfg.queue_depth);
      ("in_flight", E.Int (t.accepted - t.completed - q));
      ("workers", E.Int t.cfg.workers);
      ("per_request_jobs", E.Int t.per_request_jobs);
      ("accepted", E.Int t.accepted);
      ("completed", E.Int t.completed);
      ("rejected", E.Int t.rejected);
      ("draining", E.Bool (t.draining || Atomic.get t.stop));
      ("queued", E.List queued);
    ]

let metrics_json t =
  let q = queue_len t in
  R.set ~volatile:true t.obs "service.queue-depth" (float_of_int q);
  R.set ~volatile:true t.obs "service.in-flight"
    (float_of_int (t.accepted - t.completed - q));
  E.Obj
    [ ("ok", E.Bool true); ("metrics", R.to_json (R.snapshot t.obs)) ]

(* ---------- workers ---------- *)

let push t o = Mutex.protect t.olock (fun () -> Queue.push o t.outputs)

(* Runs on a worker domain.  Fresh registry per request: nothing a
   request records can bleed into another request or the server.  A
   progress request's events go onto the output queue as they are
   emitted, stamped with seconds since admission. *)
let compile t job =
  let t0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  let wait_s = t0 -. job.enqueued_at in
  let s = job.submit in
  let config =
    { (P.flow_config ~base:t.cfg.flow s) with F.jobs = Some t.per_request_jobs }
  in
  let obs = R.create () in
  let run () =
    if not s.P.progress then F.run_vhdl ~config ~obs s.P.vhdl
    else
      Obs.Events.with_sink
        (fun kind ->
          let t_s = Unix.gettimeofday () -. job.enqueued_at in
          push t (Event (job.id, t_s, kind)))
        (fun () -> F.run_vhdl ~config ~obs s.P.vhdl)
  in
  let resp, ok, design, hits, misses =
    match run () with
    | r ->
        let json =
          E.Obj
            ([
               ("id", E.Int job.id);
               ("ok", E.Bool true);
               ("design", E.String r.F.design);
               ("queue_wait_s", E.Float wait_s);
               ("result", F.result_obj r);
               ( "deterministic_metrics",
                 R.to_json ~deterministic:true r.F.metrics );
               ( "bitstream_hex",
                 E.String (P.hex_encode r.F.bitstream.Bitstream.Dagger.bytes)
               );
             ]
            @
            if s.P.timing_report then
              [ ("timing", F.timing_report_obj r) ]
            else [])
        in
        ( json,
          true,
          r.F.design,
          R.counter r.F.metrics "cache.hit",
          R.counter r.F.metrics "cache.miss" )
    | exception e ->
        let stage, err =
          match e with
          | F.Flow_error (stage, e) -> (stage, Printexc.to_string e)
          | e -> ("flow", Printexc.to_string e)
        in
        let json =
          E.Obj
            [
              ("id", E.Int job.id);
              ("ok", E.Bool false);
              ("code", E.String "compile-error");
              ("stage", E.String stage);
              ("error", E.String err);
            ]
        in
        (json, false, "-", 0, 0)
  in
  {
    c_id = job.id;
    c_conn = job.conn_uid;
    c_line = E.to_string resp ^ "\n";
    c_ok = ok;
    c_design = design;
    c_wait_s = wait_s;
    c_wall_s = Unix.gettimeofday () -. t0;
    c_cpu_s = Sys.time () -. c0;
    c_hits = hits;
    c_misses = misses;
  }

let worker t () =
  let rec loop () =
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not t.q_closed do
      Condition.wait t.qcond t.qlock
    done;
    let job =
      if Queue.is_empty t.queue then None else Some (Queue.pop t.queue)
    in
    Mutex.unlock t.qlock;
    match job with
    | None -> () (* closed and drained: exit *)
    | Some job ->
        push t (Done (compile t job));
        wake t;
        loop ()
  in
  loop ()

(* ---------- request handling (IO loop) ---------- *)

let reject t conn ~code msg =
  t.rejected <- t.rejected + 1;
  R.incr t.obs "service.rejected";
  send conn (error_json ~code msg)

let submit t conn s =
  R.incr t.obs "service.requests";
  if t.draining || Atomic.get t.stop then
    reject t conn ~code:"draining" "server is draining; resubmit elsewhere"
  else begin
    Mutex.lock t.qlock;
    if Queue.length t.queue >= t.cfg.queue_depth then begin
      Mutex.unlock t.qlock;
      reject t conn ~code:"backpressure"
        (Printf.sprintf "admission queue full (capacity %d)"
           t.cfg.queue_depth)
    end
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      let now = Unix.gettimeofday () in
      Queue.push
        { id; conn_uid = conn.uid; submit = s; enqueued_at = now }
        t.queue;
      let position = Queue.length t.queue in
      Condition.signal t.qcond;
      Mutex.unlock t.qlock;
      t.accepted <- t.accepted + 1;
      R.incr t.obs "service.accepted";
      if s.P.progress then begin
        (* Registered before this domain can see any of the job's
           output: only the IO loop drains the output queue. *)
        Hashtbl.replace t.streams id
          { st_conn = conn.uid; st_epoch = now; st_seq = 0; st_last = now };
        R.incr t.obs "service.streams";
        send conn
          (E.Obj
             [
               ("id", E.Int id);
               ("ok", E.Bool true);
               ("accepted", E.Bool true);
               ("queue_position", E.Int position);
             ])
      end
    end
  end

let handle_line t conn line =
  let req =
    match Obs.Jsonin.parse line with
    | exception Obs.Jsonin.Parse_error m -> Error ("invalid JSON: " ^ m)
    | json -> P.request_of_json json
  in
  match req with
  | Error msg -> send conn (error_json ~code:"bad-request" msg)
  | Ok P.Status -> send conn (status_json t)
  | Ok P.Metrics -> send conn (metrics_json t)
  | Ok P.Shutdown ->
      send conn (E.Obj [ ("ok", E.Bool true); ("draining", E.Bool true) ]);
      initiate_shutdown t
  | Ok (P.Submit s) -> submit t conn s

(* ---------- connection IO ---------- *)

let close_conn t conn =
  Hashtbl.remove t.conns conn.uid;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let process_lines t conn =
  let data = Buffer.contents conn.inbuf in
  let rec go start =
    match String.index_from_opt data start '\n' with
    | None ->
        if start > 0 then begin
          Buffer.clear conn.inbuf;
          Buffer.add_substring conn.inbuf data start
            (String.length data - start)
        end
    | Some i ->
        let line = String.sub data start (i - start) in
        if String.trim line <> "" then handle_line t conn line;
        go (i + 1)
  in
  go 0

let readable t conn buf =
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close_conn t conn
  | 0 -> close_conn t conn
  | n ->
      Buffer.add_subbytes conn.inbuf buf 0 n;
      process_lines t conn

let writable t conn =
  let len = Buffer.length conn.outbox - conn.out_pos in
  if len > 0 then begin
    let chunk = Buffer.sub conn.outbox conn.out_pos (min len 65536) in
    match Unix.write_substring conn.fd chunk 0 (String.length chunk) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> close_conn t conn
    | n ->
        conn.out_pos <- conn.out_pos + n;
        if conn.out_pos = Buffer.length conn.outbox then begin
          Buffer.clear conn.outbox;
          conn.out_pos <- 0
        end
  end

let rec accept_ready t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_ready t
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      let uid = t.next_uid in
      t.next_uid <- uid + 1;
      Hashtbl.replace t.conns uid
        {
          fd;
          uid;
          inbuf = Buffer.create 4096;
          outbox = Buffer.create 4096;
          out_pos = 0;
        };
      accept_ready t

let rec drain_pipe t buf =
  match Unix.read t.wake_r buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_pipe t buf
  | 0 -> ()
  | _ -> drain_pipe t buf

(* ---------- worker output (IO loop) ---------- *)

let run_gc t =
  match t.store with
  | None -> ()
  | Some s ->
      let g = Cache.Store.gc ?max_bytes:t.cfg.cache_max_bytes s in
      if g.Cache.Store.evicted > 0 then
        t.cfg.log
          (Printf.sprintf
             "cache: evicted %d entries (%d bytes, %d corrupt); %d bytes \
              resident"
             g.Cache.Store.evicted g.Cache.Store.evicted_bytes
             g.Cache.Store.evicted_corrupt g.Cache.Store.resident_bytes)

let next_seq st =
  let seq = st.st_seq in
  st.st_seq <- seq + 1;
  seq

(* A stream's lines go to the submitting connection; a vanished client
   drops them, and the compile never waits on anyone's socket. *)
let to_owner t st json =
  match Hashtbl.find_opt t.conns st.st_conn with
  | Some conn -> send conn json
  | None -> ()

let frame_event t id st t_s kind =
  to_owner t st
    (E.Obj
       (("id", E.Int id)
       :: Obs.Events.to_fields { Obs.Events.seq = next_seq st; t_s; kind }));
  st.st_last <- Unix.gettimeofday ()

(* A finished request: fold its telemetry into the server registry, end
   its stream with [done], then write its completion line. *)
let complete t c =
  t.completed <- t.completed + 1;
  R.incr t.obs "service.completed";
  if not c.c_ok then R.incr t.obs "service.errors";
  R.add_time t.obs "service.queue-wait" ~wall_s:c.c_wait_s ~cpu_s:0.0;
  R.add_time t.obs "service.compile" ~wall_s:c.c_wall_s ~cpu_s:c.c_cpu_s;
  if c.c_hits > 0 then R.incr ~by:c.c_hits t.obs "cache.hit";
  if c.c_misses > 0 then R.incr ~by:c.c_misses t.obs "cache.miss";
  (match Hashtbl.find_opt t.streams c.c_id with
  | Some st ->
      to_owner t st
        (E.Obj
           [
             ("id", E.Int c.c_id);
             ("event", E.String "done");
             ("seq", E.Int (next_seq st));
             ("ok", E.Bool c.c_ok);
           ]);
      Hashtbl.remove t.streams c.c_id
  | None -> ());
  (match Hashtbl.find_opt t.conns c.c_conn with
  | Some conn -> Buffer.add_string conn.outbox c.c_line
  | None -> () (* client went away; response has nowhere to go *));
  t.cfg.log
    (Printf.sprintf "req %d %s ok=%b wait=%.3fs compile=%.3fs" c.c_id
       c.c_design c.c_ok c.c_wait_s c.c_wall_s)

(* One IO-loop pass over the worker output: every item is framed in the
   order it was pushed, which is the wire ordering rule
   (docs/OBSERVABILITY.md, "Wire framing"); then each stream silent for
   [heartbeat_s] gets a heartbeat.  Only a completion wakes the loop, so
   the 0.2 s select timeout bounds event latency. *)
let pump t =
  let items = Queue.create () in
  Mutex.protect t.olock (fun () -> Queue.transfer t.outputs items);
  let completed = ref false in
  Queue.iter
    (function
      | Event (id, t_s, kind) -> (
          match Hashtbl.find_opt t.streams id with
          | Some st -> frame_event t id st t_s kind
          | None -> ())
      | Done c ->
          complete t c;
          completed := true)
    items;
  let now = Unix.gettimeofday () in
  Hashtbl.iter
    (fun id st ->
      if now -. st.st_last >= heartbeat_s then
        frame_event t id st (now -. st.st_epoch) Obs.Events.Heartbeat)
    t.streams;
  if !completed then run_gc t

(* ---------- lifecycle ---------- *)

let create cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = cfg.socket_path in
  (if Sys.file_exists sock then
     match (Unix.lstat sock).Unix.st_kind with
     | Unix.S_SOCK ->
         (* Only replace a dead server's leftover: probe with a
            connect first so two daemons can't fight over one path. *)
         let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         let live =
           match Unix.connect probe (Unix.ADDR_UNIX sock) with
           | () -> true
           | exception Unix.Unix_error _ -> false
         in
         (try Unix.close probe with Unix.Unix_error _ -> ());
         if live then
           failwith (sock ^ ": a compile server is already listening");
         (try Unix.unlink sock with Unix.Unix_error _ -> ())
     | _ ->
         failwith (sock ^ " exists and is not a socket; refusing to replace"));
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX sock);
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let obs = R.create () in
  let store =
    Option.map (fun d -> Cache.Store.open_ ~obs d) cfg.flow.F.cache_dir
  in
  (match store with
  | Some s ->
      let g = Cache.Store.gc ?max_bytes:cfg.cache_max_bytes s in
      cfg.log
        (Printf.sprintf "cache %s: %d entries, %d bytes resident%s"
           (Cache.Store.dir s) g.Cache.Store.entries
           g.Cache.Store.resident_bytes
           (if g.Cache.Store.evicted > 0 then
              Printf.sprintf ", evicted %d (%d bytes)" g.Cache.Store.evicted
                g.Cache.Store.evicted_bytes
            else ""))
  | None -> ());
  let per_request_jobs = max 1 (cfg.jobs / max 1 cfg.workers) in
  let t =
    {
      cfg;
      listen_fd;
      wake_r;
      wake_w;
      stop = Atomic.make false;
      qlock = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      q_closed = false;
      olock = Mutex.create ();
      outputs = Queue.create ();
      obs;
      store;
      per_request_jobs;
      draining = false;
      next_id = 1;
      accepted = 0;
      completed = 0;
      rejected = 0;
      conns = Hashtbl.create 16;
      next_uid = 1;
      streams = Hashtbl.create 8;
    }
  in
  cfg.log
    (Printf.sprintf
       "listening on %s (workers=%d, jobs=%d, per-request jobs=%d, queue \
        capacity %d)"
       sock cfg.workers cfg.jobs per_request_jobs cfg.queue_depth);
  t

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run t =
  let workers = Array.init t.cfg.workers (fun _ -> Domain.spawn (worker t)) in
  let buf = Bytes.create 65536 in
  let flush_deadline = ref None in
  let running = ref true in
  while !running do
    if Atomic.get t.stop && not t.draining then begin
      t.draining <- true;
      (* Take the socket path off the filesystem immediately so new
         clients fail fast instead of queueing on a dying server. *)
      (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
      Mutex.lock t.qlock;
      t.q_closed <- true;
      Condition.broadcast t.qcond;
      Mutex.unlock t.qlock;
      t.cfg.log "draining: finishing queued and in-flight requests"
    end;
    pump t;
    let pending_out =
      Hashtbl.fold
        (fun _ c acc -> acc || Buffer.length c.outbox > c.out_pos)
        t.conns false
    in
    let work_done =
      t.draining && queue_len t = 0 && t.accepted = t.completed
    in
    if work_done && not pending_out then running := false
    else begin
      (if work_done then
         (* All work finished; allow a bounded grace period to flush
            the last responses to slow readers. *)
         match !flush_deadline with
         | None -> flush_deadline := Some (Unix.gettimeofday () +. 10.0)
         | Some d when Unix.gettimeofday () > d -> running := false
         | Some _ -> ());
      if !running then begin
        let conn_fds =
          Hashtbl.fold (fun _ c acc -> (c.fd, c) :: acc) t.conns []
        in
        let rfds =
          (t.wake_r :: (if t.draining then [] else [ t.listen_fd ]))
          @ List.map fst conn_fds
        in
        let wfds =
          List.filter_map
            (fun (fd, c) ->
              if Buffer.length c.outbox > c.out_pos then Some fd else None)
            conn_fds
        in
        match Unix.select rfds wfds [] 0.2 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | r, w, _ ->
            if List.memq t.wake_r r then drain_pipe t buf;
            if (not t.draining) && List.memq t.listen_fd r then
              accept_ready t;
            List.iter
              (fun (fd, c) ->
                if List.memq fd r && Hashtbl.mem t.conns c.uid then
                  readable t c buf)
              conn_fds;
            List.iter
              (fun (fd, c) ->
                if List.memq fd w && Hashtbl.mem t.conns c.uid then
                  writable t c)
              conn_fds
      end
    end
  done;
  Mutex.lock t.qlock;
  t.q_closed <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock;
  Array.iter Domain.join workers;
  pump t;
  Hashtbl.iter (fun _ c -> close_quietly c.fd) t.conns;
  Hashtbl.reset t.conns;
  close_quietly t.listen_fd;
  close_quietly t.wake_r;
  close_quietly t.wake_w;
  if not t.draining then
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  t.cfg.log
    (Printf.sprintf "drained: %d completed, %d rejected" t.completed
       t.rejected)
