(* Blocking compile-service client.  See client.mli. *)

module E = Obs.Emit
module J = Obs.Jsonin

type t = { fd : Unix.file_descr; ic : in_channel }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd }

let close t = try close_in t.ic (* closes the fd *) with Sys_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | written -> go (off + written)
  in
  go 0

let send t req =
  write_all t.fd (E.to_string (Protocol.request_to_json req) ^ "\n")

let recv t = J.parse (input_line t.ic)

let request t req =
  send t req;
  recv t

let with_connection path f =
  let t = connect path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let ok json =
  match Option.bind (J.member "ok" json) J.get_bool with
  | Some b -> b
  | None -> false

let code json = Option.bind (J.member "code" json) J.get_string

(* ---------- retry policy ---------- *)

(* Bounded exponential backoff.  Retryable conditions are the two
   transient ones a well-behaved client sees from a healthy deployment:
   nobody listening yet / daemon restarting (connection refused, socket
   path briefly absent) and a full admission queue (the structured
   backpressure rejection).  "draining" is deliberately NOT retried at
   the same address — the daemon has told us it is going away. *)

let backoff ~attempt ~wait_ms =
  let ms = float_of_int wait_ms *. (2.0 ** float_of_int attempt) in
  Unix.sleepf (Float.min 10_000.0 ms /. 1000.0)

let connect_retry ?(retries = 0) ?(wait_ms = 200) path =
  let rec go attempt =
    match connect path with
    | t -> t
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when attempt < retries ->
        backoff ~attempt ~wait_ms;
        go (attempt + 1)
  in
  go 0

(* With [on_event], a progress submit answers with an accepted line,
   then event lines, then the completion record (the first line without
   an "event" field).  A rejection arrives as the first line, before any
   event, so it is retried like a plain submit's. *)
let request_retry ?(retries = 0) ?(wait_ms = 200) ?on_event t req =
  let rec completion f =
    let line = recv t in
    if J.member "event" line = None then line
    else begin
      f line;
      completion f
    end
  in
  let rec go attempt =
    let first = request t req in
    let resp =
      match on_event with
      | Some f when ok first -> completion f
      | _ -> first
    in
    if (not (ok resp)) && code resp = Some "backpressure" && attempt < retries
    then begin
      backoff ~attempt ~wait_ms;
      go (attempt + 1)
    end
    else resp
  in
  go 0

let error_message json =
  let str name =
    Option.bind (J.member name json) J.get_string
  in
  let msg = Option.value (str "error") ~default:"unknown error" in
  let tag name =
    match str name with Some v -> Printf.sprintf " [%s %s]" name v | None -> ""
  in
  msg ^ tag "code" ^ tag "stage"
