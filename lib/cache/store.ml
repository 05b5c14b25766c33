(* Content-addressed persistent store: one marshaled file per entry,
   atomic rename writes, corrupt-tolerant reads.  See store.mli. *)

module R = Obs.Registry

type t = { dir : string; obs : R.t }

let open_ ?obs dir =
  Util.Fs.mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  { dir; obs = (match obs with Some o -> o | None -> R.create ()) }

let dir t = t.dir

let key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let path t k = Filename.concat t.dir k

(* Entries are Marshal of (key, payload): the echoed key lets a read
   reject a file that was renamed or hash-collided into the wrong slot. *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A hit touches the entry (atime and mtime to now, best-effort): the
   eviction pass orders entries by mtime, so recently used entries
   survive a size-bounded gc.  mtime rather than atime because relatime
   mounts update atime at most once a day — useless for LRU. *)
let touch p = try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ()

let find t k =
  let p = path t k in
  match read_all p with
  | exception _ ->
      R.incr t.obs "cache.miss";
      None
  | raw -> (
      match (Marshal.from_string raw 0 : string * _) with
      | k', v when String.equal k' k ->
          R.incr t.obs "cache.hit";
          R.incr ~by:(String.length raw) t.obs "cache.bytes";
          touch p;
          Some v
      | _ | (exception _) ->
          (* truncated, garbled or a foreign file: all read as a miss
             and the caller recomputes *)
          R.incr t.obs "cache.corrupt";
          R.incr t.obs "cache.miss";
          None)

(* Temp names embed (pid, domain id, per-process counter), so concurrent
   writers — domains of one process or several processes sharing the
   directory — can never collide on a temp file; Open_excl backstops the
   guarantee (a collision fails the store rather than corrupting a
   half-written peer). *)
let temp_seq = Atomic.make 0

let temp_path t =
  Filename.concat t.dir
    (Printf.sprintf ".part-%d-%d-%d.tmp" (Unix.getpid ())
       (Domain.self () :> int)
       (Atomic.fetch_and_add temp_seq 1))

let store t k v =
  match
    let data = Marshal.to_string (k, v) [] in
    let tmp = temp_path t in
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o644 tmp
    in
    (try
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc data)
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    (* same-directory rename: atomic on POSIX, so readers only ever see
       complete entries *)
    Sys.rename tmp (path t k);
    String.length data
  with
  | n ->
      R.incr t.obs "cache.store";
      R.incr ~by:n t.obs "cache.bytes"
  | exception _ -> ()
(* best-effort: a store that cannot be written (full disk, permissions)
   degrades to a cache that never hits *)

(* ---------- lifecycle: size scan and bounded eviction ---------- *)

type gc_stats = {
  entries : int;
  resident_bytes : int;
  evicted : int;
  evicted_bytes : int;
  evicted_corrupt : int;
}

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
let is_entry_name n = String.length n = 32 && String.for_all is_hex n

let is_temp_name n =
  String.length n > 10
  && String.sub n 0 6 = ".part-"
  && Filename.check_suffix n ".tmp"

(* Cheap corruption probe, without unmarshalling the payload: the Marshal
   header declares the stream's total size, which must match the file
   exactly.  Catches truncation, appended garbage and non-Marshal files;
   entries that pass but still fail a real [find] (garbled bytes inside
   the stream) read as misses there. *)
let entry_intact p size =
  match
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let hdr = really_input_string ic Marshal.header_size in
        Marshal.total_size (Bytes.unsafe_of_string hdr) 0)
  with
  | total -> total = size
  | exception _ -> false

(* Temp files older than this are debris from crashed writers. *)
let stale_temp_age_s = 3600.0

let gc ?max_bytes t =
  let names = try Sys.readdir t.dir with Sys_error _ -> [||] in
  let now = Unix.gettimeofday () in
  let entries = ref [] in
  Array.iter
    (fun name ->
      let p = Filename.concat t.dir name in
      match Unix.stat p with
      | exception Unix.Unix_error _ -> ()
      | st when st.Unix.st_kind <> Unix.S_REG -> ()
      | st ->
          if is_entry_name name then entries := (p, st) :: !entries
          else if is_temp_name name && now -. st.Unix.st_mtime > stale_temp_age_s
          then try Sys.remove p with Sys_error _ -> ())
    names;
  let size_of (_, st) = st.Unix.st_size in
  let total = List.fold_left (fun a e -> a + size_of e) 0 !entries in
  let stats =
    match max_bytes with
    | None ->
        {
          entries = List.length !entries;
          resident_bytes = total;
          evicted = 0;
          evicted_bytes = 0;
          evicted_corrupt = 0;
        }
    | Some budget ->
        (* Corrupt entries go first (they can only ever read as misses),
           then least-recently-used by mtime — which [find] refreshes on
           every hit — until the survivors fit the budget.  Equal mtimes
           break by name so concurrent gcs of one directory agree. *)
        let corrupt, intact =
          List.partition (fun (p, st) -> not (entry_intact p st.Unix.st_size))
            !entries
        in
        let by_age =
          List.sort
            (fun ((pa, sa) : string * Unix.stats) (pb, sb) ->
              match compare sa.Unix.st_mtime sb.Unix.st_mtime with
              | 0 -> compare pa pb
              | c -> c)
            intact
        in
        let evicted = ref 0 and evicted_bytes = ref 0 in
        let resident = ref total in
        let evict (p, st) =
          match Sys.remove p with
          | () ->
              incr evicted;
              evicted_bytes := !evicted_bytes + st.Unix.st_size;
              resident := !resident - st.Unix.st_size
          | exception Sys_error _ -> ()
        in
        List.iter evict corrupt;
        let evicted_corrupt = !evicted in
        List.iter
          (fun e -> if !resident > budget then evict e)
          by_age;
        {
          entries = List.length !entries - !evicted;
          resident_bytes = !resident;
          evicted = !evicted;
          evicted_bytes = !evicted_bytes;
          evicted_corrupt;
        }
  in
  if stats.evicted > 0 then R.incr ~by:stats.evicted t.obs "cache.evict";
  (* run-history-dependent, hence volatile (excluded from deterministic
     metric views) *)
  R.set ~volatile:true t.obs "cache.resident-bytes"
    (float_of_int stats.resident_bytes);
  stats
