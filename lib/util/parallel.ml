(* Fixed-size Domain work pool for embarrassingly-parallel stages.

   Tasks are claimed from a shared atomic counter (work stealing over
   indices), results land in a per-index slot, and the caller's domain
   participates as the last worker, so [jobs = k] spawns only k-1
   domains.  Determinism contract: result order is input order, and the
   lowest-index task exception is the one re-raised — both identical to
   what a sequential Array.map would produce. *)

let env_jobs () =
  match Sys.getenv_opt "AMDREL_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

(* Nested-parallelism guard: a map running inside a pool worker executes
   sequentially, so composed parallel stages (e.g. a parallel benchmark
   suite whose circuits each run a parallel width search) never multiply
   their domain counts. *)
let worker_key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get worker_key

let resolve_jobs ?jobs () =
  if in_worker () then 1
  else max 1 (match jobs with Some n -> n | None -> default_jobs ())

type 'b outcome =
  | Ok_ of 'b
  | Err of exn * Printexc.raw_backtrace

let map ?jobs f xs =
  let n = Array.length xs in
  let jobs = min (resolve_jobs ?jobs ()) n in
  if jobs <= 1 || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set worker_key true;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <-
            (match f xs.(i) with
            | v -> Some (Ok_ v)
            | exception e -> Some (Err (e, Printexc.get_raw_backtrace ())));
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* the calling domain is the pool's last worker *)
    worker ();
    Domain.DLS.set worker_key false;
    Array.iter Domain.join domains;
    Array.map
      (function
        | Some (Ok_ v) -> v
        | Some (Err (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* every index was claimed *))
      results
  end

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))

(* Per-domain scratch slots: mutable working storage a parallel stage's
   tasks need (Dijkstra arrays, costing buffers).  Each domain lazily
   builds its own value, so tasks running on different domains never
   alias, while tasks that land on the same domain (including the caller,
   across successive [map] calls) reuse one allocation. *)
type 'a scratch_slot = 'a option ref Domain.DLS.key

let scratch_slot () : 'a scratch_slot = Domain.DLS.new_key (fun () -> ref None)

let scratch slot ~valid ~create =
  let cell = Domain.DLS.get slot in
  match !cell with
  | Some v when valid v -> v
  | _ ->
      let v = create () in
      cell := Some v;
      v
