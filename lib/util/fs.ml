(* Filesystem helpers shared by the cache, the ledger and the CLIs. *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
    (* lost a creation race to a concurrent creator: the directory is
       there, which is all we wanted *)
  end
