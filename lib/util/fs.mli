(** Filesystem helpers. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode 0o755); a no-op
    when the path exists.  Safe against concurrent creators.
    @raise Sys_error when a component cannot be created. *)
