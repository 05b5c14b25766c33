(* Benchmark-circuit generator CLI: prints the VHDL of a design from the
   benchmark catalog (our stand-in for the MCNC set) by its top entity's
   name, so scripts and CI can feed the flow tools without checked-in
   sources, e.g.

     bcgen mult24 > mult24.vhd && amdrel_flow mult24.vhd --timing-report *)

open Cmdliner

let run name list_only =
  if list_only then
    List.iter
      (fun (n, _) -> print_endline n)
      (Core.Bench_circuits.suite @ Core.Bench_circuits.stress)
  else
    match name with
    | None -> prerr_endline "bcgen: missing circuit name (try --list)"; exit 2
    | Some n -> (
        match Core.Bench_circuits.find n with
        | Some vhdl -> print_string vhdl
        | None ->
            Printf.eprintf "bcgen: unknown circuit %S (try --list)\n" n;
            exit 2)

let name_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"CIRCUIT"
        ~doc:
          "the design's top entity: a suite or stress name, or any \
           family at a size, such as $(b,mult24) or $(b,alu32) (sizes 2 \
           to 64, decoders to 8)")

let list_arg =
  Arg.(
    value & flag
    & info [ "list" ] ~doc:"list the suite and stress designs' names")

let cmd =
  Cmd.v
    (Cmd.info "bcgen"
       ~doc:"Print the VHDL of a benchmark circuit from the design catalog")
    Term.(const run $ name_arg $ list_arg)

let () = exit (Cmd.eval cmd)
