(* DAGGER: generate (and verify) the configuration bitstream. *)

open Cmdliner

let run blif_path net_path arch output seed fuse_map =
  let config, packing =
    Tool_common.packed_design ~arch ~seed blif_path net_path
  in
  let obs = Obs.Registry.create () in
  let anneal = Core.Flow.place config obs packing in
  let routed = Core.Flow.route config obs anneal.Place.Anneal.placement in
  let generated = Bitstream.Dagger.generate routed in
  Bitstream.Dagger.to_file output generated;
  print_endline (Bitstream.Dagger.summary generated);
  if fuse_map then print_string (Bitstream.Dagger.fuse_map generated);
  match Bitstream.Dagger.verify routed generated.Bitstream.Dagger.bytes with
  | Bitstream.Dagger.Verified ->
      Printf.printf "%s: structure verified\n" output;
      if Bitstream.Dagger.verify_functional routed
           generated.Bitstream.Dagger.bytes
      then print_endline "fabric emulation: functionally equivalent"
      else begin
        print_endline "fabric emulation: FUNCTIONAL MISMATCH";
        exit 1
      end
  | Bitstream.Dagger.Corrupted msg ->
      Printf.printf "%s: CORRUPTED (%s)\n" output msg;
      exit 1
  | Bitstream.Dagger.Config_mismatch ->
      Printf.printf "%s: CONFIG MISMATCH\n" output;
      exit 1

let blif_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MAPPED.blif")

let net_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"PACKED.net")

let arch_arg =
  Arg.(value & opt (some file) None & info [ "arch" ] ~docv:"FPGA.arch")

let output_arg =
  Arg.(
    value
    & opt string "design.bit"
    & info [ "o"; "output" ] ~docv:"OUTPUT.bit" ~doc:"bitstream file")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"placement seed")

let fuse_arg =
  Arg.(value & flag & info [ "fuse-map" ] ~doc:"print the fuse-map report")

let cmd =
  Cmd.v
    (Cmd.info "dagger" ~doc:"Generate the FPGA configuration bitstream")
    Term.(
      const (fun b n a o s f -> Tool_common.protect (fun () -> run b n a o s f))
      $ blif_arg $ net_arg $ arch_arg $ output_arg $ seed_arg $ fuse_arg)

let () = exit (Cmd.eval cmd)
