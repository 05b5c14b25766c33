(* PowerModel: dynamic, short-circuit and leakage power estimation of the
   placed-and-routed design. *)

open Cmdliner

let run blif_path net_path arch freq_mhz seed =
  let config, packing =
    Tool_common.packed_design ~arch ~seed blif_path net_path
  in
  let obs = Obs.Registry.create () in
  let anneal = Core.Flow.place config obs packing in
  let routed = Core.Flow.route config obs anneal.Place.Anneal.placement in
  let options =
    { Power.Model.default_options with Power.Model.frequency = freq_mhz *. 1e6 }
  in
  let report = Power.Model.estimate ~options routed in
  Format.printf "%a@." Power.Model.pp report;
  print_endline "top nets by switched energy (J/cycle):";
  List.iter
    (fun (nm, e) -> Printf.printf "  %-24s %.3g\n" nm e)
    report.Power.Model.net_energy_breakdown

let blif_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MAPPED.blif")

let net_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"PACKED.net")

let arch_arg =
  Arg.(value & opt (some file) None & info [ "arch" ] ~docv:"FPGA.arch")

let freq_arg =
  Arg.(value & opt float 100.0 & info [ "freq" ] ~docv:"MHZ" ~doc:"data rate")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"placement seed")

let cmd =
  Cmd.v
    (Cmd.info "powermodel"
       ~doc:"Estimate power of the placed-and-routed design")
    Term.(
      const (fun b n a f s -> Tool_common.protect (fun () -> run b n a f s))
      $ blif_arg $ net_arg $ arch_arg $ freq_arg $ seed_arg)

let () = exit (Cmd.eval cmd)
