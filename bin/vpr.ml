(* VPR: placement and routing of a packed netlist onto the target FPGA. *)

open Cmdliner

let run blif_path net_path arch seed route_width =
  let config, packing =
    Tool_common.packed_design ~arch ~seed ?route_width blif_path net_path
  in
  let obs = Obs.Registry.create () in
  let anneal = Core.Flow.place config obs packing in
  let problem = anneal.Place.Anneal.placement.Place.Placement.problem in
  Printf.printf "grid: %dx%d CLBs, %d blocks, %d nets\n"
    problem.Place.Problem.grid.Fpga_arch.Grid.nx
    problem.Place.Problem.grid.Fpga_arch.Grid.ny
    (Array.length problem.Place.Problem.blocks)
    (Array.length problem.Place.Problem.nets);
  Printf.printf "placement: cost %.2f -> %.2f (%d moves, %d accepted)\n"
    anneal.Place.Anneal.initial_cost anneal.Place.Anneal.final_cost
    anneal.Place.Anneal.moves anneal.Place.Anneal.accepted;
  let routed = Core.Flow.route config obs anneal.Place.Anneal.placement in
  let st = Route.Router.stats routed in
  Printf.printf "routing: channel width %d%s, %d wire tiles, %d switches\n"
    st.Route.Router.channel_width
    (match st.Route.Router.minimum_width with
    | Some w -> Printf.sprintf " (minimum %d)" w
    | None -> "")
    st.Route.Router.total_wire_tiles st.Route.Router.switches_used;
  Printf.printf "critical path: %.3f ns\n"
    (st.Route.Router.critical_path_s *. 1e9)

let blif_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MAPPED.blif")

let net_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"PACKED.net")

let arch_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "arch" ] ~docv:"FPGA.arch" ~doc:"architecture file (DUTYS)")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"placement seed")

let width_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "route-width" ]
        ~doc:"route at a fixed channel width instead of searching the minimum")

let cmd =
  Cmd.v
    (Cmd.info "vpr" ~doc:"Place and route a packed netlist")
    Term.(
      const (fun b n a s w -> Tool_common.protect (fun () -> run b n a s w))
      $ blif_arg $ net_arg $ arch_arg $ seed_arg $ width_arg)

let () = exit (Cmd.eval cmd)
