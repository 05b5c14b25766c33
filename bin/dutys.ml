(* DUTYS: generate the architecture file describing the target FPGA. *)

open Cmdliner

let run output k n i_opt segments width =
  let i =
    match i_opt with
    | Some i -> i
    | None -> Fpga_arch.Params.recommended_inputs ~k ~n
  in
  let params =
    Fpga_arch.Params.validate
      {
        Fpga_arch.Params.amdrel with
        Fpga_arch.Params.k;
        n;
        i;
        segments = Fpga_arch.Params.segments_of_string segments;
        switch_width = width;
      }
  in
  Fpga_arch.Archfile.to_file output params;
  Printf.printf "%s: K=%d N=%d I=%d seg=%s switch=%gx (%d config bits/CLB)\n"
    output k n i
    (Fpga_arch.Params.mix_name params)
    width
    (Fpga_arch.Params.clb_config_bits params)

let output_arg =
  Arg.(
    value
    & opt string "fpga.arch"
    & info [ "o"; "output" ] ~docv:"OUTPUT.arch" ~doc:"architecture file")

let k_arg = Arg.(value & opt int 4 & info [ "k" ] ~doc:"LUT inputs")
let n_arg = Arg.(value & opt int 5 & info [ "n" ] ~doc:"BLEs per CLB")

let i_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "i" ] ~doc:"CLB inputs (default: the (K/2)(N+1) rule)")

let segments_arg =
  Arg.(
    value
    & opt string "1xL1"
    & info [ "segments" ] ~docv:"MIX"
        ~doc:
          "the channel's segment mix, e.g. $(b,4xL1+4xL2+2xL4): each \
           term contributes COUNT tracks of length L to the repeating \
           per-channel pattern (Fc 1.0, min-width/double-spacing metal; \
           edit the generated file's $(b,segment) lines for per-type Fc \
           or metal)")

let width_arg =
  Arg.(
    value & opt float 10.0
    & info [ "switch-width" ] ~doc:"routing switch width (x minimum)")

let cmd =
  Cmd.v
    (Cmd.info "dutys" ~doc:"Generate the FPGA architecture description file")
    Term.(
      const (fun o k n i sm w ->
          Tool_common.protect (fun () -> run o k n i sm w))
      $ output_arg $ k_arg $ n_arg $ i_arg $ segments_arg $ width_arg)

let () = exit (Cmd.eval cmd)
