(* Shared helpers for the standalone tool executables. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* Uniform handling of the flow's exceptions for tool main functions. *)
let protect f =
  try f () with
  | Netlist.Vhdl_lexer.Lex_error (line, msg) ->
      Printf.eprintf "lexical error, line %d: %s\n" line msg;
      exit 1
  | Netlist.Vhdl_parser.Parse_error (line, msg) ->
      Printf.eprintf "syntax error, line %d: %s\n" line msg;
      exit 1
  | Synth.Elaborate.Elab_error msg ->
      Printf.eprintf "elaboration error: %s\n" msg;
      exit 1
  | Netlist.Blif.Parse_error (line, msg) ->
      Printf.eprintf "BLIF error, line %d: %s\n" line msg;
      exit 1
  | Netlist.Edif.Invalid_edif msg ->
      Printf.eprintf "EDIF error: %s\n" msg;
      exit 1
  | Netlist.Sexp.Parse_error (line, msg) ->
      Printf.eprintf "EDIF syntax error, line %d: %s\n" line msg;
      exit 1
  | Synth.Druid.Druid_error msg ->
      Printf.eprintf "DRUID error: %s\n" msg;
      exit 1
  | Fpga_arch.Params.Invalid_params msg | Fpga_arch.Archfile.Parse_error msg ->
      Printf.eprintf "architecture error: %s\n" msg;
      exit 1
  | Pack.Cluster.Infeasible msg ->
      Printf.eprintf "packing error: %s\n" msg;
      exit 1
  | Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

(* The packing in MAPPED.blif + PACKED.net, and the flow config that
   places and routes it through [Core.Flow.place] and [Core.Flow.route]:
   the fabric of the DUTYS file [arch] (the paper's platform when absent)
   with its IO pads per position, the placement [seed], and [route_width]
   or else the minimum-width search. *)
let packed_design ~arch ~seed ?route_width blif_path net_path =
  let net = Netlist.Blif.of_string (read_file blif_path) in
  let packing = Pack.Netfile.of_string net (read_file net_path) in
  let params =
    match arch with
    | Some p -> Fpga_arch.Archfile.of_file p
    | None -> Fpga_arch.Params.amdrel
  in
  let default = Core.Flow.default_config in
  ( {
      default with
      Core.Flow.params;
      seed;
      search_min_width = Option.is_none route_width;
      route_width =
        Option.value route_width ~default:default.Core.Flow.route_width;
    },
    packing )
