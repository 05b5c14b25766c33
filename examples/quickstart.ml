(* Quickstart: synthesize a small VHDL design and carry it through the
   complete flow — VHDL, synthesis, LUT mapping, packing, placement,
   routing, power estimation and bitstream generation — using the public
   API only.

   Run with: dune exec examples/quickstart.exe *)

let vhdl =
  {|-- A 4-bit loadable counter.
entity quickstart is
  port ( clk  : in std_logic;
         rst  : in std_logic;
         load : in std_logic;
         d    : in std_logic_vector(3 downto 0);
         q    : out std_logic_vector(3 downto 0) );
end quickstart;
architecture rtl of quickstart is
  signal cnt : std_logic_vector(3 downto 0);
begin
  process(clk, rst) begin
    if rst = '1' then
      cnt <= "0000";
    elsif rising_edge(clk) then
      if load = '1' then
        cnt <= d;
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;
  q <= cnt;
end rtl;
|}

let () =
  print_endline "== AMDREL framework quickstart ==";
  (* Step 1: the complete flow in one call. *)
  let r = Core.Flow.run_vhdl vhdl in
  print_endline (Core.Flow.summary (Core.Flow.result_obj r));
  (* Step 2: the intermediate products render from the two networks. *)
  let net = r.Core.Flow.mapped in
  let edif = Netlist.Edif.of_logic r.Core.Flow.synthesized in
  Printf.printf "\nEDIF netlist: %d bytes\n"
    (String.length (Netlist.Edif.to_string edif));
  Printf.printf "mapped BLIF:\n%s\n" (Netlist.Blif.to_string net);
  (* Step 3: simulate the mapped netlist to watch it count. *)
  let st = Netlist.Logic.sim_init net in
  let inputs = Hashtbl.create 4 in
  let input_of nm =
    match Hashtbl.find_opt inputs nm with Some v -> v | None -> false
  in
  Hashtbl.replace inputs "rst" false;
  Hashtbl.replace inputs "load" false;
  print_string "counting:";
  for _ = 1 to 6 do
    Netlist.Logic.sim_eval net st input_of;
    Netlist.Logic.sim_step net st;
    Netlist.Logic.sim_eval net st input_of;
    Printf.printf " %d" (Netlist.Logic.read_vector net st "q")
  done;
  print_newline ();
  (* Step 4: the bitstream round-trips. *)
  Printf.printf "bitstream: %s\n"
    (Bitstream.Dagger.summary r.Core.Flow.bitstream)
