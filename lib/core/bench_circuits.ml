(* Benchmark circuit generators: the workload suite standing in for the
   MCNC LGSynth93 circuits the paper references (see DESIGN.md §4).

   Each generator emits synthesizable VHDL in the subset the front end
   accepts, covering the circuit families the original suite spans:
   arithmetic (adders, accumulators, multipliers), random logic (parity,
   priority encoders, decoders), shift/LFSR structures and FSM control. *)

let counter bits =
  Printf.sprintf
    {|entity counter%d is
  port ( clk : in std_logic;
         rst : in std_logic;
         en  : in std_logic;
         q   : out std_logic_vector(%d downto 0) );
end counter%d;
architecture rtl of counter%d is
  signal cnt : std_logic_vector(%d downto 0);
begin
  process(clk, rst) begin
    if rst = '1' then
      cnt <= %s;
    elsif rising_edge(clk) then
      if en = '1' then
        cnt <= cnt + 1;
      end if;
    end if;
  end process;
  q <= cnt;
end rtl;
|}
    bits (bits - 1) bits bits (bits - 1)
    ("\"" ^ String.make bits '0' ^ "\"")

let shift_register bits =
  Printf.sprintf
    {|entity shiftreg%d is
  port ( clk : in std_logic;
         sin : in std_logic;
         q   : out std_logic_vector(%d downto 0) );
end shiftreg%d;
architecture rtl of shiftreg%d is
  signal r : std_logic_vector(%d downto 0);
begin
  process(clk) begin
    if rising_edge(clk) then
      r <= r(%d downto 0) & sin;
    end if;
  end process;
  q <= r;
end rtl;
|}
    bits (bits - 1) bits bits (bits - 1) (bits - 2)

(* Fibonacci LFSR with taps at the two top bits (plus bit 0 for width > 4). *)
let lfsr bits =
  let feedback =
    if bits > 4 then
      Printf.sprintf "r(%d) xor r(%d) xor r(0)" (bits - 1) (bits - 2)
    else Printf.sprintf "r(%d) xor r(%d)" (bits - 1) (bits - 2)
  in
  Printf.sprintf
    {|entity lfsr%d is
  port ( clk : in std_logic;
         rst : in std_logic;
         q   : out std_logic_vector(%d downto 0) );
end lfsr%d;
architecture rtl of lfsr%d is
  signal r : std_logic_vector(%d downto 0);
  signal fb : std_logic;
begin
  fb <= %s;
  process(clk, rst) begin
    if rst = '1' then
      r <= %s;
    elsif rising_edge(clk) then
      r <= r(%d downto 0) & fb;
    end if;
  end process;
  q <= r;
end rtl;
|}
    bits (bits - 1) bits bits (bits - 1) feedback
    ("\"" ^ String.make (bits - 1) '0' ^ "1\"")
    (bits - 2)

let alu bits =
  Printf.sprintf
    {|entity alu%d is
  port ( clk : in std_logic;
         a  : in std_logic_vector(%d downto 0);
         b  : in std_logic_vector(%d downto 0);
         op : in std_logic_vector(1 downto 0);
         y  : out std_logic_vector(%d downto 0) );
end alu%d;
architecture rtl of alu%d is
  signal r : std_logic_vector(%d downto 0);
begin
  process(clk) begin
    if rising_edge(clk) then
      if op = "00" then
        r <= a and b;
      elsif op = "01" then
        r <= a or b;
      elsif op = "10" then
        r <= a xor b;
      else
        r <= a + b;
      end if;
    end if;
  end process;
  y <= r;
end rtl;
|}
    bits (bits - 1) (bits - 1) (bits - 1) bits bits (bits - 1)

let parity bits =
  let terms =
    String.concat " xor " (List.init bits (fun i -> Printf.sprintf "d(%d)" i))
  in
  Printf.sprintf
    {|entity parity%d is
  port ( d : in std_logic_vector(%d downto 0);
         p : out std_logic );
end parity%d;
architecture rtl of parity%d is
begin
  p <= %s;
end rtl;
|}
    bits (bits - 1) bits bits terms

let decoder bits =
  let outs = 1 lsl bits in
  let cases =
    String.concat "\n"
      (List.init outs (fun v ->
           let pattern =
             String.init bits (fun j ->
                 if (v lsr (bits - 1 - j)) land 1 = 1 then '1' else '0')
           in
           let onehot =
             String.init outs (fun j -> if outs - 1 - j = v then '1' else '0')
           in
           Printf.sprintf "      when \"%s\" => y <= \"%s\";" pattern onehot))
  in
  Printf.sprintf
    {|entity decoder%d is
  port ( a : in std_logic_vector(%d downto 0);
         y : out std_logic_vector(%d downto 0) );
end decoder%d;
architecture rtl of decoder%d is
begin
  process(a) begin
    case a is
%s
      when others => y <= %s;
    end case;
  end process;
end rtl;
|}
    bits (bits - 1) (outs - 1) bits bits cases
    ("\"" ^ String.make outs '0' ^ "\"")

let priority_encoder bits =
  let enc_bits =
    let rec log2up v acc = if v <= 1 then acc else log2up ((v + 1) / 2) (acc + 1) in
    max 1 (log2up bits 0)
  in
  let branches =
    String.concat "\n"
      (List.init bits (fun k ->
           let i = bits - 1 - k in
           let code =
             String.init enc_bits (fun j ->
                 if (i lsr (enc_bits - 1 - j)) land 1 = 1 then '1' else '0')
           in
           Printf.sprintf "    %s d(%d) = '1' then y <= \"%s\"; v <= '1';"
             (if k = 0 then "if" else "elsif")
             i code))
  in
  Printf.sprintf
    {|entity prienc%d is
  port ( d : in std_logic_vector(%d downto 0);
         y : out std_logic_vector(%d downto 0);
         v : out std_logic );
end prienc%d;
architecture rtl of prienc%d is
begin
  process(d) begin
%s
    else y <= %s; v <= '0';
    end if;
  end process;
end rtl;
|}
    bits (bits - 1) (enc_bits - 1) bits bits branches
    ("\"" ^ String.make enc_bits '0' ^ "\"")

(* Shift-and-add multiplier, combinational, registered output. *)
let multiplier bits =
  let partials =
    String.concat "\n"
      (List.init bits (fun i ->
           (* partial product i: (bits-i) leading zeros, a, i trailing zeros *)
           Printf.sprintf
             "  pp%d <= (%s) when b(%d) = '1' else \"%s\";" i
             (if i = 0 then "zeros & a"
              else
                Printf.sprintf "zeros(%d downto 0) & a & zeros(%d downto 0)"
                  (bits - 1 - i) (i - 1))
             i
             (String.make (2 * bits) '0')))
  in
  let sums =
    String.concat "\n"
      (List.init (bits - 1) (fun i ->
           if i = 0 then "  s0 <= pp0 + pp1;"
           else Printf.sprintf "  s%d <= s%d + pp%d;" i (i - 1) (i + 1)))
  in
  let pp_decls =
    String.concat ";\n  "
      (List.init bits (fun i ->
           Printf.sprintf "signal pp%d : std_logic_vector(%d downto 0)" i
             ((2 * bits) - 1)))
  in
  let s_decls =
    String.concat ";\n  "
      (List.init (bits - 1) (fun i ->
           Printf.sprintf "signal s%d : std_logic_vector(%d downto 0)" i
             ((2 * bits) - 1)))
  in
  Printf.sprintf
    {|entity mult%d is
  port ( clk : in std_logic;
         a : in std_logic_vector(%d downto 0);
         b : in std_logic_vector(%d downto 0);
         p : out std_logic_vector(%d downto 0) );
end mult%d;
architecture rtl of mult%d is
  signal zeros : std_logic_vector(%d downto 0);
  %s;
  %s;
  signal r : std_logic_vector(%d downto 0);
begin
  zeros <= "%s";
%s
%s
  process(clk) begin
    if rising_edge(clk) then
      r <= s%d;
    end if;
  end process;
  p <= r;
end rtl;
|}
    bits (bits - 1) (bits - 1) ((2 * bits) - 1) bits bits (bits - 1) pp_decls
    s_decls
    ((2 * bits) - 1)
    (String.make bits '0')
    partials sums (bits - 2)

let gray_counter bits =
  Printf.sprintf
    {|entity gray%d is
  port ( clk : in std_logic;
         rst : in std_logic;
         g   : out std_logic_vector(%d downto 0) );
end gray%d;
architecture rtl of gray%d is
  signal cnt : std_logic_vector(%d downto 0);
begin
  process(clk, rst) begin
    if rst = '1' then
      cnt <= %s;
    elsif rising_edge(clk) then
      cnt <= cnt + 1;
    end if;
  end process;
  g <= cnt xor ('0' & cnt(%d downto 1));
end rtl;
|}
    bits (bits - 1) bits bits (bits - 1)
    ("\"" ^ String.make bits '0' ^ "\"")
    (bits - 1)

(* A small Moore FSM (traffic-light controller with a pedestrian request):
   the control-dominated benchmark class. *)
let traffic_fsm =
  {|entity traffic is
  port ( clk : in std_logic;
         rst : in std_logic;
         req : in std_logic;
         lights : out std_logic_vector(2 downto 0) );
end traffic;
architecture rtl of traffic is
  signal state : std_logic_vector(1 downto 0);
  signal timer : std_logic_vector(2 downto 0);
begin
  process(clk, rst) begin
    if rst = '1' then
      state <= "00";
      timer <= "000";
    elsif rising_edge(clk) then
      if timer = "111" then
        timer <= "000";
        case state is
          when "00" =>
            if req = '1' then state <= "01"; end if;
          when "01" => state <= "10";
          when "10" => state <= "11";
          when others => state <= "00";
        end case;
      else
        timer <= timer + 1;
      end if;
    end if;
  end process;
  process(state) begin
    case state is
      when "00" => lights <= "100";
      when "01" => lights <= "110";
      when "10" => lights <= "001";
      when others => lights <= "010";
    end case;
  end process;
end rtl;
|}

let accumulator bits =
  Printf.sprintf
    {|entity accum%d is
  port ( clk : in std_logic;
         rst : in std_logic;
         d   : in std_logic_vector(%d downto 0);
         sum : out std_logic_vector(%d downto 0) );
end accum%d;
architecture rtl of accum%d is
  signal acc : std_logic_vector(%d downto 0);
begin
  process(clk, rst) begin
    if rst = '1' then
      acc <= %s;
    elsif rising_edge(clk) then
      acc <= acc + d;
    end if;
  end process;
  sum <= acc;
end rtl;
|}
    bits (bits - 1) (bits - 1) bits bits (bits - 1)
    ("\"" ^ String.make bits '0' ^ "\"")

(* PWM generator: a free-running counter compared against a duty-cycle
   input — exercises the relational operators. *)
let pwm bits =
  Printf.sprintf
    {|entity pwm%d is
  port ( clk : in std_logic;
         rst : in std_logic;
         duty : in std_logic_vector(%d downto 0);
         pulse : out std_logic );
end pwm%d;
architecture rtl of pwm%d is
  signal cnt : std_logic_vector(%d downto 0);
begin
  process(clk, rst) begin
    if rst = '1' then
      cnt <= (others => '0');
    elsif rising_edge(clk) then
      cnt <= cnt + 1;
    end if;
  end process;
  pulse <= '1' when cnt < duty else '0';
end rtl;
|}
    bits (bits - 1) bits bits (bits - 1)

(* A hierarchical design: an accumulating datapath built from entity
   instances (adder + register bank), exercising DIVINER's hierarchy
   support the way structural MCNC netlists exercise the original tools. *)
let datapath bits =
  Printf.sprintf
    {|entity dp_adder%d is
  port ( a : in std_logic_vector(%d downto 0);
         b : in std_logic_vector(%d downto 0);
         s : out std_logic_vector(%d downto 0) );
end dp_adder%d;
architecture rtl of dp_adder%d is
begin
  s <= a + b;
end rtl;

entity dp_reg%d is
  port ( clk : in std_logic;
         rst : in std_logic;
         d : in std_logic_vector(%d downto 0);
         q : out std_logic_vector(%d downto 0) );
end dp_reg%d;
architecture rtl of dp_reg%d is
begin
  process(clk, rst) begin
    if rst = '1' then
      q <= %s;
    elsif rising_edge(clk) then
      q <= d;
    end if;
  end process;
end rtl;

entity datapath%d is
  port ( clk : in std_logic;
         rst : in std_logic;
         din : in std_logic_vector(%d downto 0);
         acc : out std_logic_vector(%d downto 0) );
end datapath%d;
architecture rtl of datapath%d is
  component dp_adder%d
    port ( a : in std_logic_vector(%d downto 0);
           b : in std_logic_vector(%d downto 0);
           s : out std_logic_vector(%d downto 0) );
  end component;
  signal state : std_logic_vector(%d downto 0);
  signal sum : std_logic_vector(%d downto 0);
begin
  u_add : dp_adder%d port map ( a => state, b => din, s => sum );
  u_reg : entity work.dp_reg%d port map ( clk, rst, sum, state );
  acc <= state;
end rtl;
|}
    bits (bits - 1) (bits - 1) (bits - 1) bits bits
    bits (bits - 1) (bits - 1) bits bits
    ("\"" ^ String.make bits '0' ^ "\"")
    bits (bits - 1) (bits - 1) bits bits
    bits (bits - 1) (bits - 1) (bits - 1)
    (bits - 1) (bits - 1)
    bits bits

(* Structural ripple-carry adder: a for-generate loop of full-adder
   instances with index arithmetic in the carry chain — the structural
   style of the MCNC netlists. *)
let gen_adder bits =
  Printf.sprintf
    {|entity ga_fa is
  port ( a : in std_logic; b : in std_logic; cin : in std_logic;
         s : out std_logic; cout : out std_logic );
end ga_fa;
architecture rtl of ga_fa is
begin
  s <= a xor b xor cin;
  cout <= (a and b) or (a and cin) or (b and cin);
end rtl;

entity gen_adder%d is
  port ( a : in std_logic_vector(%d downto 0);
         b : in std_logic_vector(%d downto 0);
         s : out std_logic_vector(%d downto 0);
         cout : out std_logic );
end gen_adder%d;
architecture rtl of gen_adder%d is
  component ga_fa
    port ( a : in std_logic; b : in std_logic; cin : in std_logic;
           s : out std_logic; cout : out std_logic );
  end component;
  signal carry : std_logic_vector(%d downto 0);
begin
  carry(0) <= '0';
  g : for i in 0 to %d generate
    u : ga_fa port map ( a => a(i), b => b(i), cin => carry(i),
                         s => s(i), cout => carry(i + 1) );
  end generate;
  cout <= carry(%d);
end rtl;
|}
    bits (bits - 1) (bits - 1) (bits - 1) bits bits bits (bits - 1) bits

(* Each sized family by its top entity's name prefix, with its largest
   size: the decoder's VHDL grows as 4^n (2^n case lines of 2^n bits),
   the multiplier's as n^2 and the others' linearly.  Sizes start at 2,
   the smallest the shift register, LFSR, multiplier and Gray counter
   generate. *)
let families =
  [
    ("counter", counter, 64);
    ("shiftreg", shift_register, 64);
    ("lfsr", lfsr, 64);
    ("alu", alu, 64);
    ("parity", parity, 64);
    ("decoder", decoder, 8);
    ("prienc", priority_encoder, 64);
    ("mult", multiplier, 64);
    ("gray", gray_counter, 64);
    ("accum", accumulator, 64);
    ("pwm", pwm, 64);
    ("datapath", datapath, 64);
    ("gen_adder", gen_adder, 64);
  ]

let find name =
  if name = "traffic" then Some traffic_fsm
  else
    List.find_map
      (fun (prefix, gen, largest) ->
        if not (String.starts_with ~prefix name) then None
        else
          let cut = String.length prefix in
          let size = String.sub name cut (String.length name - cut) in
          match int_of_string_opt size with
          | Some n when n >= 2 && n <= largest && string_of_int n = size ->
              Some (gen n)
          | _ -> None)
      families

let named = List.map (fun name -> (name, Option.get (find name)))

(* The benchmark suite used by the flow evaluation and benches. *)
let suite =
  named
    [
      "counter8"; "counter16"; "shiftreg16"; "lfsr12"; "alu8"; "parity16";
      "decoder4"; "prienc8"; "mult4"; "gray8"; "traffic"; "accum12";
      "datapath8"; "pwm8"; "gen_adder8";
    ]

(* A smaller subset for quick tests. *)
let quick_suite = named [ "counter8"; "parity16"; "traffic" ]

(* Larger designs (95-477 LUTs): the bench's full-flow scaling check. *)
let stress = named [ "alu16"; "mult8"; "counter32"; "accum24"; "mult12" ]
