(* Bitstream serialisation: framed binary with a CRC-32 trailer.

   Layout:
     magic "AMD2"
     u32 header length | header: design name, nx, ny, width, k, n, i
     width x u32       | per-track declared segment length (device geometry
                         the switch descriptors are laid out against)
     u32 clb count     | per CLB: x, y, cluster, N x (lut_bits, flags, K sources)
     u32 pad count     | per pad: block, x, y, sub, direction, name
     u32 switch count  | per switch: two node descriptors (5 x u32 each)
     u32 pin-link count| same encoding
     u32 CRC-32 of everything above

   AMD2 extends AMD1 with the per-track segment-length table; AMD1
   streams (uniform length-1 era) are no longer accepted. *)

exception Corrupt of string

let magic = "AMD2"

(* ---------- primitive writers/readers ---------- *)

let w32 buf v =
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * shift)) land 0xFF))
  done

let wstr buf s =
  w32 buf (String.length s);
  Buffer.add_string buf s

type reader = { data : string; mutable pos : int }

let r32 r =
  if r.pos + 4 > String.length r.data then raise (Corrupt "truncated");
  let v = ref 0 in
  for shift = 3 downto 0 do
    v := (!v lsl 8) lor Char.code r.data.[r.pos + shift]
  done;
  r.pos <- r.pos + 4;
  !v

(* [count], a count read from the stream, when the bytes left can hold
   that many items of at least [size] bytes each: a decoder must not
   allocate for a count the stream cannot back. *)
let fits r count ~size =
  if count > (String.length r.data - r.pos) / size then
    raise (Corrupt "count exceeds the stream");
  count

let rstr r =
  let len = r32 r in
  if r.pos + len > String.length r.data then raise (Corrupt "truncated string");
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let w_desc buf (a, b, c, d, e) =
  w32 buf a; w32 buf b; w32 buf c; w32 buf d; w32 buf e

let r_desc r =
  let a = r32 r in
  let b = r32 r in
  let c = r32 r in
  let d = r32 r in
  let e = r32 r in
  (a, b, c, d, e)

(* ---------- encode ---------- *)

let encode (params : Fpga_arch.Params.t) (cfg : Layout.config) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  wstr buf cfg.Layout.design;
  w32 buf cfg.Layout.nx;
  w32 buf cfg.Layout.ny;
  w32 buf cfg.Layout.width;
  w32 buf params.Fpga_arch.Params.k;
  w32 buf params.Fpga_arch.Params.n;
  w32 buf params.Fpga_arch.Params.i;
  if Array.length cfg.Layout.track_lengths <> cfg.Layout.width then
    raise
      (Corrupt
         (Printf.sprintf "track table has %d entries for width %d"
            (Array.length cfg.Layout.track_lengths)
            cfg.Layout.width));
  Array.iter (fun l -> w32 buf l) cfg.Layout.track_lengths;
  w32 buf (List.length cfg.Layout.clbs);
  List.iter
    (fun (clb : Layout.clb_config) ->
      w32 buf clb.Layout.x;
      w32 buf clb.Layout.y;
      w32 buf clb.Layout.cluster;
      w32 buf clb.Layout.block;
      Array.iter
        (fun (ble : Layout.ble_config) ->
          w32 buf ble.Layout.lut_bits;
          w32 buf
            ((if ble.Layout.registered then 1 else 0)
            lor (if ble.Layout.clock_enable then 2 else 0)
            lor if ble.Layout.ff_init then 4 else 0);
          Array.iter (fun s -> w32 buf s) ble.Layout.input_sources)
        clb.Layout.bles)
    cfg.Layout.clbs;
  w32 buf (List.length cfg.Layout.pads);
  List.iter
    (fun (p : Layout.pad_config) ->
      w32 buf p.Layout.pad_block;
      w32 buf p.Layout.pad_x;
      w32 buf p.Layout.pad_y;
      w32 buf p.Layout.pad_sub;
      w32 buf (if p.Layout.pad_is_input then 1 else 0);
      wstr buf p.Layout.pad_name)
    cfg.Layout.pads;
  w32 buf (List.length cfg.Layout.switches);
  List.iter
    (fun (a, b) -> w_desc buf a; w_desc buf b)
    cfg.Layout.switches;
  w32 buf (List.length cfg.Layout.pin_links);
  List.iter
    (fun (a, b) -> w_desc buf a; w_desc buf b)
    cfg.Layout.pin_links;
  let body = Buffer.contents buf in
  let crc = Crc.of_string body in
  let out = Buffer.create (String.length body + 4) in
  Buffer.add_string out body;
  w32 out (Int32.to_int (Int32.logand crc 0xFFFFFFFFl) land 0xFFFFFFFF);
  Buffer.contents out

(* ---------- decode ---------- *)

let decode data =
  if String.length data < 8 then raise (Corrupt "too short");
  let body = String.sub data 0 (String.length data - 4) in
  let r = { data; pos = String.length data - 4 } in
  let stored_crc = r32 r in
  let crc = Int32.to_int (Int32.logand (Crc.of_string body) 0xFFFFFFFFl) land 0xFFFFFFFF in
  if stored_crc <> crc then raise (Corrupt "CRC mismatch");
  let r = { data = body; pos = 0 } in
  let m = String.sub body 0 4 in
  r.pos <- 4;
  if m <> magic then raise (Corrupt "bad magic");
  let design = rstr r in
  let nx = r32 r in
  let ny = r32 r in
  let width = r32 r in
  let k = r32 r in
  let n = r32 r in
  let i = r32 r in
  let track_lengths = Array.init (fits r width ~size:4) (fun _ -> r32 r) in
  let n_clbs = fits r (r32 r) ~size:16 in
  let clbs =
    List.init n_clbs (fun _ ->
        let x = r32 r in
        let y = r32 r in
        let cluster = r32 r in
        let block = r32 r in
        let bles =
          Array.init (fits r n ~size:8) (fun _ ->
              let lut_bits = r32 r in
              let flags = r32 r in
              let input_sources =
                Array.init (fits r k ~size:4) (fun _ -> r32 r)
              in
              {
                Layout.lut_bits;
                registered = flags land 1 <> 0;
                clock_enable = flags land 2 <> 0;
                ff_init = flags land 4 <> 0;
                input_sources;
              })
        in
        { Layout.x; y; cluster; block; bles })
  in
  let n_pads = fits r (r32 r) ~size:24 in
  let pads =
    List.init n_pads (fun _ ->
        let pad_block = r32 r in
        let pad_x = r32 r in
        let pad_y = r32 r in
        let pad_sub = r32 r in
        let dir = r32 r in
        let pad_name = rstr r in
        {
          Layout.pad_block;
          pad_x;
          pad_y;
          pad_sub;
          pad_is_input = dir = 1;
          pad_name;
        })
  in
  let n_sw = fits r (r32 r) ~size:40 in
  let switches = List.init n_sw (fun _ ->
      let a = r_desc r in
      let b = r_desc r in
      (a, b))
  in
  let n_pl = fits r (r32 r) ~size:40 in
  let pin_links = List.init n_pl (fun _ ->
      let a = r_desc r in
      let b = r_desc r in
      (a, b))
  in
  ignore i;
  { Layout.design; nx; ny; width; track_lengths; clbs; pads; switches;
    pin_links }
