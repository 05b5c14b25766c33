(** Bitstream serialisation: framed binary with a CRC-32 trailer.

    Layout: magic "AMD2"; header (design name, nx, ny, width, K, N, I);
    per-track segment-length table; CLB frames; pad table; routing
    switch and pin-link descriptors; CRC-32 of everything above.  AMD2
    extends AMD1 with the track table for mixed-length segmented
    fabrics; AMD1 streams are no longer accepted. *)

exception Corrupt of string

val magic : string

val encode : Fpga_arch.Params.t -> Layout.config -> string

val decode : string -> Layout.config
(** @raise Corrupt on truncation, bad magic, CRC mismatch or a count
    larger than the rest of the stream can hold. *)
