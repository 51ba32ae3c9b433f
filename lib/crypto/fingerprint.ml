type t = string

let size = 16

let of_string s =
  Tally.note_digest (String.length s);
  Digest.string s

let of_substring s ~off ~len =
  Tally.note_digest len;
  Digest.substring s off len

let of_bytes b ~off ~len =
  Tally.note_digest len;
  Digest.subbytes b off len

(* Multi-part digests frame every part with a little-endian 64-bit length,
   so part boundaries are unambiguous. [builder] encodes the framed parts
   into a scratch encoder and hashes it once in [finish]. *)
module Enc = Bft_util.Codec.Enc

type builder = { mutable enc : Enc.t; mutable fed : int }

let initial_size = 256

(* A scratch encoder grown past this by one large part is dropped after
   [finish] rather than kept for the life of the builder. *)
let keep_limit = 65536

let create_builder () = { enc = Enc.create ~initial:initial_size (); fed = 0 }

let reset_builder b =
  Enc.clear b.enc;
  b.fed <- 0

let add_part b part =
  Enc.int b.enc (String.length part);
  Enc.raw b.enc part;
  b.fed <- b.fed + String.length part

let add_part_bytes b src ~off ~len =
  Enc.int b.enc len;
  Enc.raw_bytes b.enc src ~off ~len;
  b.fed <- b.fed + len

let finish b =
  Tally.note_digest b.fed;
  let d = Digest.subbytes (Enc.unsafe_bytes b.enc) 0 (Enc.length b.enc) in
  if Bytes.length (Enc.unsafe_bytes b.enc) > keep_limit then
    b.enc <- Enc.create ~initial:initial_size ();
  reset_builder b;
  d

let parts_builder = create_builder ()

let of_parts parts =
  reset_builder parts_builder;
  List.iter (add_part parts_builder) parts;
  finish parts_builder

let equal = String.equal

let compare = String.compare

let zero = String.make size '\000'

let pp fmt t = Format.pp_print_string fmt (String.sub (Md5.to_hex t) 0 8)
