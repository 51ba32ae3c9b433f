(** MD5 message digest (RFC 1321).

    The BFT library of the paper computes MD5 digests of requests and
    replies. This is the OCaml runtime's MD5 ([Stdlib.Digest]), checked
    against the RFC 1321 test vectors in the test suite. *)

val digest : string -> string
(** 16-byte binary digest. *)

val digest_bytes : Bytes.t -> off:int -> len:int -> string
(** Digest of a byte-array slice (e.g. a scratch buffer), without copying
    it out. Raises [Invalid_argument] if the slice is out of range. *)

val hex : string -> string
(** Digest rendered as 32 lowercase hex characters. *)

val to_hex : string -> string
(** Render an arbitrary binary string as lowercase hex. *)
