(* MD5 (RFC 1321) is the OCaml runtime's C implementation, [Stdlib.Digest];
   the test suite checks it against the RFC 1321 vectors. *)

let digest = Digest.string

let digest_bytes b ~off ~len = Digest.subbytes b off len

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let hex s = Digest.to_hex (digest s)
