type tag = string

let tag_size = 8

(* MAC keys are long-lived session keys, so the HMAC pads are cached per
   key. The tag bytes produced are identical to
   [Hmac.mac ~key (nonce_le ^ msg)] truncated to [tag_size]. *)
let keyed_cache : (string, Hmac.keyed) Hashtbl.t = Hashtbl.create 64

let keyed key =
  match Hashtbl.find_opt keyed_cache key with
  | Some k -> k
  | None ->
    (* Bounded: derived keys are per (pair, epoch), but guard anyway. *)
    if Hashtbl.length keyed_cache > 4096 then Hashtbl.reset keyed_cache;
    let k = Hmac.prepare key in
    Hashtbl.replace keyed_cache key k;
    k

(* The inner hash input ipad | nonce | msg and the outer one opad | inner
   are laid out in one scratch encoder, so each takes a single digest call. *)
module Enc = Bft_util.Codec.Enc

let scratch = ref (Enc.create ~initial:256 ())

(* A scratch encoder grown past this by one large message is dropped after
   the tag is computed. *)
let keep_limit = 65536

let digest_scratch enc = Md5.digest_bytes (Enc.unsafe_bytes enc) ~off:0 ~len:(Enc.length enc)

let compute_tag ~key ~nonce msg =
  let k = keyed key in
  let enc = !scratch in
  Enc.clear enc;
  Enc.raw enc k.Hmac.ipad;
  Enc.u64 enc nonce;
  Enc.raw enc msg;
  let inner = digest_scratch enc in
  Enc.clear enc;
  Enc.raw enc k.Hmac.opad;
  Enc.raw enc inner;
  let outer = digest_scratch enc in
  if Bytes.length (Enc.unsafe_bytes enc) > keep_limit then
    scratch := Enc.create ~initial:256 ();
  String.sub outer 0 tag_size

let compute ~key ~nonce msg =
  Tally.note_mac_gen (String.length msg);
  compute_tag ~key ~nonce msg

let equal a b =
  (* Constant-time over the common length to avoid timing oracles. *)
  String.length a = String.length b
  &&
  let acc = ref 0 in
  String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
  !acc = 0

let verify ~key ~nonce msg tag =
  Tally.note_mac_verify (String.length msg);
  equal (compute_tag ~key ~nonce msg) tag
