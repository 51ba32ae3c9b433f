(* Host unit costs of the primitives every layer leans on, timed from the
   outside through their public entry points. Each measurement repeats the
   call for a fixed host-time budget and keeps the median of several
   batches, so one scheduler hiccup does not move it. *)

module Md5 = Bft_crypto.Md5
module Mac = Bft_crypto.Mac
module Message = Bft_core.Message

(* Median ns per call of [f], over five batches of [iters] calls. *)
let time_per_call ~iters f =
  let batches = 5 in
  let per_batch =
    Array.init batches (fun _ ->
        let t0 = Probe.now_ns () in
        for _ = 1 to iters do
          f ()
        done;
        float_of_int (Probe.now_ns () - t0) /. float_of_int iters)
  in
  Array.sort compare per_batch;
  per_batch.(batches / 2)

(* Calls per batch so that a batch takes roughly 4 ms. *)
let calibrate_iters f =
  let t0 = Probe.now_ns () in
  f ();
  let one = max 1 (Probe.now_ns () - t0) in
  max 1 (4_000_000 / one)

let measure f = time_per_call ~iters:(calibrate_iters f) f

let md5_ns ~bytes =
  let s = String.make (max 1 bytes) 'x' in
  measure (fun () -> ignore (Sys.opaque_identity (Md5.digest s)))

(* Host MD5 throughput over 64 KiB buffers: the run header's calibration,
   so a host-speed drift can be told apart from a code change. *)
let md5_mb_per_s () =
  let bytes = 65536 in
  float_of_int bytes /. md5_ns ~bytes *. 1e3

let mac_ns ~bytes =
  let key = String.make 16 'k' in
  let msg = String.make (max 1 bytes) 'm' in
  measure (fun () ->
      ignore (Sys.opaque_identity (Mac.compute ~key ~nonce:7L msg)))

(* A client REQUEST envelope carrying [op], authenticated for four
   replicas: the datagram every op starts with. *)
let request_envelope op =
  {
    Message.sender = 4;
    msg =
      Message.Request
        {
          client = 4;
          timestamp = 1L;
          read_only = false;
          full_replies = false;
          replier = 0;
          op;
        };
    commits = [];
    auth =
      {
        Bft_crypto.Auth.nonce = 1L;
        entries = List.init 4 (fun i -> (i, String.make Mac.tag_size 't'));
      };
  }

let codec_ns op =
  let env = request_envelope op in
  let wire = Message.encode_envelope env in
  let enc = measure (fun () -> ignore (Sys.opaque_identity (Message.encode_envelope env))) in
  let dec = measure (fun () -> ignore (Sys.opaque_identity (Message.decode_envelope wire))) in
  (enc, dec)
