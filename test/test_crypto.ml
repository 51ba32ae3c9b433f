(* Tests for Bft_crypto: MD5 against the RFC 1321 suite, HMAC against
   RFC 2202, MAC tags, keychain epochs and MAC-vector authenticators. *)

open Bft_crypto

let check = Alcotest.check

(* --- MD5: the full RFC 1321 appendix A.5 test suite -------------------- *)

let rfc1321_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let test_md5_vectors () =
  List.iter
    (fun (input, expected) -> check Alcotest.string input expected (Md5.hex input))
    rfc1321_vectors

let test_md5_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundary, digested
     whole and as a slice of a larger buffer; expected values from Python's
     hashlib. *)
  List.iter
    (fun (n, expected) ->
      let s = String.make n 'x' in
      check Alcotest.string (string_of_int n) expected (Md5.hex s);
      let buf = Bytes.of_string ("ab" ^ s ^ "cd") in
      check Alcotest.string
        (Printf.sprintf "slice %d" n)
        expected
        (Md5.to_hex (Md5.digest_bytes buf ~off:2 ~len:n)))
    [
      (0, "d41d8cd98f00b204e9800998ecf8427e");
      (1, "9dd4e461268c8034f5c8564e155c67a6");
      (55, "04364420e25c512fd958a70738aa8f72");
      (56, "668a72d5ba17f08e62dabcafad6db14b");
      (57, "693037871c4a9d3d8685018905cb530a");
      (63, "7dc2ca208106a2f703567bdff99d8981");
      (64, "c1bb4f81d892b2d57947682aeb252456");
      (65, "1bc932052302d074bdec39795fe00cf6");
      (119, "ab347a5f68c8a443cfcddc633f12c24f");
      (120, "fb98667f98096de92620b64f46e1c5b5");
      (121, "e8bb0ccd83750100b37f4831cd5d7ee2");
      (127, "a0b28c1da68705c2ff883fe279b72753");
      (128, "d69cb61a6ee87200676eb0d4b90edbcb");
      (129, "3926841d393c00c3f36260e5ace10dc1");
    ]

let test_to_hex () =
  check Alcotest.string "hex" "00ff10" (Md5.to_hex "\x00\xff\x10")

(* --- HMAC-MD5: RFC 2202 vectors ---------------------------------------- *)

let test_hmac_rfc2202 () =
  let cases =
    [
      (String.make 16 '\x0b', "Hi There", "9294727a3638bb1c13f48ef8158bfc9d");
      ("Jefe", "what do ya want for nothing?", "750c783e6ab0b503eaa86e310a5db738");
      ( String.make 16 '\xaa',
        String.make 50 '\xdd',
        "56be34521d144c88dbb8c733f0e8b3f6" );
      ( String.make 80 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd" );
      ( String.make 80 '\xaa',
        "Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
        "6f630fad67cda0ee1fb1f562db3aa53e" );
    ]
  in
  List.iter
    (fun (key, data, expected) ->
      check Alcotest.string data expected (Hmac.hex ~key data))
    cases

(* --- MAC tags ----------------------------------------------------------- *)

let test_mac_verify () =
  let tag = Mac.compute ~key:"secret" ~nonce:42L "message" in
  check Alcotest.int "tag size" Mac.tag_size (String.length tag);
  check Alcotest.bool "verifies" true (Mac.verify ~key:"secret" ~nonce:42L "message" tag);
  check Alcotest.bool "wrong key" false
    (Mac.verify ~key:"other" ~nonce:42L "message" tag);
  check Alcotest.bool "wrong nonce" false
    (Mac.verify ~key:"secret" ~nonce:43L "message" tag);
  check Alcotest.bool "wrong msg" false
    (Mac.verify ~key:"secret" ~nonce:42L "massage" tag)

let test_mac_large_message () =
  (* A message past the kept scratch size, then a small one: both tags are
     truncated HMAC-MD5 over nonce_le ^ msg. *)
  let key = "0123456789abcdef" in
  List.iter
    (fun msg ->
      let nonce_le = Bytes.create 8 in
      Bytes.set_int64_le nonce_le 0 5L;
      check Alcotest.string
        (Printf.sprintf "%d bytes" (String.length msg))
        (String.sub (Hmac.mac ~key (Bytes.to_string nonce_le ^ msg)) 0 Mac.tag_size)
        (Mac.compute ~key ~nonce:5L msg))
    [ String.make 100_000 'm'; "small" ]

let test_mac_equal_lengths () =
  check Alcotest.bool "different lengths" false (Mac.equal "abc" "abcd");
  check Alcotest.bool "equal" true (Mac.equal "abcd" "abcd")

(* --- keychain ------------------------------------------------------------ *)

let test_keychain_pairwise_agreement () =
  let a = Keychain.create ~master:"m" ~self:0 () in
  let b = Keychain.create ~master:"m" ~self:1 () in
  (* The key 0 uses to send to 1 must be the key 1 expects from 0. *)
  check Alcotest.string "0->1" (Keychain.send_key a 1) (Keychain.recv_key b 0);
  check Alcotest.string "1->0" (Keychain.send_key b 0) (Keychain.recv_key a 1);
  check Alcotest.bool "directional keys differ" true
    (Keychain.send_key a 1 <> Keychain.send_key b 0)

let test_keychain_epoch_refresh () =
  let a = Keychain.create ~master:"m" ~self:0 () in
  let b = Keychain.create ~master:"m" ~self:1 () in
  let old_key = Keychain.send_key a 1 in
  Keychain.refresh b;
  (* Until 0 observes the new epoch it still uses the stale key... *)
  check Alcotest.string "stale send key" old_key (Keychain.send_key a 1);
  check Alcotest.bool "receiver rejects stale" true
    (Keychain.recv_key b 0 <> old_key);
  (* ...and after observing, they agree again. *)
  Keychain.observe_epoch a ~peer:1 (Keychain.epoch b ~peer:0);
  check Alcotest.string "fresh agreement" (Keychain.send_key a 1)
    (Keychain.recv_key b 0)

let test_keychain_stale_epoch_ignored () =
  let a = Keychain.create ~master:"m" ~self:0 () in
  Keychain.observe_epoch a ~peer:1 5;
  Keychain.observe_epoch a ~peer:1 3;
  let key5 =
    let b = Keychain.create ~master:"m" ~self:1 () in
    for _ = 1 to 5 do
      Keychain.refresh b
    done;
    Keychain.recv_key b 0
  in
  check Alcotest.string "keeps newest epoch" key5 (Keychain.send_key a 1)

(* --- authenticators ------------------------------------------------------ *)

let make_chains n = Array.init n (fun i -> Keychain.create ~master:"m" ~self:i ())

let test_auth_vector () =
  let chains = make_chains 4 in
  let auth =
    Auth.generate chains.(0) ~nonce:1L ~targets:[ 1; 2; 3 ] "payload"
  in
  for i = 1 to 3 do
    check Alcotest.bool
      (Printf.sprintf "replica %d accepts" i)
      true
      (Auth.check chains.(i) ~from:0 "payload" auth)
  done;
  (* A principal with no entry rejects. *)
  check Alcotest.bool "no entry" false (Auth.check chains.(0) ~from:0 "payload" auth)

let test_auth_rejects_tamper () =
  let chains = make_chains 2 in
  let auth = Auth.generate chains.(0) ~nonce:9L ~targets:[ 1 ] "payload" in
  check Alcotest.bool "wrong message" false
    (Auth.check chains.(1) ~from:0 "paylode" auth);
  check Alcotest.bool "wrong sender claimed" false
    (Auth.check chains.(1) ~from:1 "payload" auth)

let test_auth_corrupt () =
  let chains = make_chains 2 in
  let auth = Auth.single chains.(0) ~nonce:2L ~to_:1 "x" in
  check Alcotest.bool "valid" true (Auth.check chains.(1) ~from:0 "x" auth);
  check Alcotest.bool "corrupted fails" false
    (Auth.check chains.(1) ~from:0 "x" (Auth.corrupt auth))

let test_auth_wire_roundtrip () =
  let chains = make_chains 4 in
  let auth = Auth.generate chains.(2) ~nonce:77L ~targets:[ 0; 1; 3 ] "m" in
  let enc = Bft_util.Codec.Enc.create () in
  Auth.encode enc auth;
  let encoded = Bft_util.Codec.Enc.to_string enc in
  check Alcotest.int "wire size accounting" (Auth.wire_size auth)
    (String.length encoded);
  let decoded = Auth.decode (Bft_util.Codec.Dec.of_string encoded) in
  check Alcotest.bool "still verifies" true (Auth.check chains.(0) ~from:2 "m" decoded)

let test_auth_wire_size_all_entry_counts () =
  (* The modeled network cost must never drift from the codec: for every
     entry count, [wire_size] equals the length of the encoded bytes. *)
  let n = 8 in
  let chains = make_chains n in
  for k = 1 to n - 1 do
    let targets = List.init k (fun i -> i + 1) in
    let auth =
      Auth.generate chains.(0) ~nonce:(Int64.of_int (100 + k)) ~targets "msg"
    in
    let enc = Bft_util.Codec.Enc.create () in
    Auth.encode enc auth;
    let encoded = Bft_util.Codec.Enc.to_string enc in
    check Alcotest.int
      (Printf.sprintf "wire size with %d entries" k)
      (Auth.wire_size auth)
      (String.length encoded);
    let decoded = Auth.decode (Bft_util.Codec.Dec.of_string encoded) in
    List.iter
      (fun target ->
        check Alcotest.bool
          (Printf.sprintf "entry %d/%d verifies" target k)
          true
          (Auth.check chains.(target) ~from:0 "msg" decoded))
      targets
  done

(* --- fingerprints --------------------------------------------------------- *)

let test_fingerprint_parts_unambiguous () =
  (* ["ab";"c"] and ["a";"bc"] must not collide (length prefixing). *)
  check Alcotest.bool "no concat collision" true
    (not (Fingerprint.equal (Fingerprint.of_parts [ "ab"; "c" ])
            (Fingerprint.of_parts [ "a"; "bc" ])))

let test_fingerprint_slices_and_builder () =
  (* The allocation-lean entry points must agree with the string ones. *)
  let s = "the quick brown fox jumps over the lazy dog" in
  check Alcotest.bool "of_substring = of_string" true
    (Fingerprint.equal
       (Fingerprint.of_substring s ~off:4 ~len:11)
       (Fingerprint.of_string (String.sub s 4 11)));
  check Alcotest.bool "of_bytes = of_string" true
    (Fingerprint.equal
       (Fingerprint.of_bytes (Bytes.of_string s) ~off:0 ~len:(String.length s))
       (Fingerprint.of_string s));
  let parts = [ "alpha"; ""; "beta-gamma" ] in
  let b = Fingerprint.create_builder () in
  List.iter (fun p -> Fingerprint.add_part b p) parts;
  check Alcotest.bool "builder = of_parts" true
    (Fingerprint.equal (Fingerprint.finish b) (Fingerprint.of_parts parts));
  (* The builder is reusable after reset. *)
  Fingerprint.reset_builder b;
  Fingerprint.add_part_bytes b (Bytes.of_string "padded-part") ~off:0 ~len:6;
  check Alcotest.bool "reset builder = of_parts" true
    (Fingerprint.equal (Fingerprint.finish b) (Fingerprint.of_parts [ "padded" ]))

let test_fingerprint_basic () =
  check Alcotest.int "size" 16 (String.length (Fingerprint.of_string "x"));
  check Alcotest.bool "equal" true
    (Fingerprint.equal (Fingerprint.of_string "x") (Fingerprint.of_string "x"));
  check Alcotest.int "zero size" 16 (String.length Fingerprint.zero)

(* Known answers recorded from the pure-OCaml MD5 this library used to
   carry (and cross-checked against Python's hashlib/hmac), so a change of
   MD5 implementation cannot move a digest or tag byte. *)
let test_known_answers () =
  check Alcotest.string "mac tag" "004f21261df2c4f2"
    (Md5.to_hex (Mac.compute ~key:"0123456789abcdef" ~nonce:42L "digest-16-bytes!"));
  check Alcotest.string "of_parts" "6f55be474d4c50b4c57b7c6d35e4aa15"
    (Md5.to_hex (Fingerprint.of_parts [ "ab"; "c" ]));
  let b = Fingerprint.create_builder () in
  Fingerprint.add_part_bytes b (Bytes.of_string "xxframed-part-bytesyy") ~off:2 ~len:17;
  Fingerprint.add_part_bytes b Bytes.empty ~off:0 ~len:0;
  Fingerprint.add_part b "tail";
  check Alcotest.string "builder" "1e9cea8929f5d2322ff9ac58a1f4fa1a"
    (Md5.to_hex (Fingerprint.finish b))

(* The framing [of_parts] promises, spelled out: each part preceded by its
   length as a little-endian u64. *)
let framed parts =
  let buf = Buffer.create 64 in
  List.iter
    (fun p ->
      Buffer.add_int64_le buf (Int64.of_int (String.length p));
      Buffer.add_string buf p)
    parts;
  Buffer.contents buf

let test_builder_chunkings () =
  (* Feed the same bytes as parts of many sizes, alternating the string and
     byte-slice entry points; the builder's scratch buffer grows across
     parts and must digest exactly the framed concatenation. *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let bytes = Bytes.of_string data in
  List.iter
    (fun chunk ->
      let b = Fingerprint.create_builder () in
      let rec go off parts =
        if off >= String.length data then List.rev parts
        else begin
          let len = Stdlib.min chunk (String.length data - off) in
          if off / chunk mod 2 = 0 then Fingerprint.add_part b (String.sub data off len)
          else Fingerprint.add_part_bytes b bytes ~off ~len;
          go (off + len) (String.sub data off len :: parts)
        end
      in
      let parts = go 0 [] in
      check Alcotest.string
        (Printf.sprintf "chunk %d" chunk)
        (Md5.to_hex (Md5.digest (framed parts)))
        (Md5.to_hex (Fingerprint.finish b)))
    [ 1; 3; 63; 64; 65; 128; 1000 ];
  (* A part larger than the kept scratch size: the builder drops that
     buffer after [finish] and still digests correctly afterwards. *)
  let big = String.make 100_000 'z' in
  let b = Fingerprint.create_builder () in
  Fingerprint.add_part b big;
  check Alcotest.string "large part" (Md5.hex (framed [ big ])) (Md5.to_hex (Fingerprint.finish b));
  Fingerprint.add_part b "small";
  check Alcotest.string "after large part" (Md5.hex (framed [ "small" ]))
    (Md5.to_hex (Fingerprint.finish b))

let test_slice_bounds () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument _ -> ()
  in
  raises "of_substring" (fun () -> Fingerprint.of_substring "abc" ~off:1 ~len:5);
  raises "of_substring negative" (fun () -> Fingerprint.of_substring "abc" ~off:(-1) ~len:1);
  raises "of_bytes" (fun () -> Fingerprint.of_bytes (Bytes.of_string "abc") ~off:1 ~len:5);
  raises "of_bytes negative" (fun () ->
      Fingerprint.of_bytes (Bytes.of_string "abc") ~off:0 ~len:(-1));
  raises "add_part_bytes" (fun () ->
      Fingerprint.add_part_bytes (Fingerprint.create_builder ()) (Bytes.of_string "abc")
        ~off:2 ~len:2)

let sized lo hi = QCheck.string_gen_of_size QCheck.Gen.(int_range lo hi) QCheck.Gen.char

let mac_is_truncated_hmac_prop =
  (* Keys up to 100 bytes cross HMAC's 64-byte key normalisation. *)
  QCheck.Test.make ~name:"mac = truncated hmac" ~count:300
    QCheck.(triple (sized 0 100) int64 (sized 0 300))
    (fun (key, nonce, msg) ->
      let nonce_le = Bytes.create 8 in
      Bytes.set_int64_le nonce_le 0 nonce;
      Mac.compute ~key ~nonce msg
      = String.sub (Hmac.mac ~key (Bytes.to_string nonce_le ^ msg)) 0 Mac.tag_size)

let builder_is_framed_digest_prop =
  QCheck.Test.make ~name:"builder = md5 of framing" ~count:200
    QCheck.(small_list (sized 0 200))
    (fun parts ->
      let b = Fingerprint.create_builder () in
      List.iteri
        (fun i p ->
          if i mod 2 = 0 then Fingerprint.add_part b p
          else
            Fingerprint.add_part_bytes b
              (Bytes.of_string ("<" ^ p ^ ">"))
              ~off:1 ~len:(String.length p))
        parts;
      Fingerprint.finish b = Md5.digest (framed parts))

let slices_prop =
  QCheck.Test.make ~name:"slices = of_string" ~count:200
    QCheck.(triple (sized 0 300) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = a mod (n + 1) in
      let len = b mod (n - off + 1) in
      let expected = Fingerprint.of_string (String.sub s off len) in
      Fingerprint.of_substring s ~off ~len = expected
      && Fingerprint.of_bytes (Bytes.of_string s) ~off ~len = expected)

let builder_split_prop =
  (* Split one string at every offset into two parts: each split digests
     its own framing, whatever the scratch buffer held before. *)
  QCheck.Test.make ~name:"builder split at every offset" ~count:100 (sized 0 150)
    (fun s ->
      let b = Fingerprint.create_builder () in
      let src = Bytes.of_string s in
      List.for_all
        (fun k ->
          let pre = String.sub s 0 k and post = String.sub s k (String.length s - k) in
          Fingerprint.add_part_bytes b src ~off:0 ~len:k;
          Fingerprint.add_part b post;
          Fingerprint.finish b = Md5.digest (framed [ pre; post ]))
        (List.init (String.length s + 1) Fun.id))

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "crypto"
    [
      ( "md5",
        [
          Alcotest.test_case "RFC 1321 vectors" `Quick test_md5_vectors;
          Alcotest.test_case "block boundaries" `Quick test_md5_block_boundaries;
          Alcotest.test_case "to_hex" `Quick test_to_hex;
        ] );
      ("hmac", [ Alcotest.test_case "RFC 2202 vectors" `Quick test_hmac_rfc2202 ]);
      ( "mac",
        [
          Alcotest.test_case "verify and reject" `Quick test_mac_verify;
          Alcotest.test_case "length handling" `Quick test_mac_equal_lengths;
          Alcotest.test_case "large message" `Quick test_mac_large_message;
          q mac_is_truncated_hmac_prop;
        ] );
      ( "keychain",
        [
          Alcotest.test_case "pairwise agreement" `Quick
            test_keychain_pairwise_agreement;
          Alcotest.test_case "epoch refresh" `Quick test_keychain_epoch_refresh;
          Alcotest.test_case "stale epoch ignored" `Quick
            test_keychain_stale_epoch_ignored;
        ] );
      ( "auth",
        [
          Alcotest.test_case "vector check per receiver" `Quick test_auth_vector;
          Alcotest.test_case "rejects tampering" `Quick test_auth_rejects_tamper;
          Alcotest.test_case "corrupt helper invalidates" `Quick test_auth_corrupt;
          Alcotest.test_case "wire roundtrip and size" `Quick
            test_auth_wire_roundtrip;
          Alcotest.test_case "wire size for 1..n entries" `Quick
            test_auth_wire_size_all_entry_counts;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "parts unambiguous" `Quick
            test_fingerprint_parts_unambiguous;
          Alcotest.test_case "basics" `Quick test_fingerprint_basic;
          Alcotest.test_case "slices and builder" `Quick
            test_fingerprint_slices_and_builder;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "builder = framed one-shot" `Quick test_builder_chunkings;
          Alcotest.test_case "slice bounds" `Quick test_slice_bounds;
          q builder_is_framed_digest_prop;
          q builder_split_prop;
          q slices_prop;
        ] );
    ]
