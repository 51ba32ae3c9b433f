module Payload = Bft_core.Payload
module Service = Bft_core.Service
module Enc = Bft_util.Codec.Enc
module Dec = Bft_util.Codec.Dec
module Fingerprint = Bft_crypto.Fingerprint
module Keyhash = Bft_util.Keyhash

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of { key : string; expected : string option; update : string }
  | Prepare of {
      txn : string;
      decision : int;
      participants : int list;
      ops : op list;
    }
  | Commit of string
  | Abort of string
  | Txn_status of string
  | Snapshot_slot of { slot : int; slots : int }
  | Install of { slot : int; slots : int; bindings : (string * string) list }
  | Drop_slot of { slot : int; slots : int }

type result =
  | Value of string option
  | Stored
  | Cas_result of bool
  | Error of string
  | Prepared of bool
  | Bindings of (string * string) list
  | Txn_state of { state : int; participants : int list }

let txn_unknown = 0
let txn_prepared = 1
let txn_committed = 2
let txn_aborted = 3

(* --- wire codec ------------------------------------------------------- *)

let rec encode_op enc op =
  match op with
  | Get key ->
    Enc.u8 enc 0;
    Enc.bytes enc key
  | Put (key, value) ->
    Enc.u8 enc 1;
    Enc.bytes enc key;
    Enc.bytes enc value
  | Delete key ->
    Enc.u8 enc 2;
    Enc.bytes enc key
  | Cas { key; expected; update } ->
    Enc.u8 enc 3;
    Enc.bytes enc key;
    Enc.option enc Enc.bytes expected;
    Enc.bytes enc update
  | Prepare { txn; decision; participants; ops } ->
    Enc.u8 enc 4;
    Enc.bytes enc txn;
    Enc.u16 enc decision;
    Enc.list enc Enc.u16 participants;
    Enc.list enc encode_op ops
  | Commit txn ->
    Enc.u8 enc 5;
    Enc.bytes enc txn
  | Abort txn ->
    Enc.u8 enc 6;
    Enc.bytes enc txn
  | Txn_status txn ->
    Enc.u8 enc 7;
    Enc.bytes enc txn
  | Snapshot_slot { slot; slots } ->
    Enc.u8 enc 8;
    Enc.u16 enc slot;
    Enc.u16 enc slots
  | Install { slot; slots; bindings } ->
    Enc.u8 enc 9;
    Enc.u16 enc slot;
    Enc.u16 enc slots;
    Enc.list enc
      (fun enc (k, v) ->
        Enc.bytes enc k;
        Enc.bytes enc v)
      bindings
  | Drop_slot { slot; slots } ->
    Enc.u8 enc 10;
    Enc.u16 enc slot;
    Enc.u16 enc slots

let op_payload op =
  let enc = Enc.create () in
  encode_op enc op;
  Payload.of_string (Enc.to_string enc)

let rec decode_op dec =
  match Dec.u8 dec with
  | 0 -> Get (Dec.bytes dec)
  | 1 ->
    let key = Dec.bytes dec in
    let value = Dec.bytes dec in
    Put (key, value)
  | 2 -> Delete (Dec.bytes dec)
  | 3 ->
    let key = Dec.bytes dec in
    let expected = Dec.option dec Dec.bytes in
    let update = Dec.bytes dec in
    Cas { key; expected; update }
  | 4 ->
    let txn = Dec.bytes dec in
    let decision = Dec.u16 dec in
    let participants = Dec.list dec Dec.u16 in
    let ops = Dec.list dec decode_op in
    Prepare { txn; decision; participants; ops }
  | 5 -> Commit (Dec.bytes dec)
  | 6 -> Abort (Dec.bytes dec)
  | 7 -> Txn_status (Dec.bytes dec)
  | 8 ->
    let slot = Dec.u16 dec in
    let slots = Dec.u16 dec in
    Snapshot_slot { slot; slots }
  | 9 ->
    let slot = Dec.u16 dec in
    let slots = Dec.u16 dec in
    let bindings =
      Dec.list dec (fun dec ->
          let k = Dec.bytes dec in
          let v = Dec.bytes dec in
          (k, v))
    in
    Install { slot; slots; bindings }
  | 10 ->
    let slot = Dec.u16 dec in
    let slots = Dec.u16 dec in
    Drop_slot { slot; slots }
  | tag -> raise (Bft_util.Codec.Decode_error (Printf.sprintf "kv op tag %d" tag))

let op_of_payload (p : Payload.t) =
  let dec = Dec.of_string p.Payload.data in
  match
    let op = decode_op dec in
    (* A corrupted or maliciously extended encoding must not silently
       decode as a valid shorter operation. *)
    Dec.expect_end dec;
    op
  with
  | op -> Some op
  | exception Bft_util.Codec.Decode_error _ -> None

let result_payload result =
  let enc = Enc.create () in
  (match result with
  | Value v ->
    Enc.u8 enc 0;
    Enc.option enc Enc.bytes v
  | Stored -> Enc.u8 enc 1
  | Cas_result ok ->
    Enc.u8 enc 2;
    Enc.bool enc ok
  | Error msg ->
    Enc.u8 enc 3;
    Enc.bytes enc msg
  | Prepared ok ->
    Enc.u8 enc 4;
    Enc.bool enc ok
  | Bindings bs ->
    Enc.u8 enc 5;
    Enc.list enc
      (fun enc (k, v) ->
        Enc.bytes enc k;
        Enc.bytes enc v)
      bs
  | Txn_state { state; participants } ->
    Enc.u8 enc 6;
    Enc.u8 enc state;
    Enc.list enc Enc.u16 participants);
  Payload.of_string (Enc.to_string enc)

let result_of_payload (p : Payload.t) =
  let dec = Dec.of_string p.Payload.data in
  match
    let r =
      match Dec.u8 dec with
      | 0 -> Value (Dec.option dec Dec.bytes)
      | 1 -> Stored
      | 2 -> Cas_result (Dec.bool dec)
      | 3 -> Error (Dec.bytes dec)
      | 4 -> Prepared (Dec.bool dec)
      | 5 ->
        Bindings
          (Dec.list dec (fun dec ->
               let k = Dec.bytes dec in
               let v = Dec.bytes dec in
               (k, v)))
      | 6 ->
        let state = Dec.u8 dec in
        let participants = Dec.list dec Dec.u16 in
        Txn_state { state; participants }
      | tag ->
        raise
          (Bft_util.Codec.Decode_error (Printf.sprintf "kv result tag %d" tag))
    in
    Dec.expect_end dec;
    r
  with
  | r -> r
  | exception Bft_util.Codec.Decode_error _ -> Error "undecodable result"

let is_read_only_op = function
  | Get _ -> true
  | Put _ | Delete _ | Cas _ | Prepare _ | Commit _ | Abort _ | Txn_status _
  | Snapshot_slot _ | Install _ | Drop_slot _ ->
    false

(* --- replicated state ------------------------------------------------- *)

type txn_record = {
  txr_decision : int;
  txr_participants : int list;
  txr_ops : op list;
}

module Smap = Map.Make (String)

(* AdHash (Bellare–Micciancio, the incremental digest of the paper's
   checkpoints): the bindings hash to the sum, modulo 2^128, of one
   fingerprint per binding, kept as two little-endian 64-bit lanes. A write
   subtracts the old binding's term and adds the new one, so the digest
   never walks the store and does not depend on the order of writes. *)
type adhash = { lo : int64; hi : int64 }

let binding_term key value = Fingerprint.of_parts [ key; value ]

let adhash_add a term =
  let tl = String.get_int64_le term 0 and th = String.get_int64_le term 8 in
  let lo = Int64.add a.lo tl in
  let carry = if Int64.unsigned_compare lo tl < 0 then 1L else 0L in
  { lo; hi = Int64.add (Int64.add a.hi th) carry }

let adhash_sub a term =
  let tl = String.get_int64_le term 0 and th = String.get_int64_le term 8 in
  let borrow = if Int64.unsigned_compare a.lo tl < 0 then 1L else 0L in
  { lo = Int64.sub a.lo tl; hi = Int64.sub (Int64.sub a.hi th) borrow }

(* The bindings as one immutable value: a capture keeps it as it is, and an
   undo puts the previous one back. [flat_bytes] is the length of the
   bindings' encoding ([Enc.bytes] key, [Enc.bytes] value, in key order). *)
type contents = {
  bindings : string Smap.t;
  sum : adhash;
  count : int;
  flat_bytes : int;
}

let empty_contents =
  { bindings = Smap.empty; sum = { lo = 0L; hi = 0L }; count = 0; flat_bytes = 0 }

type store = {
  mutable contents : contents;
  mutable dirty : int;
  locks : (string, string) Hashtbl.t;  (* key -> holding transaction *)
  prepared : (string, txn_record) Hashtbl.t;  (* txn -> prepared record *)
  decided : (string, bool) Hashtbl.t;  (* txn -> committed? *)
  mutable decided_log : string list;  (* newest first, bounds [decided] *)
  mutable decided_count : int;
}

(* The decided table is the presumed-abort memory: it must outlive the
   prepared records (a late PREPARE retransmission has to see the abort),
   but it cannot grow forever. Far larger than any campaign's transaction
   count, trimmed amortized-O(1) by rebuilding at twice the cap. *)
let decided_cap = 4096

let create_store () =
  {
    contents = empty_contents;
    dirty = 0;
    locks = Hashtbl.create 16;
    prepared = Hashtbl.create 16;
    decided = Hashtbl.create 16;
    decided_log = [];
    decided_count = 0;
  }

let find store key = Smap.find_opt key store.contents.bindings

let with_binding c key value =
  let sum, count, flat_bytes =
    match Smap.find_opt key c.bindings with
    | Some old ->
      (adhash_sub c.sum (binding_term key old), c.count, c.flat_bytes - String.length old)
    | None -> (c.sum, c.count + 1, c.flat_bytes + 8 + String.length key)
  in
  {
    bindings = Smap.add key value c.bindings;
    sum = adhash_add sum (binding_term key value);
    count;
    flat_bytes = flat_bytes + String.length value;
  }

let without_binding c key old =
  {
    bindings = Smap.remove key c.bindings;
    sum = adhash_sub c.sum (binding_term key old);
    count = c.count - 1;
    flat_bytes = c.flat_bytes - 8 - String.length key - String.length old;
  }

let no_undo () = ()

(* Record a terminal decision; returns the undo for tentative rollback.
   Undos run newest-first, so the entry to drop is always the log head. *)
let record_decision store txn committed =
  if Hashtbl.mem store.decided txn then no_undo
  else begin
    Hashtbl.replace store.decided txn committed;
    store.decided_log <- txn :: store.decided_log;
    store.decided_count <- store.decided_count + 1;
    if store.decided_count > 2 * decided_cap then begin
      let rec keep i = function
        | [] -> []
        | rest when i = decided_cap ->
          List.iter (fun t -> Hashtbl.remove store.decided t) rest;
          []
        | x :: rest -> x :: keep (i + 1) rest
      in
      store.decided_log <- keep 0 store.decided_log;
      store.decided_count <- decided_cap
    end;
    fun () ->
      Hashtbl.remove store.decided txn;
      match store.decided_log with
      | x :: rest when String.equal x txn ->
        store.decided_log <- rest;
        store.decided_count <- store.decided_count - 1
      | _ -> ()
  end

let locked_error store key =
  let txn = Hashtbl.find store.locks key in
  let decision =
    match Hashtbl.find_opt store.prepared txn with
    | Some r -> r.txr_decision
    | None -> 0
  in
  Error (Printf.sprintf "locked:%d:%s" decision txn)

let write_key = function
  | Put (k, _) | Delete k | Cas { key = k; _ } -> Some k
  | _ -> None

(* Unconditional application of prepare-validated writes (the keys have
   been locked since validation, so a CAS applies its update directly). The
   undo puts the previous bindings back whole: undos run newest-first, so
   that is exact. *)
let apply_writes store ops =
  let previous = store.contents in
  List.iter
    (fun op ->
      match op with
      | Put (key, value) | Cas { key; update = value; _ } ->
        store.dirty <- store.dirty + String.length key + String.length value;
        store.contents <- with_binding store.contents key value
      | Delete key -> (
        (* Only an actual mutation dirties the store: deleting a missing
           key must not inflate [modified_since_checkpoint] (it would
           manufacture checkpoint pressure out of no-ops). *)
        match find store key with
        | None -> ()
        | Some old ->
          store.dirty <- store.dirty + String.length key;
          store.contents <- without_binding store.contents key old)
      | _ -> ())
    ops;
  fun () -> store.contents <- previous

let release_locks store txn =
  let released =
    Hashtbl.fold
      (fun k holder acc -> if String.equal holder txn then k :: acc else acc)
      store.locks []
    |> List.sort compare
  in
  List.iter (fun k -> Hashtbl.remove store.locks k) released;
  released

let prepare store ~txn ~decision ~participants ~ops =
  match Hashtbl.find_opt store.decided txn with
  (* The decision already happened (possibly recorded by a recovery-driven
     abort before this retransmitted PREPARE arrived): vote accordingly. *)
  | Some committed -> (Prepared committed, no_undo)
  | None ->
    if Hashtbl.mem store.prepared txn then (Prepared true, no_undo)
    else begin
      let valid =
        List.for_all
          (fun op ->
            match op with
            | Put (key, _) | Delete key -> (
              match Hashtbl.find_opt store.locks key with
              | Some holder -> String.equal holder txn
              | None -> true)
            | Cas { key; expected; _ } ->
              (match Hashtbl.find_opt store.locks key with
              | Some holder -> String.equal holder txn
              | None -> true)
              && find store key = expected
            | _ -> false (* only plain writes may ride in a transaction *))
          ops
      in
      if not valid then (Prepared false, no_undo)
      else begin
        let locked =
          List.filter_map
            (fun op ->
              match write_key op with
              | Some key when not (Hashtbl.mem store.locks key) ->
                Hashtbl.replace store.locks key txn;
                Some key
              | _ -> None)
            ops
        in
        Hashtbl.replace store.prepared txn
          { txr_decision = decision; txr_participants = participants; txr_ops = ops };
        store.dirty <-
          store.dirty + String.length txn
          + List.fold_left (fun acc k -> acc + String.length k) 0 locked;
        let undo () =
          Hashtbl.remove store.prepared txn;
          List.iter (fun k -> Hashtbl.remove store.locks k) locked
        in
        (Prepared true, undo)
      end
    end

let commit store txn =
  match Hashtbl.find_opt store.decided txn with
  | Some true -> (Stored, no_undo)
  | Some false -> (Error "aborted", no_undo)
  | None -> (
    match Hashtbl.find_opt store.prepared txn with
    | None -> (Error "unknown", no_undo)
    | Some record ->
      let released = release_locks store txn in
      let undo_writes = apply_writes store record.txr_ops in
      Hashtbl.remove store.prepared txn;
      let undo_decision = record_decision store txn true in
      store.dirty <- store.dirty + String.length txn;
      let undo () =
        undo_decision ();
        Hashtbl.replace store.prepared txn record;
        undo_writes ();
        List.iter (fun k -> Hashtbl.replace store.locks k txn) released
      in
      (Stored, undo))

let abort store txn =
  match Hashtbl.find_opt store.decided txn with
  | Some true -> (Error "committed", no_undo)
  | Some false -> (Stored, no_undo)
  | None ->
    (* Presumed abort: record the decision even for a transaction this
       replica never prepared, so a late PREPARE votes no instead of
       re-acquiring locks for a coordinator that already gave up. *)
    let released = release_locks store txn in
    let record = Hashtbl.find_opt store.prepared txn in
    Hashtbl.remove store.prepared txn;
    let undo_decision = record_decision store txn false in
    store.dirty <- store.dirty + String.length txn;
    let undo () =
      undo_decision ();
      (match record with
      | Some r -> Hashtbl.replace store.prepared txn r
      | None -> ());
      List.iter (fun k -> Hashtbl.replace store.locks k txn) released
    in
    (Stored, undo)

let slot_locked store ~slot ~slots =
  Hashtbl.fold
    (fun key _ acc -> acc || Keyhash.slot_of_key ~slots key = slot)
    store.locks false

let slot_bindings store ~slot ~slots =
  Smap.fold
    (fun k v acc -> if Keyhash.slot_of_key ~slots k = slot then (k, v) :: acc else acc)
    store.contents.bindings []
  |> List.rev

let execute store op =
  match op with
  | Get key -> (Value (find store key), no_undo)
  | Put (key, _) ->
    if Hashtbl.mem store.locks key then (locked_error store key, no_undo)
    else (Stored, apply_writes store [ op ])
  | Delete key ->
    if Hashtbl.mem store.locks key then (locked_error store key, no_undo)
    else (Stored, apply_writes store [ op ])
  | Cas { key; expected; _ } ->
    if Hashtbl.mem store.locks key then (locked_error store key, no_undo)
    else if find store key = expected then (Cas_result true, apply_writes store [ op ])
    else (Cas_result false, no_undo)
  | Prepare { txn; decision; participants; ops } ->
    prepare store ~txn ~decision ~participants ~ops
  | Commit txn -> commit store txn
  | Abort txn -> abort store txn
  | Txn_status txn -> (
    match Hashtbl.find_opt store.decided txn with
    | Some true -> (Txn_state { state = txn_committed; participants = [] }, no_undo)
    | Some false -> (Txn_state { state = txn_aborted; participants = [] }, no_undo)
    | None -> (
      match Hashtbl.find_opt store.prepared txn with
      | Some r ->
        ( Txn_state { state = txn_prepared; participants = r.txr_participants },
          no_undo )
      | None -> (Txn_state { state = txn_unknown; participants = [] }, no_undo)))
  | Snapshot_slot { slot; slots } ->
    if slots <= 0 || slot < 0 || slot >= slots then (Error "bad slot", no_undo)
    else if slot_locked store ~slot ~slots then
      (* Refusing a slot with prepared locks is what makes migration safe:
         a successful snapshot proves no transaction can mutate the slot
         at the donor until new traffic is admitted — and new traffic is
         gated while the slot migrates. *)
      (Error "locked", no_undo)
    else (Bindings (slot_bindings store ~slot ~slots), no_undo)
  | Install { slot; slots; bindings } ->
    if slots <= 0 || slot < 0 || slot >= slots then (Error "bad slot", no_undo)
    else if
      List.exists (fun (k, _) -> Keyhash.slot_of_key ~slots k <> slot) bindings
    then (Error "binding outside slot", no_undo)
    else (Stored, apply_writes store (List.map (fun (k, v) -> Put (k, v)) bindings))
  | Drop_slot { slot; slots } ->
    if slots <= 0 || slot < 0 || slot >= slots then (Error "bad slot", no_undo)
    else
      ( Stored,
        apply_writes store
          (List.map (fun (k, _) -> Delete k) (slot_bindings store ~slot ~slots)) )

(* --- digest / snapshot encoding --------------------------------------- *)

let sorted_locks store =
  Hashtbl.fold (fun k t acc -> (k, t) :: acc) store.locks [] |> List.sort compare

let sorted_prepared store =
  Hashtbl.fold (fun t r acc -> (t, r) :: acc) store.prepared []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let txn_state_empty store =
  Hashtbl.length store.locks = 0
  && Hashtbl.length store.prepared = 0
  && store.decided_count = 0

let encode_binding enc k v =
  Enc.bytes enc k;
  Enc.bytes enc v

(* The transaction sections (locks, prepared records, decisions): small,
   so they are encoded whole for every digest and capture. *)
let encode_txn_sections store =
  let enc = Enc.create () in
  Enc.list enc (fun enc (k, t) -> encode_binding enc k t) (sorted_locks store);
  Enc.list enc
    (fun enc (txn, r) ->
      Enc.bytes enc txn;
      Enc.u16 enc r.txr_decision;
      Enc.list enc Enc.u16 r.txr_participants;
      Enc.list enc encode_op r.txr_ops)
    (sorted_prepared store);
  Enc.list enc
    (fun enc txn ->
      Enc.bytes enc txn;
      Enc.bool enc (Hashtbl.find store.decided txn))
    store.decided_log;
  Enc.to_string enc

(* The digest binds the AdHash sum, the binding count and the transaction
   sections; it costs the same at 1k keys as at 1M. *)
let state_digest store =
  let c = store.contents in
  let header = Bytes.create 24 in
  Bytes.set_int64_le header 0 c.sum.lo;
  Bytes.set_int64_le header 8 c.sum.hi;
  Bytes.set_int64_le header 16 (Int64.of_int c.count);
  Fingerprint.of_parts [ Bytes.unsafe_to_string header; encode_txn_sections store ]

(* Sectioned encodings are flagged by a leading length no legacy key can
   have (a 4 GiB key); a store that never touched the transaction layer
   encodes exactly as it always did, byte for byte, which is what keeps
   snapshot sizes and costs — and with them the golden bench surface —
   untouched while the machinery is unused. *)
let sectioned_marker = 0xFFFFFFFF

(* O(1): the bindings are immutable and the length is kept up to date, so
   only the (small) transaction sections are encoded now; the bindings are
   encoded when the bytes are forced. *)
let capture store =
  let c = store.contents in
  let sections = if txn_state_empty store then None else Some (encode_txn_sections store) in
  let data_bytes =
    match sections with
    | None -> c.flat_bytes
    | Some s -> 8 + c.flat_bytes + String.length s
  in
  let encode () =
    let enc = Enc.create ~initial:data_bytes () in
    (match sections with
    | None -> Smap.iter (encode_binding enc) c.bindings
    | Some s ->
      Enc.u32 enc sectioned_marker;
      Enc.u32 enc c.count;
      Smap.iter (encode_binding enc) c.bindings;
      Enc.raw enc s);
    Payload.of_string (Enc.to_string enc)
  in
  { Service.data_bytes; payload = Lazy.from_fun encode }

let is_sectioned data =
  String.length data >= 4 && String.get_int32_le data 0 = 0xFFFFFFFFl

(* Nothing in the payload is trusted beyond the bindings themselves: the
   AdHash sum, count and length are recomputed from what was decoded. *)
let restore_store store data =
  Hashtbl.reset store.locks;
  Hashtbl.reset store.prepared;
  Hashtbl.reset store.decided;
  store.decided_log <- [];
  store.decided_count <- 0;
  store.dirty <- 0;
  let dec = Dec.of_string data in
  let decode_binding dec =
    let k = Dec.bytes dec in
    let v = Dec.bytes dec in
    (k, v)
  in
  let bindings =
    if is_sectioned data then begin
      ignore (Dec.u32 dec);
      let pairs = Dec.list dec decode_binding in
      let locks = Dec.list dec decode_binding in
      List.iter (fun (k, t) -> Hashtbl.replace store.locks k t) locks;
      let prepared =
        Dec.list dec (fun dec ->
            let txn = Dec.bytes dec in
            let txr_decision = Dec.u16 dec in
            let txr_participants = Dec.list dec Dec.u16 in
            let txr_ops = Dec.list dec decode_op in
            (txn, { txr_decision; txr_participants; txr_ops }))
      in
      List.iter (fun (t, r) -> Hashtbl.replace store.prepared t r) prepared;
      let decided =
        Dec.list dec (fun dec ->
            let txn = Dec.bytes dec in
            let committed = Dec.bool dec in
            (txn, committed))
      in
      List.iter (fun (t, c) -> Hashtbl.replace store.decided t c) decided;
      store.decided_log <- List.map fst decided;
      store.decided_count <- List.length decided;
      List.fold_left (fun m (k, v) -> Smap.add k v m) Smap.empty pairs
    end
    else begin
      let bindings = ref Smap.empty in
      while not (Dec.at_end dec) do
        let k, v = decode_binding dec in
        bindings := Smap.add k v !bindings
      done;
      !bindings
    end
  in
  let sum = ref empty_contents.sum and flat_bytes = ref 0 in
  Smap.iter
    (fun k v ->
      sum := adhash_add !sum (binding_term k v);
      flat_bytes := !flat_bytes + 8 + String.length k + String.length v)
    bindings;
  store.contents <-
    { bindings; sum = !sum; count = Smap.cardinal bindings; flat_bytes = !flat_bytes }

(* --- auditing hooks (tests and chaos campaigns) ------------------------ *)

let store_bindings store = Smap.bindings store.contents.bindings

let store_find store key = find store key

let store_locks store = sorted_locks store

let store_prepared_txns store = List.map fst (sorted_prepared store)

let store_decision store txn = Hashtbl.find_opt store.decided txn

(* --- service wrapper --------------------------------------------------- *)

let service_of_store store =
  {
    Service.name = "kv-store";
    execute =
      (fun ~client:_ ~op ->
        match op_of_payload op with
        | None -> (result_payload (Error "undecodable operation"), no_undo)
        | Some op ->
          let result, undo = execute store op in
          (result_payload result, undo));
    is_read_only =
      (fun op ->
        match op_of_payload op with
        | Some op -> is_read_only_op op
        | None -> false);
    execute_cost = (fun op -> 1e-6 +. (float_of_int (Payload.size op) *. 2e-9));
    state_digest = (fun () -> state_digest store);
    modified_since_checkpoint = (fun () -> store.dirty);
    checkpoint_taken = (fun () -> store.dirty <- 0);
    snapshot = (fun () -> Lazy.force (capture store).Service.payload);
    capture = (fun () -> capture store);
    restore = (fun p -> restore_store store p.Payload.data);
  }

let service () = service_of_store (create_store ())

let size (svc : Service.t) =
  let snap = svc.Service.snapshot () in
  let data = snap.Payload.data in
  let dec = Dec.of_string data in
  if is_sectioned data then begin
    ignore (Dec.u32 dec);
    Dec.u32 dec
  end
  else begin
    let count = ref 0 in
    while not (Dec.at_end dec) do
      ignore (Dec.bytes dec);
      ignore (Dec.bytes dec);
      incr count
    done;
    !count
  end
