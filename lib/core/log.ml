open Types
module Fingerprint = Bft_crypto.Fingerprint

type slot = {
  seq : seqno;
  mutable pre_prepare : (view * Message.batch_entry list) option;
  mutable pp_digest : Fingerprint.t option;
  mutable proposer : replica_id;
      (* who proposed the accepted pre-prepare (-1 if none yet); its
         PRE-PREPARE counts as its prepare, so its PREPARE (if any) must
         not also count towards the certificate *)
  mutable missing_bodies : Fingerprint.t list;
  prepares : (replica_id, view * Fingerprint.t) Hashtbl.t;
  commits : (replica_id, view * Fingerprint.t) Hashtbl.t;
  mutable prepared_at : view option;
  mutable own_prepare_sent : bool;
  mutable own_commit_sent : bool;
  mutable committed : bool;
  mutable executed : bool;
  mutable finalized : bool;
  mutable undos : Service.undo list;
}

(* A ring of L = [window] slots: seq s lives at index [s mod L]. The window
   (low, low + L] holds L consecutive seqs, so each index carries at most
   one live slot, and [truncate] clears every slot at or below the new low
   watermark, so a stored slot is always the one for its in-window seq. *)
type t = {
  mutable low : seqno;
  window : int;
  slots : slot option array;
  mutable awaiting : int;  (* live slots whose [missing_bodies] is non-empty *)
}

let create ~low ~window () =
  { low; window; slots = Array.make window None; awaiting = 0 }

let low_watermark t = t.low

let high_watermark t = t.low + t.window

let in_window t seq = seq > t.low && seq <= t.low + t.window

let find t seq = if in_window t seq then t.slots.(seq mod t.window) else None

let new_slot seq =
  {
    seq;
    pre_prepare = None;
    pp_digest = None;
    proposer = -1;
    missing_bodies = [];
    prepares = Hashtbl.create 8;
    commits = Hashtbl.create 8;
    prepared_at = None;
    own_prepare_sent = false;
    own_commit_sent = false;
    committed = false;
    executed = false;
    finalized = false;
    undos = [];
  }

let get t seq =
  if not (in_window t seq) then
    invalid_arg (Printf.sprintf "Log.get: seq %d outside (%d, %d]" seq t.low
                   (t.low + t.window));
  match t.slots.(seq mod t.window) with
  | Some slot -> slot
  | None ->
    let slot = new_slot seq in
    t.slots.(seq mod t.window) <- Some slot;
    slot

let truncate t ~new_low =
  if new_low > t.low then begin
    for seq = t.low + 1 to Stdlib.min new_low (t.low + t.window) do
      let i = seq mod t.window in
      (match t.slots.(i) with
      | Some { missing_bodies = _ :: _; _ } -> t.awaiting <- t.awaiting - 1
      | _ -> ());
      t.slots.(i) <- None
    done;
    t.low <- new_low
  end

let iter t f =
  for seq = t.low + 1 to t.low + t.window do
    match find t seq with Some slot -> f slot | None -> ()
  done

let set_missing t slot bodies =
  (match find t slot.seq with
  | Some s when s == slot ->
    (match (slot.missing_bodies, bodies) with
    | [], _ :: _ -> t.awaiting <- t.awaiting + 1
    | _ :: _, [] -> t.awaiting <- t.awaiting - 1
    | _ -> ())
  | _ -> ());
  slot.missing_bodies <- bodies

let awaiting t = t.awaiting

let iter_awaiting t f =
  if t.awaiting > 0 then
    iter t (fun slot -> if slot.missing_bodies <> [] then f slot)

(* A replica may re-send a prepare for the same slot in a later view; the
   latest view wins so certificate counting stays per-view. *)
let add_latest table replica view digest =
  match Hashtbl.find_opt table replica with
  | Some (v, _) when v > view -> ()
  | _ -> Hashtbl.replace table replica (view, digest)

let add_prepare slot replica view digest = add_latest slot.prepares replica view digest

let add_commit slot replica view digest = add_latest slot.commits replica view digest

let count_matching table view digest =
  Hashtbl.fold
    (fun _ (v, d) acc ->
      if v = view && Fingerprint.equal d digest then acc + 1 else acc)
    table 0

let prepare_count slot view digest = count_matching slot.prepares view digest

let commit_count slot view digest = count_matching slot.commits view digest

let is_prepared slot ~f view =
  match (slot.pre_prepare, slot.pp_digest) with
  | Some (v, _), Some digest when v = view ->
    (* The proposer's own PREPARE (if it ever sent one, e.g. before it
       became the proposer via a view change) must not double-count with
       its PRE-PREPARE: a certificate is 2f+1 *distinct* replicas. In
       single-primary mode the primary's prepares are already dropped at
       receive time, so the subtraction is a no-op there. *)
    let own =
      match Hashtbl.find_opt slot.prepares slot.proposer with
      | Some (v', d) when v' = view && Fingerprint.equal d digest -> 1
      | _ -> 0
    in
    slot.missing_bodies = [] && prepare_count slot view digest - own >= 2 * f
  | _ -> false

(* A certificate of 2f+1 matching commits implies at least f+1 correct
   replicas prepared this digest, so no conflicting batch can have prepared
   at this sequence number: the local prepare quorum is not required (and
   insisting on it can deadlock a replica whose prepares were lost while
   everyone else moved on). The batch body must still be present. *)
let is_committed slot ~f view =
  match (slot.pre_prepare, slot.pp_digest) with
  | Some _, Some digest ->
    slot.missing_bodies = [] && commit_count slot view digest >= (2 * f) + 1
  | _ -> false
