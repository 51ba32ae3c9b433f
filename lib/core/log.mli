(** The replica's message log: one slot per sequence number between the
    watermarks, accumulating the PRE-PREPARE and the PREPARE/COMMIT
    certificates, plus execution bookkeeping.

    The low watermark [h] is the sequence number of the last stable
    checkpoint; slots are accepted in [(h, h + L]]. Advancing the stable
    checkpoint truncates everything at or below it. The log is a ring of
    [L] slots indexed by [seq mod L], so [find] and [get] are array reads
    and [truncate] clears only the range it discards. *)

open Types

module Fingerprint = Bft_crypto.Fingerprint

type slot = {
  seq : seqno;
  mutable pre_prepare : (view * Message.batch_entry list) option;
  mutable pp_digest : Fingerprint.t option;
  mutable proposer : replica_id;
      (** who proposed the accepted pre-prepare (-1 if none yet); its
          prepare, if any, is excluded from the certificate count *)
  mutable missing_bodies : Fingerprint.t list;
      (** summaries in the pre-prepare whose request bodies we still lack;
          assign it with {!set_missing}, which keeps the log's count of
          awaiting slots *)
  prepares : (replica_id, view * Fingerprint.t) Hashtbl.t;
  commits : (replica_id, view * Fingerprint.t) Hashtbl.t;
  mutable prepared_at : view option;  (** sticky: highest view prepared in *)
  mutable own_prepare_sent : bool;
  mutable own_commit_sent : bool;
  mutable committed : bool;
  mutable executed : bool;  (** tentatively or finally *)
  mutable finalized : bool;  (** executed and committed *)
  mutable undos : Service.undo list;  (** for rolling back tentative exec *)
}

type t

val create : low:seqno -> window:int -> unit -> t

val low_watermark : t -> seqno

val high_watermark : t -> seqno

val in_window : t -> seqno -> bool
(** [h < seq <= h + L]. *)

val find : t -> seqno -> slot option

val get : t -> seqno -> slot
(** Find or create; raises [Invalid_argument] outside the window. *)

val truncate : t -> new_low:seqno -> unit
(** Advance the low watermark, discarding slots at or below it. *)

val iter : t -> (slot -> unit) -> unit
(** All live slots in ascending sequence order, walking [(h, h + L]] for
    the [h] at the call. Each seq is looked up when the walk reaches it:
    a slot that [f] creates above the current seq is visited, and one that
    [f] truncates before the walk reaches it is not. *)

val set_missing : t -> slot -> Fingerprint.t list -> unit
(** Set [slot.missing_bodies] and keep {!awaiting} in step. *)

val awaiting : t -> int
(** Live slots whose pre-prepare still lacks request bodies. *)

val iter_awaiting : t -> (slot -> unit) -> unit
(** [iter] restricted to awaiting slots; does no scan when there are
    none. *)

val add_prepare : slot -> replica_id -> view -> Fingerprint.t -> unit
(** Latest (view, digest) per replica wins. *)

val add_commit : slot -> replica_id -> view -> Fingerprint.t -> unit

val prepare_count : slot -> view -> Fingerprint.t -> int
(** Prepares matching (view, digest), excluding the pre-prepare. *)

val commit_count : slot -> view -> Fingerprint.t -> int

val is_prepared : slot -> f:int -> view -> bool
(** Pre-prepare present in [view] plus [2f] matching prepares from other
    replicas. *)

val is_committed : slot -> f:int -> view -> bool
(** [2f + 1] matching commits with the batch body present. A commit
    certificate alone implies a quorum prepared the digest, so the local
    prepare quorum is not additionally required. *)
