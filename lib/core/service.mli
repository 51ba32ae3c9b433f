(** The deterministic state machine being replicated.

    BFT can replicate any service that behaves as a deterministic state
    machine: replicas that execute the same operations in the same order
    must produce the same results and reach the same state. Implementations
    must be deterministic — no wall-clock time, no host randomness.

    [execute] returns the result together with an undo closure; undo
    supports rolling back *tentatively* executed operations when a view
    change aborts them (the protocol never rolls back committed
    operations). Undo closures are applied in reverse execution order. *)

type undo = unit -> unit

type frozen = {
  data_bytes : int;  (** [String.length (Lazy.force payload).data] *)
  payload : Payload.t Lazy.t;
}
(** The service state as of one instant. Its encoded length is known at
    once; the bytes themselves are built only when forced (state transfer,
    restart), and later writes or undos never change them. *)

type t = {
  name : string;
  execute : client:Types.client_id -> op:Payload.t -> Payload.t * undo;
  is_read_only : Payload.t -> bool;
      (** server-side check that an operation marked read-only really is;
          a faulty client must not corrupt the state via the read-only
          path. *)
  execute_cost : Payload.t -> float;
      (** simulated CPU seconds the operation costs beyond protocol
          overhead (the paper's null service returns 0). *)
  state_digest : unit -> Bft_crypto.Fingerprint.t;
  modified_since_checkpoint : unit -> int;
      (** bytes dirtied since the last checkpoint; models the cost of
          BFT's incremental (copy-on-write) checkpoint digests. *)
  checkpoint_taken : unit -> unit;  (** reset the dirty counter *)
  snapshot : unit -> Payload.t;
  capture : unit -> frozen;
      (** the state at a checkpoint; [Lazy.force (capture ()).payload]
          equals [snapshot ()] taken at the same instant. A service with
          persistent state captures in O(1) and encodes lazily. *)
  restore : Payload.t -> unit;
}

val frozen : Payload.t -> frozen
(** Bytes already built, as a [frozen] value. *)

val eager : (unit -> Payload.t) -> unit -> frozen
(** [eager snapshot] captures by taking the snapshot at once: the
    implementation for services without a persistent representation. *)

val null : unit -> t
(** The paper's "simple service": no state; an operation carries an
    argument and returns a zero-filled result of the size named in the op,
    performing no computation. An op whose payload data starts with ['R']
    is read-only. *)

val null_op : read_only:bool -> arg_size:int -> result_size:int -> Payload.t
(** Build an op asking for [result_size] zero-filled result bytes, carrying
    [arg_size] modeled argument bytes. *)
