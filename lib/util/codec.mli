(** Compact binary wire format used for every protocol message.

    Encoders append to a growable buffer; decoders read from a string with a
    mutable cursor and raise [Decode_error] on malformed input (truncation,
    bad tags, negative lengths), which callers treat as an authentication
    failure from an untrusted peer. *)

exception Decode_error of string

module Enc : sig
  type t

  val create : ?initial:int -> unit -> t

  val clear : t -> unit
  (** Reset to length 0 without releasing the backing storage. Encoders on
      the hot path are kept as long-lived scratch and cleared per message. *)

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  (** 32-bit unsigned, little endian; requires [0 <= v < 2^32]. *)

  val u64 : t -> int64 -> unit
  val int : t -> int -> unit
  (** Non-negative int as u64. *)

  val f64 : t -> float -> unit
  val bytes : t -> string -> unit
  (** Length-prefixed byte string. *)

  val raw : t -> string -> unit
  (** Raw bytes, no length prefix. *)

  val raw_bytes : t -> Bytes.t -> off:int -> len:int -> unit
  (** Raw bytes of a byte-array slice, no length prefix. *)

  val bool : t -> bool -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val to_string : t -> string
  val length : t -> int

  val unsafe_bytes : t -> Bytes.t
  (** The backing storage; only the first [length t] bytes are meaningful.
      Invalidated by any subsequent append (the buffer may be reallocated)
      — read before appending more. *)
end

module Dec : sig
  type t

  val of_string : string -> t

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val int : t -> int
  val f64 : t -> float
  val bytes : t -> string
  val raw : t -> int -> string
  val bool : t -> bool
  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val position : t -> int
  (** Current cursor offset. *)

  val at_end : t -> bool
  val expect_end : t -> unit
  (** Raises [Decode_error] if bytes remain. *)
end

val roundtrip_check : (Enc.t -> 'a -> unit) -> (Dec.t -> 'a) -> 'a -> bool
(** [roundtrip_check enc dec v] encodes, decodes and compares with [=];
    used by the property-test suites. *)
