(** JSON values, one serializer and one strict parser: every JSON document
    the repository writes or reads goes through this module.

    Numbers keep their literal text. A writer picks each field's printf
    format when it builds the value ({!fixed}, {!general}), so equal values
    render byte-identically and a parsed document re-renders to the same
    bytes. Non-finite floats have no JSON literal and become [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** a JSON number literal, exactly as it is written *)
  | Str of string  (** raw bytes; escaped on output *)
  | Arr of t list
  | Obj of (string * t) list  (** fields in output order *)

val int : int -> t
val int64 : int64 -> t

val fixed : int -> float -> t
(** [fixed d x] prints [x] with [%.{d}f]; [Null] if [x] is not finite. *)

val general : int -> float -> t
(** [general d x] prints [x] with [%.{d}g]; [Null] if [x] is not finite. *)

val to_string : t -> string
(** Compact: no whitespace, fields in list order. In strings the quote,
    the backslash and newline get two-byte escapes, every other byte
    below 0x20 becomes [\u00XX], and all other bytes are written as is. *)

val parse : string -> (t, string) result
(** Strict RFC 8259: exactly one value, optionally surrounded by
    whitespace. Truncation, trailing bytes, raw control characters in
    strings, non-finite literals and malformed numbers are errors naming
    the byte offset. String bytes of 0x80 and above are kept as is;
    [\uXXXX] escapes decode to UTF-8. *)

(** {1 Field accessors}

    Each raises [Failure] naming the field when it is missing or has the
    wrong type. *)

val member : string -> t -> t option
(** The first field named [key] of an object; [None] if there is none or
    the value is not an object. *)

val string_field : string -> t -> string
val int_field : string -> t -> int
val float_field : string -> t -> float
val list_field : string -> t -> t list
