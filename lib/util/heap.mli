(** Binary min-heap specialised for the discrete-event queue.

    Elements are ordered by a client-supplied priority and, for equal
    priorities, by insertion order, so iteration over equal-priority
    elements is FIFO (this is what makes the simulator deterministic).
    Each entry records its index, so a queued entry can be removed in
    O(log n) without disturbing the order of the others. *)

type 'a t

type 'a entry
(** A handle on one inserted element. *)

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> priority:float -> 'a -> 'a entry
(** [add h ~priority x] inserts [x] with the given priority and returns
    its handle. *)

val push : 'a t -> priority:float -> 'a -> unit
(** [add] without the handle. *)

(** [pop h] removes and returns the minimum-priority element, FIFO among
    equal priorities. Raises [Not_found] on an empty heap. *)
val pop : 'a t -> 'a

val remove : 'a t -> 'a entry -> unit
(** [remove h e] takes [e] out of [h] in O(log n). A no-op when [e] was
    already popped or removed, or belongs to another heap. *)

val queued : 'a entry -> bool
(** [true] until the entry is popped, removed or cleared. *)

val min_priority : 'a t -> float
(** Priority of the minimum element, without allocating. Raises
    [Not_found] on an empty heap. *)

(** [clear h] empties the heap and resets the FIFO tie-break counter, so
    a cleared heap behaves exactly like a fresh one. *)
val clear : 'a t -> unit

(** [tiebreak_seq h] is the FIFO tie-break counter the next [push] will
    use. Exposed so determinism tests can check that a cleared-and-reused
    heap assigns the same seqs as a fresh one. *)
val tiebreak_seq : 'a t -> int
