(** Cancellable one-shot timers on top of the engine.

    Protocol code uses these for client retransmission and view-change
    timeouts. A timer is one engine event: cancelling it takes the event
    out of the queue ({!Engine.cancel}), so a cancelled timer costs nothing
    further. Cancelling an already-fired or already-cancelled timer is a
    no-op, which keeps the call sites simple. *)

type t

val start : Engine.t -> delay:float -> (unit -> unit) -> t

val cancel : t -> unit

val active : t -> bool
(** [true] until the timer starts firing or is cancelled. *)

val never : t
(** A timer that is already inactive, for initialising record fields. *)

val restart : Engine.t -> t -> delay:float -> (unit -> unit) -> t
(** Cancel [t] and start a fresh timer. *)
