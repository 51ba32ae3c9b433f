(** Discrete-event simulation engine.

    The engine owns a virtual clock (seconds) and a priority queue of
    events; events at equal times fire in schedule order, which makes every
    run deterministic. All protocol code in this repository executes inside
    engine events — there are no threads. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Fire a closure [delay] seconds from now (clamped to now if negative). *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Fire a closure at an absolute virtual time (clamped to now if past). *)

type event
(** A handle on a scheduled event, for cancelling it. *)

val schedule_event : t -> delay:float -> (unit -> unit) -> event
(** [schedule] that returns a handle on the event. *)

val cancel : t -> event -> unit
(** Take the event out of the queue in O(log n): it never fires and no
    longer counts in {!pending}. A no-op once the event has fired or been
    cancelled. The remaining events keep their (time, schedule order). *)

val scheduled : event -> bool
(** [true] until the event starts firing or is cancelled. *)

val pending : t -> int
(** Number of events still to fire. Cancelled events are not counted:
    they have left the queue. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Process events in time order until the queue drains, the clock would
    pass [until], or [max_events] have fired. On [until], the clock is left
    at [until]. *)

val step : t -> bool
(** Fire exactly the next event; [false] when the queue is empty. *)

val stop : t -> unit
(** Make the current [run] return after the in-flight event completes. *)

val set_trace : t -> Bft_trace.Trace.t -> unit
(** Install a trace sink. When the sink is live and created with
    [~sim_events:true], every dispatched event emits a [Sim_fire] trace
    event at its fire time. Defaults to {!Bft_trace.Trace.nil}. *)

val trace : t -> Bft_trace.Trace.t
