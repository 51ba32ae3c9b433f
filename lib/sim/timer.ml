type t = Never | Armed of { engine : Engine.t; event : Engine.event }

let never = Never

let start engine ~delay fn =
  Armed { engine; event = Engine.schedule_event engine ~delay fn }

let cancel = function
  | Never -> ()
  | Armed { engine; event } -> Engine.cancel engine event

let active = function Never -> false | Armed { event; _ } -> Engine.scheduled event

let restart engine t ~delay fn =
  cancel t;
  start engine ~delay fn
