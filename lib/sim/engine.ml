module Heap = Bft_util.Heap
module Trace = Bft_trace.Trace

type event = (unit -> unit) Heap.entry

type t = {
  mutable clock : float;
  queue : (unit -> unit) Heap.t;
  mutable stopped : bool;
  mutable trace : Trace.t;
}

let create () =
  { clock = 0.0; queue = Heap.create (); stopped = false; trace = Trace.nil }

let now t = t.clock

let set_trace t trace = t.trace <- trace

let trace t = t.trace

let add_at t time fn = Heap.add t.queue ~priority:(Float.max time t.clock) fn

let schedule_at t time fn = ignore (add_at t time fn)

let schedule t ~delay fn = schedule_at t (t.clock +. delay) fn

let schedule_event t ~delay fn = add_at t (t.clock +. delay) fn

let cancel t event = Heap.remove t.queue event

let scheduled = Heap.queued

let pending t = Heap.length t.queue

(* The caller has checked that the queue is non-empty. *)
let fire t =
  let time = Heap.min_priority t.queue in
  let fn = Heap.pop t.queue in
  if time > t.clock then t.clock <- time;
  if Trace.sim_events t.trace then
    Trace.emit t.trace ~vtime:t.clock ~node:(-1) Trace.Sim_fire;
  fn ()

let step t =
  if Heap.is_empty t.queue then false
  else begin
    fire t;
    true
  end

let run ?until ?max_events t =
  t.stopped <- false;
  let fired = ref 0 in
  let budget_left () =
    match max_events with None -> true | Some m -> !fired < m
  in
  let continue = ref true in
  while !continue && (not t.stopped) && budget_left () do
    if Heap.is_empty t.queue then continue := false
    else
      match until with
      | Some limit when Heap.min_priority t.queue > limit ->
        t.clock <- Float.max t.clock limit;
        continue := false
      | _ ->
        fire t;
        incr fired
  done;
  match until with
  | Some limit when (not t.stopped) && budget_left () ->
    t.clock <- Float.max t.clock limit
  | _ -> ()

let stop t = t.stopped <- true
