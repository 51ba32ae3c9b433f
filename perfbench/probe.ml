(* Outside-in instrumentation: host timers and span records placed around
   the benchmark's own calls into the simulator's public API. Nothing here
   reaches inside [lib/]: the engine is driven event by event through
   [Engine.step], and services are wrapped at the factory the benchmark
   hands to [Cluster.create].

   With [traced = false] every entry point degrades to the plain call
   ([Engine.run], the unwrapped service), so untraced trials measure the
   program, not the probe. *)

module Engine = Bft_sim.Engine
module Service = Bft_core.Service
module Tally = Bft_crypto.Tally

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Span kinds. A step span is one engine event; service spans are children
   of the step that made the call; op spans run from invoke to callback. *)
type kind = Step | Op | Execute | State_digest | Snapshot | Restore

let kind_name = function
  | Step -> "step"
  | Op -> "op"
  | Execute -> "execute"
  | State_digest -> "state_digest"
  | Snapshot -> "snapshot"
  | Restore -> "restore"

let service_kinds = [ Execute; State_digest; Snapshot; Restore ]

let kind_index = function
  | Step -> 0
  | Op -> 1
  | Execute -> 2
  | State_digest -> 3
  | Snapshot -> 4
  | Restore -> 5

let kinds = [| Step; Op; Execute; State_digest; Snapshot; Restore |]

(* Growable column store: one row per span. *)
type spans = {
  mutable len : int;
  mutable kind : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
}

type t = {
  traced : bool;
  spans : spans;
  mutable base : int;  (** global id of row 0 (ids survive [reset]) *)
  mutable cur_step : int;  (** span id of the running engine step, or -1 *)
  mutable steps : int;
  mutable step_ns : int;
  calls : int array;  (** by [kind_index] *)
  ns : int array;  (** host ns inside calls of each kind *)
  mutable svc_digest_ops : int;  (** Tally digests made inside services *)
  mutable svc_digest_bytes : int;
  mutable calibrating : bool;
  mutable ref_ns : float;
      (** host ns of engine slices while calibrating, scaled to the
          reference host *)
}

let create ~traced =
  let cap = if traced then 1 lsl 16 else 1 in
  {
    traced;
    spans =
      {
        len = 0;
        kind = Array.make cap 0;
        parent = Array.make cap 0;
        t0 = Array.make cap 0;
        t1 = Array.make cap 0;
      };
    base = 0;
    cur_step = -1;
    steps = 0;
    step_ns = 0;
    calls = Array.make (Array.length kinds) 0;
    ns = Array.make (Array.length kinds) 0;
    svc_digest_ops = 0;
    svc_digest_bytes = 0;
    calibrating = false;
    ref_ns = 0.0;
  }

let traced t = t.traced

let grow s =
  let cap = 2 * Array.length s.kind in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 s.len;
    b
  in
  s.kind <- extend s.kind;
  s.parent <- extend s.parent;
  s.t0 <- extend s.t0;
  s.t1 <- extend s.t1

let open_span t kind ~parent =
  let s = t.spans in
  if s.len = Array.length s.kind then grow s;
  let row = s.len in
  s.len <- row + 1;
  s.kind.(row) <- kind_index kind;
  s.parent.(row) <- parent;
  s.t0.(row) <- now_ns ();
  s.t1.(row) <- -1;
  t.base + row

(* Returns the span's duration; 0 for a span dropped by [reset]. *)
let close_span t id =
  let stop = now_ns () in
  let row = id - t.base in
  if row < 0 then 0
  else begin
    t.spans.t1.(row) <- stop;
    stop - t.spans.t0.(row)
  end

(* --- engine ---------------------------------------------------------- *)

(* --- host-speed calibration ----------------------------------------

   A shared host changes speed under its other tenants: on the 2-core
   machine the benchmark was built on, by up to 1.6x for seconds at a
   time, through contention for the shared caches (a register-only loop
   barely slows). While [calibrating], the engine runs in slices of
   [slice_events] events, each followed by a short probe of the host's
   current speed at the kinds of work the simulator does: allocating
   short-lived blocks, and streaming through a buffer larger than the
   private caches. Each slice's host time is scaled by
   [reference_probe_ns / probe] into reference-host time. The probe is
   the benchmark's own code, so no change to the simulator moves it. *)

let slice_events = 20_000

(* Host ns of one [probe_once] on the reference host. *)
let reference_probe_ns = 60_000.0

(* A 2 MiB buffer read 16 KiB at a time, so each probe streams data that
   has dropped out of the private caches, the way a checkpoint digest of
   a large store does. *)
let stream = Bytes.make (1 lsl 21) 's'

let stream_at = ref 0

let probe_once () =
  let t0 = now_ns () in
  let l = ref [] in
  for i = 1 to 4000 do
    l := (i, i) :: !l;
    if i land 63 = 0 then l := []
  done;
  ignore (Sys.opaque_identity !l);
  let off = !stream_at in
  stream_at := (off + 16384) land ((1 lsl 21) - 1);
  let acc = ref 0 in
  for i = 0 to 4095 do
    let w = Int32.to_int (Bytes.get_int32_le stream (off + (4 * i))) in
    acc := ((!acc + w) land 0xffffffff) lxor (!acc lsr 7)
  done;
  ignore (Sys.opaque_identity !acc);
  now_ns () - t0

(* Fastest of three probes: interrupts only ever add time. *)
let probe_speed () =
  float_of_int (max 1 (min (probe_once ()) (min (probe_once ()) (probe_once ()))))

let note_slice t ns =
  if t.calibrating then
    t.ref_ns <- t.ref_ns +. (float_of_int ns *. reference_probe_ns /. probe_speed ())

let set_calibrating t on = t.calibrating <- on

(* Reference-host ns of a stretch of host time the engine was not
   running, probed on both sides. *)
let scale_between ns ~before ~after =
  float_of_int ns *. reference_probe_ns /. ((before +. after) /. 2.0)

(* Run the engine until [finished] is set. Whoever sets it also calls
   [Engine.stop], so both modes stop after the same event. *)
let run t engine finished =
  if t.traced then begin
    let since = ref (now_ns ()) and n = ref 0 in
    while not !finished do
      let id = open_span t Step ~parent:(-1) in
      t.cur_step <- id;
      if not (Engine.step engine) then finished := true;
      t.cur_step <- -1;
      t.step_ns <- t.step_ns + close_span t id;
      t.steps <- t.steps + 1;
      incr n;
      if !n = slice_events || !finished then begin
        note_slice t (now_ns () - !since);
        n := 0;
        since := now_ns ()
      end
    done
  end
  else
    while not !finished do
      let t0 = now_ns () in
      Engine.run ~max_events:slice_events engine;
      note_slice t (now_ns () - t0)
    done

(* Advance the engine to virtual time [until], through a sentinel event. *)
let run_until t engine until =
  let finished = ref false in
  Engine.schedule_at engine until (fun () ->
      finished := true;
      Engine.stop engine);
  run t engine finished

(* --- services -------------------------------------------------------- *)

let timed t kind f =
  let before = Tally.snapshot () in
  let id = open_span t kind ~parent:t.cur_step in
  let r = f () in
  let dt = close_span t id in
  let i = kind_index kind in
  t.calls.(i) <- t.calls.(i) + 1;
  t.ns.(i) <- t.ns.(i) + dt;
  let d = Tally.diff (Tally.snapshot ()) before in
  t.svc_digest_ops <- t.svc_digest_ops + d.Tally.digest_ops;
  t.svc_digest_bytes <- t.svc_digest_bytes + d.Tally.digest_bytes;
  r

let wrap_service t (s : Service.t) =
  if not t.traced then s
  else
    {
      s with
      Service.execute =
        (fun ~client ~op -> timed t Execute (fun () -> s.execute ~client ~op));
      state_digest = (fun () -> timed t State_digest s.state_digest);
      snapshot = (fun () -> timed t Snapshot s.snapshot);
      restore = (fun p -> timed t Restore (fun () -> s.restore p));
    }

(* --- ops ------------------------------------------------------------- *)

let op_begin t = if t.traced then open_span t Op ~parent:t.cur_step else -1

let op_end t id = if id >= 0 then ignore (close_span t id)

(* --- readout --------------------------------------------------------- *)

let calls t kind = t.calls.(kind_index kind)

let host_ns t kind = t.ns.(kind_index kind)

let steps t = t.steps

let step_ns t = t.step_ns

let service_ns t =
  List.fold_left (fun acc k -> acc + host_ns t k) 0 service_kinds

let service_digest t = (t.svc_digest_ops, t.svc_digest_bytes)

let span_count t = t.spans.len

let ref_ns t = t.ref_ns

(* Zero every counter and drop recorded spans (the trial's warm-up is not
   part of the measured window). *)
let reset t =
  t.ref_ns <- 0.0;
  t.base <- t.base + t.spans.len;
  t.spans.len <- 0;
  t.steps <- 0;
  t.step_ns <- 0;
  Array.fill t.calls 0 (Array.length t.calls) 0;
  Array.fill t.ns 0 (Array.length t.ns) 0;
  t.svc_digest_ops <- 0;
  t.svc_digest_bytes <- 0

(* One JSON object per span; [parent] -1 for roots (or a parent dropped by
   [reset]), times in host ns relative to the first span. *)
let write_spans t path =
  let s = t.spans in
  let base = if s.len > 0 then s.t0.(0) else 0 in
  let oc = open_out path in
  for i = 0 to s.len - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d}\n"
      (t.base + i) s.parent.(i)
      (kind_name kinds.(s.kind.(i)))
      (s.t0.(i) - base)
      (if s.t1.(i) < 0 then -1 else s.t1.(i) - base)
  done;
  close_out oc
