(* One trial: build the deployment (set-up), warm up, measure one window,
   drain, check the outputs. Virtual results depend only on the generated
   input, so every trial of a run repeats them exactly; host timings are
   what the repetition is for. *)

module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Network = Bft_net.Network
module Cluster = Bft_core.Cluster
module Client = Bft_core.Client
module Replica = Bft_core.Replica
module Metrics = Bft_core.Metrics
module Stats = Bft_util.Stats
module Tally = Bft_crypto.Tally
module W = Workload

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Public counters of every layer, read at the window's two edges. *)
type counters = {
  tally : Tally.snapshot;
  sent : int;
  delivered : int;
  dropped : int;
  wire_bytes : int;
  cpu : float array;  (** virtual busy s by CPU category, all machines *)
  batches : int;
  batch_requests : float array;  (** requests ordered, by group *)
  checkpoints : float;  (** per replica, summed over groups *)
  pages_fetched : int;
  retransmissions : int;
  minor_words : float;
  major_collections : int;
}

let sum_replicas cluster f =
  Array.fold_left (fun acc r -> acc + f r) 0 (Cluster.replicas cluster)

let sum_groups (run : W.run) f =
  Array.fold_left (fun acc c -> acc + sum_replicas c f) 0 run.clusters

let replica_count name r = Metrics.count (Replica.metrics r) name

let ordered r =
  match Metrics.samples (Replica.metrics r) "batch.size" with
  | Some s -> Stats.total s
  | None -> 0.0

let read (run : W.run) =
  let net = Cluster.network run.clusters.(0) in
  let cpu = Array.make Cpu.num_categories 0.0 in
  List.iter
    (fun (_, c) ->
      Array.iteri (fun i s -> cpu.(i) <- cpu.(i) +. s) (Cpu.busy_seconds c))
    (Network.cpus net);
  let gc = Gc.quick_stat () in
  let replicas = float_of_int (Array.length (Cluster.replicas run.clusters.(0))) in
  {
    tally = Tally.snapshot ();
    sent = Network.sent_datagrams net;
    delivered = Network.delivered_datagrams net;
    dropped = Network.dropped_datagrams net;
    wire_bytes = Network.bytes_on_wire net;
    cpu;
    batches = sum_groups run (replica_count "batch.sent");
    batch_requests =
      Array.map
        (fun c ->
          Array.fold_left (fun acc r -> acc +. ordered r) 0.0 (Cluster.replicas c))
        run.clusters;
    checkpoints =
      float_of_int (sum_groups run (replica_count "checkpoint.taken")) /. replicas;
    pages_fetched = sum_groups run (replica_count "state.pages_fetched");
    retransmissions =
      Array.fold_left
        (fun acc c ->
          List.fold_left
            (fun acc cl -> acc + Metrics.count (Client.metrics cl) "ops.retransmitted")
            acc (Cluster.clients c))
        0 run.clusters;
    minor_words = gc.Gc.minor_words;
    major_collections = gc.Gc.major_collections;
  }

(* Live heap bytes after a full major collection. *)
let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

type result = {
  params : W.params;
  setup_s : float;  (** reference-host s *)
  setup_raw_s : float;
  window_host_s : float;
  w0 : float;  (** virtual window *)
  w1 : float;
  completed : int;  (** completions inside the window (open loop: after w0) *)
  attempted : int;  (** ops due inside the window *)
  failed : int;
  aborted : int;
  cross_done : int;
  latency : Stats.t;  (** due-to-completion, successful ops due in the window *)
  cross_latency : Stats.t;
  outage : float;  (** median over episodes of the longest completion gap *)
  heap_live_bytes : int;
  retained_bytes : int;  (** live heap growth from window start to run end *)
  before : counters;
  after : counters;
  view_changes : int;
  catchup : float;  (** median virtual s to catch up after a restart; nan *)
  backlog_peak : int;
  probe : Probe.t;
  errors : string list;
}

let drain_cap = 30.0

(* Run until every issued op has completed (or the cap passes). *)
let drain probe (run : W.run) =
  let cap = Engine.now run.engine +. drain_cap in
  while run.ledger.outstanding > 0 && Engine.now run.engine < cap do
    Probe.run_until probe run.engine (Engine.now run.engine +. 0.01)
  done

(* Run until replica 0 of group 0 has taken [n] more checkpoints. *)
let run_checkpoints probe (run : W.run) n =
  let seen = ref 0 and finished = ref false in
  run.on_checkpoint :=
    (fun () ->
      incr seen;
      if !seen >= n then begin
        finished := true;
        Engine.stop run.engine
      end);
  Probe.run probe run.engine finished;
  run.on_checkpoint := ignore

(* Episodes for [virt_outage_ms]: one per crash, or fixed slices of the
   window; each reports the longest gap without a completed op, counted
   from the episode's start. *)
let episode_starts (p : W.params) ~w0 ~w1 =
  if p.crashes > 0 then
    let cycle = W.virtual_window p /. float_of_int p.crashes in
    Array.init p.crashes (fun c -> w0 +. (float_of_int c *. cycle) +. W.crash_lead)
  else
    let n = max 1 (int_of_float ((w1 -. w0) /. W.quiet_episode)) in
    Array.init n (fun k -> w0 +. (float_of_int k *. W.quiet_episode))

let outage starts ~until completions =
  let n = Array.length starts in
  let gaps = Array.make n 0.0 in
  let e = ref (-1) and last = ref 0.0 in
  List.iter
    (fun t ->
      while !e + 1 < n && starts.(!e + 1) <= t do
        incr e;
        last := starts.(!e)
      done;
      if !e >= 0 && t <= until then begin
        gaps.(!e) <- Float.max gaps.(!e) (t -. !last);
        last := t
      end)
    completions;
  median (Array.to_list gaps)

let run ~traced (p : W.params) input =
  Gc.full_major ();
  let probe = Probe.create ~traced in
  let t_start = Probe.now_ns () in
  let before = Probe.probe_speed () in
  let backlog_peak = ref 0 in
  let r = W.build p probe input ~backlog_peak in
  let l = r.ledger in
  let build_ns = Probe.now_ns () - t_start in
  let build_ref_ns =
    Probe.scale_between build_ns ~before ~after:(Probe.probe_speed ())
  in
  Probe.set_calibrating probe true;
  Probe.run_until probe r.engine p.warmup;
  (match p.window with
  | Checkpoints _ -> run_checkpoints probe r 1
  | Virtual _ -> ());
  Probe.set_calibrating probe false;
  let w0 = Engine.now r.engine in
  let setup_raw_s = float_of_int (Probe.now_ns () - t_start) /. 1e9 in
  let setup_s = (build_ref_ns +. Probe.ref_ns probe) /. 1e9 in
  let live0 = live_bytes () in
  Probe.reset probe;
  let before = read r in
  let h0 = Probe.now_ns () in
  Probe.set_calibrating probe true;
  (match p.window with
  | Checkpoints n -> run_checkpoints probe r n
  | Virtual w ->
    Probe.run_until probe r.engine (w0 +. w);
    drain probe r);
  Probe.set_calibrating probe false;
  let window_host_s = float_of_int (Probe.now_ns () - h0) /. 1e9 in
  let after = read r in
  let w1 = Engine.now r.engine in
  r.stop ();
  drain probe r;
  (* Let the last checkpoint certificates settle before the checks. *)
  Probe.run_until probe r.engine (Engine.now r.engine +. 0.1);
  let errors = W.finish_checks r in
  let live1 = live_bytes () in
  (* Classify the recorded ops against the window. For the open loop the
     window covers arrivals up to [w0 + w], then the drain. *)
  let due_until =
    match p.window with Checkpoints _ -> w1 | Virtual w -> w0 +. w
  in
  let latency = Stats.create ~capacity:1_000_000 () in
  let cross_latency = Stats.create ~capacity:1_000_000 () in
  let attempted = ref 0 and failed = ref 0 and aborted = ref 0 and cross = ref 0 in
  let ops = List.rev l.ops in
  List.iter
    (fun (o : W.op) ->
      if o.due >= w0 && o.due < due_until then begin
        incr attempted;
        if o.cross then incr cross;
        let lat = o.done_at -. o.due in
        match o.verdict with
        | W.Ok_op ->
          Stats.add latency lat;
          if o.cross then Stats.add cross_latency lat
        | W.Aborted ->
          incr aborted;
          Stats.add cross_latency lat
        | W.Failed _ -> incr failed
      end)
    ops;
  let completions =
    List.sort compare
      (List.filter_map
         (fun (o : W.op) ->
           if o.done_at >= w0 && o.done_at <= w1 then Some o.done_at else None)
         ops)
  in
  let view_changes =
    Array.fold_left
      (fun acc c ->
        acc + Array.fold_left (fun m x -> max m (Replica.view x)) 0 (Cluster.replicas c))
      0 r.clusters
  in
  ignore (Sys.opaque_identity r);
  {
    params = p;
    setup_s;
    setup_raw_s;
    window_host_s;
    w0;
    w1;
    completed = List.length completions;
    attempted = !attempted;
    failed = !failed;
    aborted = !aborted;
    cross_done = !cross;
    latency;
    cross_latency;
    outage = outage (episode_starts p ~w0 ~w1) ~until:w1 completions;
    heap_live_bytes = live1;
    retained_bytes = live1 - live0;
    before;
    after;
    view_changes;
    catchup = median r.catchups;
    backlog_peak = !backlog_peak;
    probe;
    errors;
  }

let host_ops_per_s t = float_of_int t.completed /. t.window_host_s

(* Throughput per reference-host second (see {!Probe.set_calibrating}). *)
let ref_ops_per_s t = float_of_int t.completed /. (Probe.ref_ns t.probe /. 1e9)

let virt_ops_per_s t = float_of_int t.completed /. (t.w1 -. t.w0)

(* The virtual-time outcome of a trial, which every trial of one input
   must reproduce exactly. *)
let virtual_key t =
  Printf.sprintf "%d/%d/%d/%d/%h/%h/%h/%h/%h" t.completed t.attempted t.failed
    t.aborted (Stats.p50 t.latency) (Stats.p99 t.latency) t.outage t.w0 t.w1
