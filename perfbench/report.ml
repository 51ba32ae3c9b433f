(* Metric definitions: every end-to-end and per-layer figure the benchmark
   prints, computed from trial results. BENCHMARK.json lists the same
   names and units. *)

module Stats = Bft_util.Stats
module Tally = Bft_crypto.Tally
module Cpu = Bft_sim.Cpu
module T = Trial

type metric = { name : string; unit_ : string; value : float; samples : int }

let m ?(samples = 1) name unit_ value = { name; unit_; value; samples }

let median = T.median

let per x n = if n = 0 then 0.0 else x /. float_of_int n

let fi = float_of_int

(* --- end to end (untraced trials) --------------------------------------- *)

(* [parts] holds the first trial of each input part: virtual metrics are
   medians over the parts, host metrics medians over every trial. *)
let end_to_end ~(parts : T.result list) (trials : T.result list) =
  let k = List.length trials in
  let over f = median (List.map f parts) in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 parts in
  let ok t = 1.0 -. per (fi (t.T.failed + t.T.aborted)) t.T.attempted in
  let lat q t = Stats.percentile t.T.latency q *. 1e6 in
  [
    m ~samples:k "host_ops_per_ref_s" "1/s" (median (List.map T.ref_ops_per_s trials));
    m ~samples:k "setup_s" "s" (median (List.map (fun t -> t.T.setup_s) trials));
    m ~samples:k "heap_live_mb" "MB"
      (median (List.map (fun t -> fi t.T.heap_live_bytes /. 1e6) trials));
    m ~samples:(sum (fun t -> t.completed)) "virt_ops_per_s" "1/s" (over T.virt_ops_per_s);
    m ~samples:(sum (fun t -> Stats.count t.latency)) "virt_lat_p50_us" "us" (over (lat 50.0));
    m ~samples:(sum (fun t -> Stats.count t.latency)) "virt_lat_p99_us" "us" (over (lat 99.0));
    m ~samples:(sum (fun t -> t.attempted)) "ops_ok_ratio" "ratio" (over ok);
    m ~samples:(List.length parts) "virt_outage_ms" "ms" (over (fun t -> t.outage *. 1e3));
  ]

(* --- per layer (traced run) ---------------------------------------------- *)

type units = {
  md5_ns_per_kb : float;  (** at 4 KiB blocks *)
  md5_mean_ns : float;  (** one digest at the run's mean digest size *)
  mac_ns : float;  (** one MAC at the run's mean MAC input size *)
  encode_ns : float;
  decode_ns : float;
  md5_mb_per_s : float;
}

(* Window deltas of the counters a trial read at its two edges. *)
type deltas = {
  ops : int;
  tally : Tally.snapshot;
  sent : int;
  delivered : int;
  dropped : int;
  wire_bytes : int;
  cpu : float array;
  batches : int;
  batch_requests : float array;
  checkpoints : float;
  pages_fetched : int;
  retransmissions : int;
  minor_words : float;
  major_collections : int;
}

let deltas (t : T.result) =
  let b = t.before and a = t.after in
  {
    ops = t.completed;
    tally = Tally.diff a.tally b.tally;
    sent = a.sent - b.sent;
    delivered = a.delivered - b.delivered;
    dropped = a.dropped - b.dropped;
    wire_bytes = a.wire_bytes - b.wire_bytes;
    cpu = Array.mapi (fun i x -> x -. b.cpu.(i)) a.cpu;
    batches = a.batches - b.batches;
    batch_requests = Array.mapi (fun i x -> x -. b.batch_requests.(i)) a.batch_requests;
    checkpoints = a.checkpoints -. b.checkpoints;
    pages_fetched = a.pages_fetched - b.pages_fetched;
    retransmissions = a.retransmissions - b.retransmissions;
    minor_words = a.minor_words -. b.minor_words;
    major_collections = a.major_collections - b.major_collections;
  }

(* Mean sizes the unit costs are timed at. *)
let mean_mac_bytes (d : deltas) =
  let t = d.tally in
  per (fi (t.mac_gen_bytes + t.mac_verify_bytes)) (t.mac_gen_ops + t.mac_verify_ops)

let mean_digest_bytes (t : T.result) =
  let d = deltas t in
  let svc_ops, svc_bytes = Probe.service_digest t.probe in
  per (fi (d.tally.digest_bytes - svc_bytes)) (d.tally.digest_ops - svc_ops)

(* Host ns the unit-cost model attributes to each layer in one traced
   trial's window. Digests made inside service calls are left to the
   service spans, which time them directly. *)
let attributed (u : units) (t : T.result) =
  let d = deltas t in
  let svc_ops, _ = Probe.service_digest t.probe in
  let mac = fi (d.tally.mac_gen_ops + d.tally.mac_verify_ops) *. u.mac_ns in
  let md5 = fi (d.tally.digest_ops - svc_ops) *. u.md5_mean_ns in
  let codec = (fi d.sent *. u.encode_ns) +. (fi d.delivered *. u.decode_ns) in
  let service = fi (Probe.service_ns t.probe) in
  (mac +. md5, codec, service)

let share_of (u : units) pick (t : T.result) =
  pick (attributed u t) /. (t.window_host_s *. 1e9)

let crypto_share u = share_of u (fun (c, _, _) -> c)

let codec_share u = share_of u (fun (_, c, _) -> c)

let service_share u = share_of u (fun (_, _, s) -> s)

let unattributed_share u t =
  let c, k, s = attributed u t in
  1.0 -. ((c +. k +. s) /. (t.T.window_host_s *. 1e9))

let mean_call_ns (t : T.result) kind =
  let c = Probe.calls t.probe kind in
  per (fi (Probe.host_ns t.probe kind)) c

(* Deterministic per-layer counts of one trial: they repeat exactly for a
   given input, which the benchmark's own test checks. *)
let layer_counts (t : T.result) =
  let d = deltas t in
  let ops = d.ops in
  let cpu_labels = [| "mac_gen"; "mac_verify"; "digest"; "encode"; "decode"; "exec"; "other" |] in
  assert (Array.length cpu_labels = Cpu.num_categories);
  let cpu =
    Array.to_list
      (Array.mapi
         (fun i label ->
           m ("cpu.virt_us_per_op." ^ label) "us" (per (d.cpu.(i) *. 1e6) ops))
         cpu_labels)
  in
  let groups = Array.length d.batch_requests in
  let total_reqs = Array.fold_left ( +. ) 0.0 d.batch_requests in
  let imbalance =
    if total_reqs = 0.0 then 1.0
    else Array.fold_left Float.max 0.0 d.batch_requests /. (total_reqs /. fi groups)
  in
  [
    m "sim.events_per_op" "count" (per (fi (Probe.steps t.probe)) ops);
  ]
  @ cpu
  @ [
      m "crypto.mac_ops_per_op" "count"
        (per (fi (d.tally.mac_gen_ops + d.tally.mac_verify_ops)) ops);
      m "crypto.digest_bytes_per_op" "B" (per (fi d.tally.digest_bytes) ops);
      m "net.datagrams_per_op" "count" (per (fi d.sent) ops);
      m "net.wire_bytes_per_op" "B" (per (fi d.wire_bytes) ops);
      m "net.drop_ratio" "ratio" (per (fi d.dropped) d.sent);
      m "replica.ops_per_batch" "count" (per total_reqs d.batches);
      m "replica.checkpoints_per_kop" "count/kop" (per (d.checkpoints *. 1e3) ops);
      m "replica.view_changes" "count" (fi t.view_changes);
      m "replica.catchup_virt_ms" "ms"
        (if Float.is_nan t.catchup then 0.0 else t.catchup *. 1e3);
      m "replica.state_pages_fetched" "count" (fi d.pages_fetched);
      m "client.retransmit_ratio" "ratio" (per (fi d.retransmissions) ops);
      m "client.backlog_peak" "count" (fi t.backlog_peak);
      m "service.state_digest_calls_per_kop" "count/kop"
        (per (fi (Probe.calls t.probe Probe.State_digest) *. 1e3) ops);
      m "shard.txn_commit_ratio" "ratio"
        (per (fi (t.cross_done - t.aborted)) t.cross_done);
      m "shard.cross_txn_virt_lat_p50_us" "us"
        (if Stats.count t.cross_latency = 0 then 0.0
         else Stats.p50 t.cross_latency *. 1e6);
      m "shard.group_imbalance" "ratio" imbalance;
    ]

(* [plain] are the untraced trials of the traced run (GC figures and the
   tracing baseline), [traced] the traced ones (spans, service timers). *)
let per_layer ~(plain : T.result list) ~(traced : T.result list) (u : units) =
  let t0 = List.hd traced and p0 = List.hd plain in
  let med f = median (List.map f traced) in
  let k = List.length traced in
  let dp = deltas p0 in
  let ops = p0.completed in
  layer_counts t0
  @ [
      m ~samples:k "sim.host_ns_per_event" "ns"
        (med (fun t ->
             per (fi (Probe.step_ns t.probe - Probe.service_ns t.probe)) (Probe.steps t.probe)));
      m "crypto.mac_host_ns" "ns" u.mac_ns;
      m "crypto.md5_host_ns_per_kb" "ns/KB" u.md5_ns_per_kb;
      m ~samples:k "crypto.host_share" "ratio" (med (crypto_share u));
      m "codec.encode_host_ns" "ns" u.encode_ns;
      m "codec.decode_host_ns" "ns" u.decode_ns;
      m ~samples:k "codec.host_share" "ratio" (med (codec_share u));
      m ~samples:k "service.state_digest_host_ms" "ms"
        (med (fun t -> mean_call_ns t Probe.State_digest /. 1e6));
      m ~samples:k "service.snapshot_host_ms" "ms"
        (med (fun t -> mean_call_ns t Probe.Snapshot /. 1e6));
      m ~samples:k "service.execute_host_ns" "ns"
        (med (fun t -> mean_call_ns t Probe.Execute));
      m ~samples:k "service.host_share" "ratio" (med (service_share u));
      m "gc.minor_words_per_op" "words" (per dp.minor_words ops);
      m "gc.major_collections_per_kop" "count/kop"
        (per (fi dp.major_collections *. 1e3) ops);
      m "gc.retained_bytes_per_op" "B" (per (fi p0.retained_bytes) ops);
      m ~samples:k "host.unattributed_share" "ratio" (med (unattributed_share u));
      m ~samples:(List.length plain) "host.raw_ops_per_s" "1/s"
        (median (List.map T.host_ops_per_s plain));
      m ~samples:(List.length plain) "host.raw_setup_s" "s"
        (median (List.map (fun t -> t.T.setup_raw_s) plain));
      m "host.trace_overhead_ratio" "ratio"
        (median (List.map T.host_ops_per_s traced)
        /. median (List.map T.host_ops_per_s plain));
      m "host.md5_mb_per_s" "MB/s" u.md5_mb_per_s;
    ]

(* End-to-end metrics that time the host: they vary from run to run. *)
let host_timed =
  [ "host_ops_per_ref_s"; "setup_s"; "heap_live_mb" ]
