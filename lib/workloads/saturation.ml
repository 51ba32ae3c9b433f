(* The saturation bench suite: the paper's 0/0, 4/0, 0/4 micro-operations
   plus a batched-throughput curve driven to saturation, reported on two
   clocks at once. Virtual-time results (latencies and ops/s on the
   simulated clock) are paper-comparable and must be byte-identical for a
   fixed seed across hosts and hot-path refactors — they are the golden
   regression surface. Wall-clock numbers (how many simulated requests the
   simulator itself retires per real second) measure the simulator's hot
   path and are what the perf trajectory in BENCH_micro.json tracks. *)

module Json = Bft_util.Json

type micro = {
  mi_label : string;
  mi_arg : int;
  mi_res : int;
  mi_mean_us : float;
  mi_stddev_us : float;
  mi_ops : int;
  mi_wall_s : float;
}

type point = {
  pt_clients : int;
  pt_ops_per_sec : float;
  pt_completed : int;
  pt_retransmissions : int;
  pt_wall_s : float;
  pt_sim_rps : float;
}

type scale_point = {
  sc_groups : int;
  sc_clients : int;
  sc_completed : int;
  sc_retransmissions : int;
  sc_per_group : int array;
  sc_sim_rps : float;
  sc_wall_s : float;
}

type rotating_row = {
  ro_clients : int;
  ro_epoch_length : int;
  ro_single_ops_per_sec : float;
  ro_ops_per_sec : float;
  ro_completed : int;
  ro_retransmissions : int;
  ro_speedup : float;
  ro_wall_s : float;
}

type cross_row = {
  cx_fraction : float;
  cx_ops_per_sec : float;
  cx_completed : int;
  cx_cross_committed : int;
  cx_cross_aborted : int;
  cx_wall_s : float;
}

type health_row = { hl_label : string; hl_alerts : int; hl_line : string }

type t = {
  seed : int;
  quick : bool;
  cost_profile : string;  (** Calibration profile every rig ran under. *)
  micro : micro list;
  curve : point list;
  scaling : scale_point list;
  rotating : rotating_row;
  cross_shard : cross_row list;
  health : health_row list;
}

let micro_shapes = [ ("0/0", 0, 0); ("4/0", 4096, 0); ("0/4", 0, 4096) ]

let curve_clients ~quick =
  if quick then [ 1; 4; 12; 24 ] else [ 1; 2; 4; 8; 16; 24; 32; 48; 64 ]

(* Group counts swept by the scaling section: doublings up to [max_groups]
   (1, 2, 4, ...). *)
let scaling_groups ~max_groups =
  let rec go g acc = if g > max_groups then List.rev acc else go (2 * g) (g :: acc) in
  go 1 []

let scaling_clients_per_group ~quick = if quick then 12 else 16

(* The rotating-vs-single comparison row. The single primary's CPU is the
   batched curve's ceiling — past its peak, extra clients only deepen its
   queue — so rotating ordering saturates at a much higher client count.
   The row drives BOTH modes with the same heavy offered load so the
   comparison is the throughput ceiling, mode against mode, not a
   same-client-count footnote on the single-primary curve. *)
let rotating_clients = 256
let rotating_epoch_length = 4

(* The cross-shard transaction cost axis: the mixed workload at increasing
   cross-shard fractions on a fixed 2-group deployment. Fraction 0.0 is the
   plain sharded baseline through the transaction layer, so the marginal
   cost of 2PC reads straight off the row deltas. *)
let cross_fractions = [ 0.0; 0.1; 0.3 ]
let cross_groups = 2
let cross_clients_per_group ~quick = if quick then 8 else 12

let run ?(quick = false) ?(seed = 42) ?(max_groups = 4) ?(health = false)
    ?(cal = Bft_sim.Calibration.default) () =
  if max_groups < 1 then invalid_arg "Saturation.run: max_groups must be positive";
  let ops = if quick then 60 else 200 in
  (* With [health] every rig runs under an attached monitor; since
     observation is pure, the virtual-time fields — and therefore
     [virtual_json] — are byte-identical either way, which CI asserts. *)
  let health_rows = ref [] in
  let fresh_monitor label =
    if not health then None
    else begin
      let m = Bft_trace.Monitor.create () in
      health_rows :=
        (label, fun () ->
            {
              hl_label = label;
              hl_alerts = Bft_trace.Monitor.alert_count m;
              hl_line = Bft_trace.Monitor.summary m;
            })
        :: !health_rows;
      Some m
    end
  in
  let micro =
    List.map
      (fun (label, arg, res) ->
        let t0 = Unix.gettimeofday () in
        let r =
          Microbench.bft_latency ~ops ~seed ~cal
            ?monitor:(fresh_monitor ("micro " ^ label))
            ~arg ~res ~read_only:false ()
        in
        {
          mi_label = label;
          mi_arg = arg;
          mi_res = res;
          mi_mean_us = r.Microbench.mean *. 1e6;
          mi_stddev_us = r.Microbench.stddev *. 1e6;
          mi_ops = r.Microbench.ops;
          mi_wall_s = Unix.gettimeofday () -. t0;
        })
      micro_shapes
  in
  let window = if quick then 0.4 else 1.0 in
  let curve =
    List.map
      (fun clients ->
        let t0 = Unix.gettimeofday () in
        let r =
          Microbench.bft_throughput ~seed ~window ~cal
            ?monitor:(fresh_monitor (Printf.sprintf "curve %d clients" clients))
            ~arg:0 ~res:0 ~read_only:false ~clients ()
        in
        let wall = Unix.gettimeofday () -. t0 in
        {
          pt_clients = clients;
          pt_ops_per_sec = r.Microbench.ops_per_sec;
          pt_completed = r.Microbench.completed;
          pt_retransmissions = r.Microbench.retransmissions;
          pt_wall_s = wall;
          (* Requests retired per real second over the whole run (warmup
             included): the simulator hot-path metric. *)
          pt_sim_rps = (if wall > 0.0 then float_of_int r.Microbench.completed /. wall else 0.0);
        })
      (curve_clients ~quick)
  in
  (* Scaling out: the same uniform-key workload against 1, 2 and 4 replica
     groups sharing one simulation. Unlike the curve's [pt_sim_rps], a
     scaling row's [sc_sim_rps] is on the {e simulated} clock (requests
     retired per simulated second): scaling out is a property of the
     modelled system — more groups retire more requests in the same
     simulated window — while the simulator's wall-clock rate stays flat
     because it also has proportionally more events to process. The wall
     cost is recorded separately in [sc_wall_s]. *)
  let per_group = scaling_clients_per_group ~quick in
  let scaling =
    List.map
      (fun groups ->
        let t0 = Unix.gettimeofday () in
        let r =
          Microbench.sharded_throughput ~seed ~window ~cal ~health ~groups
            ~clients_per_group:per_group ()
        in
        if health then begin
          let label = Printf.sprintf "scaling %d groups" groups in
          let rollup = Bft_shard.Rig.health_rollup r.Microbench.sh_monitors in
          health_rows :=
            (label, fun () ->
                {
                  hl_label = label;
                  hl_alerts = rollup.Bft_shard.Rig.ru_alerts;
                  hl_line = Bft_shard.Rig.rollup_line rollup;
                })
            :: !health_rows
        end;
        {
          sc_groups = groups;
          sc_clients = groups * per_group;
          sc_completed = r.Microbench.sh_completed;
          sc_retransmissions = r.Microbench.sh_retransmissions;
          sc_per_group = r.Microbench.sh_per_group;
          sc_sim_rps = r.Microbench.sh_ops_per_sec;
          sc_wall_s = Unix.gettimeofday () -. t0;
        })
      (scaling_groups ~max_groups)
  in
  (* Rotating-vs-single saturation ceilings at [rotating_clients]. Runs
     after the scaling sweep on fresh clusters of their own, so the
     pre-existing golden sections are byte-identical with the mode off. *)
  let rotating =
    let t0 = Unix.gettimeofday () in
    let throughput config label =
      let r =
        Microbench.bft_throughput ~config ~seed ~window ~cal
          ?monitor:(fresh_monitor label) ~arg:0 ~res:0 ~read_only:false
          ~clients:rotating_clients ()
      in
      (r.Microbench.ops_per_sec, r.Microbench.completed, r.Microbench.retransmissions)
    in
    let single_ops, _, _ =
      throughput (Bft_core.Config.make ~f:1 ()) "rotating baseline"
    in
    let ops, completed, retransmissions =
      throughput
        (Bft_core.Config.make ~f:1
           ~ordering:
             (Bft_core.Config.Rotating { epoch_length = rotating_epoch_length })
           ())
        "rotating"
    in
    {
      ro_clients = rotating_clients;
      ro_epoch_length = rotating_epoch_length;
      ro_single_ops_per_sec = single_ops;
      ro_ops_per_sec = ops;
      ro_completed = completed;
      ro_retransmissions = retransmissions;
      (* 0.0 sentinel, not nan: the field is serialized with %.2f into
         both JSON surfaces and a bare nan is invalid JSON. A zero-op
         baseline is degenerate anyway, so a zero speedup (which also
         fails the >= 1.3x gate) is the honest report. *)
      ro_speedup = (if single_ops > 0.0 then ops /. single_ops else 0.0);
      ro_wall_s = Unix.gettimeofday () -. t0;
    }
  in
  (* Cross-shard transaction cost: fresh rigs of their own, after every
     golden section, so the pre-existing virtual surface is untouched. *)
  let cross_shard =
    List.map
      (fun fraction ->
        let t0 = Unix.gettimeofday () in
        let r =
          Microbench.mixed_txn_throughput ~seed ~window ~cal
            ~groups:cross_groups
            ~clients_per_group:(cross_clients_per_group ~quick)
            ~cross_fraction:fraction ()
        in
        {
          cx_fraction = fraction;
          cx_ops_per_sec = r.Microbench.mx_ops_per_sec;
          cx_completed = r.Microbench.mx_completed;
          cx_cross_committed = r.Microbench.mx_cross_committed;
          cx_cross_aborted = r.Microbench.mx_cross_aborted;
          cx_wall_s = Unix.gettimeofday () -. t0;
        })
      cross_fractions
  in
  (* Health rows are thunks so each summary reflects the monitor's final
     state (registration order = run order). *)
  let health = List.rev_map (fun (_, row) -> row ()) !health_rows in
  let cost_profile = Bft_sim.Calibration.name cal in
  {
    seed;
    quick;
    cost_profile;
    micro;
    curve;
    scaling;
    rotating;
    cross_shard;
    health;
  }

let health_alerts t =
  List.fold_left (fun acc h -> acc + h.hl_alerts) 0 t.health

let peak t =
  List.fold_left
    (fun acc p ->
      match acc with
      | Some best when best.pt_ops_per_sec >= p.pt_ops_per_sec -> acc
      | _ -> Some p)
    None t.curve

(* Aggregate wall-clock throughput of the batched saturation curve: total
   simulated requests retired over total real seconds. This is the number
   the >=25%-improvement acceptance gate compares across trees. *)
let batched_sim_rps t =
  let completed, wall =
    List.fold_left
      (fun (c, w) p -> (c + p.pt_completed, w +. p.pt_wall_s))
      (0, 0.0) t.curve
  in
  if wall > 0.0 then float_of_int completed /. wall else 0.0

(* Throughput ratio of the [groups]-group scaling row over the single-group
   row (nan when either row is missing or degenerate) — the scale-out gate:
   2 groups should be >= 1.7x. *)
let scaling_speedup t ~groups =
  let row g = List.find_opt (fun s -> s.sc_groups = g) t.scaling in
  match (row 1, row groups) with
  | Some base, Some s when base.sc_sim_rps > 0.0 -> s.sc_sim_rps /. base.sc_sim_rps
  | _ -> nan

(* Headline metric of the rotating row on the simulated clock (same
   convention as [sc_sim_rps]): requests per virtual second the rotating
   cluster retires at the saturation-point load. The rotation acceptance
   gate checks it against the single-primary ceiling via
   [rotating_speedup]. *)
let rotating_sim_rps t = t.rotating.ro_ops_per_sec

(* Rotating over single-primary throughput at the same offered load — the
   >= 1.3x rotation gate. *)
let rotating_speedup t = t.rotating.ro_speedup

(* Stable field order and fixed float formats, because the virtual part is
   compared byte-for-byte against a golden file. *)
let micro_virtual_fields profile m =
  Json.
    [
      ("cost_profile", Str profile); ("label", Str m.mi_label); ("arg", int m.mi_arg);
      ("res", int m.mi_res); ("mean_us", fixed 3 m.mi_mean_us);
      ("stddev_us", fixed 3 m.mi_stddev_us); ("ops", int m.mi_ops);
    ]

let point_virtual_fields profile p =
  Json.
    [
      ("cost_profile", Str profile); ("clients", int p.pt_clients);
      ("ops_per_sec", fixed 1 p.pt_ops_per_sec); ("completed", int p.pt_completed);
      ("retransmissions", int p.pt_retransmissions);
    ]

let scale_virtual_fields profile s =
  Json.
    [
      ("cost_profile", Str profile); ("groups", int s.sc_groups); ("clients", int s.sc_clients);
      ("sim_rps", fixed 1 s.sc_sim_rps); ("completed", int s.sc_completed);
      ("retransmissions", int s.sc_retransmissions);
      ("per_group", Arr (Array.to_list (Array.map int s.sc_per_group)));
    ]

let rotating_virtual_fields profile r =
  Json.
    [
      ("cost_profile", Str profile); ("clients", int r.ro_clients);
      ("epoch_length", int r.ro_epoch_length);
      ("single_ops_per_sec", fixed 1 r.ro_single_ops_per_sec);
      ("ops_per_sec", fixed 1 r.ro_ops_per_sec); ("completed", int r.ro_completed);
      ("retransmissions", int r.ro_retransmissions); ("speedup", fixed 2 r.ro_speedup);
    ]

let rows fields items = Json.Arr (List.map (fun item -> Json.Obj (fields item)) items)

let document schema t sections =
  let header =
    Json.[ ("schema", Str schema); ("seed", int t.seed); ("quick", Bool t.quick);
           ("cost_profile", Str t.cost_profile) ]
  in
  Json.to_string (Json.Obj (header @ sections)) ^ "\n"

let virtual_json t =
  let profile = t.cost_profile in
  document "bft-lab/bench-virtual/v2" t
    [
      ("micro", rows (micro_virtual_fields profile) t.micro);
      ("saturation", rows (point_virtual_fields profile) t.curve);
      ("scaling", rows (scale_virtual_fields profile) t.scaling);
      ("rotating", Json.Obj (rotating_virtual_fields profile t.rotating));
    ]

let to_json t =
  let profile = t.cost_profile in
  let wall s = [ ("wall_s", Json.fixed 3 s) ] in
  let peak_row p = Json.(Obj [ ("clients", int p.pt_clients); ("ops_per_sec", fixed 1 p.pt_ops_per_sec) ]) in
  let speedup = scaling_speedup t ~groups:2 in
  let speedup =
    if Float.is_nan speedup then [] else [ ("scaling_speedup_2g", Json.fixed 2 speedup) ]
  in
  let cross c =
    Json.
      [
        ("cost_profile", Str profile); ("cross_fraction", fixed 2 c.cx_fraction);
        ("groups", int cross_groups); ("ops_per_sec", fixed 1 c.cx_ops_per_sec);
        ("completed", int c.cx_completed); ("cross_committed", int c.cx_cross_committed);
        ("cross_aborted", int c.cx_cross_aborted); ("wall_s", fixed 3 c.cx_wall_s);
      ]
  in
  let micro m = micro_virtual_fields profile m @ wall m.mi_wall_s in
  let point p =
    point_virtual_fields profile p @ wall p.pt_wall_s @ [ ("sim_rps", Json.fixed 0 p.pt_sim_rps) ]
  in
  let scale s = scale_virtual_fields profile s @ wall s.sc_wall_s in
  document "bft-lab/bench-micro/v2" t
    ([ ("micro", rows micro t.micro); ("saturation", rows point t.curve) ]
    @ List.map (fun p -> ("peak", peak_row p)) (Option.to_list (peak t))
    @ [ ("scaling", rows scale t.scaling) ]
    @ speedup
    @ [
        ( "rotating",
          Json.Obj (rotating_virtual_fields profile t.rotating @ wall t.rotating.ro_wall_s) );
        ("rotating_sim_rps", Json.fixed 0 (rotating_sim_rps t));
        ("rotating_speedup", Json.fixed 2 (rotating_speedup t));
        ("cross_shard", rows cross t.cross_shard);
        ("batched_sim_rps", Json.fixed 0 (batched_sim_rps t));
      ])

let print t =
  Printf.printf "micro-ops (seed %d%s, cost profile %s):\n" t.seed
    (if t.quick then ", quick" else "")
    t.cost_profile;
  List.iter
    (fun m ->
      Printf.printf "  %-4s %8.1f us (+/- %.1f, %d ops)  [%.2fs wall]\n"
        m.mi_label m.mi_mean_us m.mi_stddev_us m.mi_ops m.mi_wall_s)
    t.micro;
  Printf.printf "batched throughput saturation (0/0):\n";
  List.iter
    (fun p ->
      Printf.printf
        "  %3d clients: %8.1f ops/s virtual  (%5d completed, %d retrans)  \
         %8.0f sim-req/s wall\n"
        p.pt_clients p.pt_ops_per_sec p.pt_completed p.pt_retransmissions
        p.pt_sim_rps)
    t.curve;
  (match peak t with
  | Some p ->
    Printf.printf "peak: %.1f ops/s virtual at %d clients\n" p.pt_ops_per_sec
      p.pt_clients
  | None -> ());
  Printf.printf "scaling out (uniform-key KV, %d clients/group):\n"
    (scaling_clients_per_group ~quick:t.quick);
  List.iter
    (fun s ->
      Printf.printf
        "  %d group%s: %8.1f sim-req/s virtual  (%5d completed, %d retrans, \
         per-group [%s])  [%.2fs wall]\n"
        s.sc_groups
        (if s.sc_groups = 1 then " " else "s")
        s.sc_sim_rps s.sc_completed s.sc_retransmissions
        (String.concat "; "
           (Array.to_list (Array.map string_of_int s.sc_per_group)))
        s.sc_wall_s)
    t.scaling;
  let speedup = scaling_speedup t ~groups:2 in
  if not (Float.is_nan speedup) then
    Printf.printf "2-group speedup over 1 group: %.2fx\n" speedup;
  let r = t.rotating in
  Printf.printf
    "rotating ordering (epoch length %d, %d clients): %8.1f ops/s virtual \
     vs %8.1f single-primary (%.2fx)  [%.2fs wall]\n"
    r.ro_epoch_length r.ro_clients r.ro_ops_per_sec r.ro_single_ops_per_sec
    r.ro_speedup r.ro_wall_s;
  Printf.printf
    "cross-shard transactions (%d groups, %d clients/group, txn layer):\n"
    cross_groups
    (cross_clients_per_group ~quick:t.quick);
  List.iter
    (fun c ->
      Printf.printf
        "  %.0f%% cross: %8.1f ops/s virtual  (%5d completed, %d cross \
         committed, %d aborted)  [%.2fs wall]\n"
        (100.0 *. c.cx_fraction)
        c.cx_ops_per_sec c.cx_completed c.cx_cross_committed c.cx_cross_aborted
        c.cx_wall_s)
    t.cross_shard;
  Printf.printf "batched wall-clock throughput: %.0f simulated requests/s\n"
    (batched_sim_rps t);
  if t.health <> [] then begin
    Printf.printf "health (always-on monitors, %d alert%s total):\n"
      (health_alerts t)
      (if health_alerts t = 1 then "" else "s");
    List.iter
      (fun h -> Printf.printf "  %-18s %s\n" h.hl_label h.hl_line)
      t.health
  end
