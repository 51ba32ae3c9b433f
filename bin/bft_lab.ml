(* bft_lab: command-line driver for the reproduction experiments.

   Each subcommand regenerates one figure of the paper (or a piece of one)
   and prints the measured table together with the paper anchors. *)

open Cmdliner
module E_micro = Bft_workloads.Experiments_micro
module E_fs = Bft_workloads.Experiments_fs
module Ablations = Bft_workloads.Ablations
module Report = Bft_workloads.Report
module Microbench = Bft_workloads.Microbench
module Json = Bft_util.Json

let quick_arg =
  let doc = "Shrink sweep grids for a fast smoke run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* Shared cost-profile flag: every subcommand that simulates takes the
   same named Calibration profile (testbed-2001 unless asked). *)
let cost_profile_arg =
  let module Calibration = Bft_sim.Calibration in
  let doc =
    Printf.sprintf "Cost profile the simulation is calibrated to; one of %s."
      (Arg.doc_alts Calibration.profile_names)
  in
  Arg.(
    value
    & opt (enum Calibration.profiles) Calibration.default
    & info [ "cost-profile" ] ~doc ~docv:"PROFILE")

(* Shared tracing flags: every subcommand that can emit a protocol trace
   takes the same --trace-out/--trace-cap pair. *)
let trace_out_arg ?default ?(extra_names = []) () =
  let doc = "Write the protocol trace of the run as JSONL to $(docv)." in
  Arg.(
    value
    & opt (some string) default
    & info (("trace-out" :: extra_names)) ~doc ~docv:"FILE")

let trace_cap_arg =
  let doc = "Trace ring capacity in events; the newest $(docv) are kept." in
  Arg.(value & opt int (1 lsl 20) & info [ "trace-cap" ] ~doc ~docv:"N")

let write_file path contents =
  try Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  with Sys_error msg ->
    Printf.eprintf "bft_lab: cannot write %s\n" msg;
    exit 1

let read_file ~exit_code path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "bft_lab: cannot read %s\n" msg;
    exit exit_code

let dump_trace trace path =
  let module Trace = Bft_trace.Trace in
  write_file path (Trace.jsonl trace);
  Printf.printf "wrote %d events to %s (%d recorded, %d evicted)\n"
    (Trace.length trace) path (Trace.total trace) (Trace.dropped trace)

let print_sections sections = List.iter Report.print sections

let backend_conv =
  Arg.enum
    [ ("bfs", Bft_workloads.Nfs_rig.Bfs);
      ("norep", Bft_workloads.Nfs_rig.Norep_fs);
      ("nfs-std", Bft_workloads.Nfs_rig.Nfs_std_fs) ]

(* Shared by chaos and monitor: parse + validate a chaos plan file. *)
let read_plan_file ~n file =
  let module Plan = Bft_chaos.Plan in
  match Plan.of_string (read_file ~exit_code:2 file) with
  | Error msg ->
    Printf.eprintf "bft_lab: %s: %s\n" file msg;
    exit 2
  | Ok plan -> (
    match Plan.validate ~n plan with
    | Error msg ->
      Printf.eprintf "bft_lab: %s: %s\n" file msg;
      exit 2
    | Ok () -> plan)

let figure_cmd name summary (run : ?quick:bool -> unit -> Report.section list) =
  let doc = summary in
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun quick -> print_sections (run ~quick ())) $ quick_arg)

let latency_cmd =
  let doc = "One latency point: BFT and NO-REP for a given op shape." in
  let arg_size =
    Arg.(value & opt int 8 & info [ "arg" ] ~doc:"Argument size in bytes.")
  in
  let res_size =
    Arg.(value & opt int 8 & info [ "res" ] ~doc:"Result size in bytes.")
  in
  let read_only = Arg.(value & flag & info [ "read-only" ] ~doc:"Read-only op.") in
  let run arg res read_only trace_out trace_cap =
    let module Trace = Bft_trace.Trace in
    let trace =
      match trace_out with
      | Some _ -> Trace.create ~capacity:trace_cap ()
      | None -> Trace.nil
    in
    let b = Microbench.bft_latency ~trace ~arg ~res ~read_only () in
    let n = Microbench.norep_latency ~arg ~res () in
    Printf.printf "BFT    : %8.1f us (+/- %.1f, %d ops)\n" (b.Microbench.mean *. 1e6)
      (b.Microbench.stddev *. 1e6) b.Microbench.ops;
    Printf.printf "NO-REP : %8.1f us (+/- %.1f, %d ops)\n" (n.Microbench.mean *. 1e6)
      (n.Microbench.stddev *. 1e6) n.Microbench.ops;
    Printf.printf "slowdown: %.2f\n" (b.Microbench.mean /. n.Microbench.mean);
    Option.iter (dump_trace trace) trace_out
  in
  Cmd.v
    (Cmd.info "latency" ~doc)
    Term.(
      const run $ arg_size $ res_size $ read_only $ trace_out_arg ()
      $ trace_cap_arg)

let throughput_cmd =
  let doc = "One throughput point: BFT for a given op shape and client count." in
  let arg_size = Arg.(value & opt int 0 & info [ "arg" ] ~doc:"Argument bytes.") in
  let res_size = Arg.(value & opt int 0 & info [ "res" ] ~doc:"Result bytes.") in
  let clients = Arg.(value & opt int 50 & info [ "clients" ] ~doc:"Client count.") in
  let groups =
    Arg.(
      value & opt int 1
      & info [ "groups" ]
          ~doc:
            "Replica groups. With more than one, runs the sharded \
             uniform-key KV workload ($(b,--clients) proxies spread over \
             the groups; $(b,--arg)/$(b,--res)/$(b,--read-only) do not \
             apply).")
  in
  let read_only = Arg.(value & flag & info [ "read-only" ] ~doc:"Read-only ops.") in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Attach an always-on health monitor (per group) and print its \
             summary after the run. Observation is pure: the measured \
             numbers do not change.")
  in
  let run arg res clients groups read_only health cal trace_out trace_cap =
    let module Trace = Bft_trace.Trace in
    let module Monitor = Bft_trace.Monitor in
    let trace =
      match trace_out with
      | Some _ -> Trace.create ~capacity:trace_cap ()
      | None -> Trace.nil
    in
    Printf.printf "cost profile: %s\n" (Bft_sim.Calibration.name cal);
    let drops t =
      List.iter
        (fun (host, dropped, overflowed) ->
          Printf.printf "  %s: %d datagrams dropped (%d receive-buffer overflows)\n"
            host dropped overflowed)
        t
    in
    let print_alerts alerts =
      List.iter
        (fun a -> Printf.printf "  alert: %s\n" (Monitor.alert_detail a))
        alerts
    in
    if groups > 1 then begin
      let clients_per_group = Stdlib.max 1 (clients / groups) in
      let t =
        Microbench.sharded_throughput ~cal ~trace ~health ~groups
          ~clients_per_group ()
      in
      Printf.printf
        "BFT sharded KV, %d groups x %d proxies: %.0f ops/s (%d completed, %d \
         retransmissions)\n"
        groups clients_per_group t.Microbench.sh_ops_per_sec
        t.Microbench.sh_completed t.Microbench.sh_retransmissions;
      Array.iteri
        (fun g c -> Printf.printf "  group %d: %d completed\n" g c)
        t.Microbench.sh_per_group;
      drops t.Microbench.sh_drops_by_node;
      if health then begin
        Array.iter
          (fun m ->
            Printf.printf "  health %s\n" (Monitor.summary m);
            print_alerts (Monitor.alerts m))
          t.Microbench.sh_monitors;
        print_endline
          (Bft_shard.Rig.rollup_line
             (Bft_shard.Rig.health_rollup t.Microbench.sh_monitors))
      end
    end
    else begin
      let monitor = if health then Some (Monitor.create ()) else None in
      let t =
        Microbench.bft_throughput ~cal ~trace ?monitor ~arg ~res ~read_only
          ~clients ()
      in
      Printf.printf
        "BFT %d/%d, %d clients: %.0f ops/s (%d completed, %d retransmissions)\n"
        arg res clients t.Microbench.ops_per_sec t.Microbench.completed
        t.Microbench.retransmissions;
      drops t.Microbench.drops_by_node;
      Option.iter
        (fun m ->
          Printf.printf "health: %s\n" (Monitor.summary m);
          print_alerts (Monitor.alerts m))
        monitor
    end;
    Option.iter (dump_trace trace) trace_out
  in
  Cmd.v
    (Cmd.info "throughput" ~doc)
    Term.(
      const run $ arg_size $ res_size $ clients $ groups $ read_only $ health
      $ cost_profile_arg $ trace_out_arg () $ trace_cap_arg)

let trace_cmd =
  let doc =
    "Trace one BFT latency run: dump the protocol trace as JSONL, print the \
     per-phase latency breakdown and the causal-DAG summary, and optionally \
     export a Chrome trace (chrome://tracing / Perfetto) or a metric \
     time-series. Deterministic: the same seed and operation shape produce \
     byte-identical files."
  in
  let arg_size =
    Arg.(value & opt int 0 & info [ "arg" ] ~doc:"Argument size in bytes.")
  in
  let res_size =
    Arg.(value & opt int 0 & info [ "res" ] ~doc:"Result size in bytes.")
  in
  let ops = Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Measured operations.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let read_only = Arg.(value & flag & info [ "read-only" ] ~doc:"Read-only op.") in
  let sim_events =
    Arg.(
      value & flag
      & info [ "sim-events" ] ~doc:"Also record per-event simulator firings.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ]
          ~doc:"Export a Chrome trace-event JSON file to $(docv)." ~docv:"FILE")
  in
  let series_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "series" ]
          ~doc:"Sample cluster metrics on a virtual-time cadence and write \
                them as JSONL to $(docv)." ~docv:"FILE")
  in
  let series_every =
    Arg.(
      value & opt float 0.001
      & info [ "series-every" ]
          ~doc:"Virtual-time sampling interval in seconds for $(b,--series)."
          ~docv:"SECONDS")
  in
  let run arg res ops seed read_only sim_events cal trace_out trace_cap chrome
      series_out series_every =
    let module Trace = Bft_trace.Trace in
    let module Timeline = Bft_trace.Timeline in
    let trace = Trace.create ~capacity:trace_cap ~sim_events () in
    Printf.printf "cost profile: %s\n" (Bft_sim.Calibration.name cal);
    let pr =
      Microbench.bft_profile ~arg ~res ~ops ~seed ~cal ~trace ~read_only
        ?series_every:(Option.map (fun _ -> series_every) series_out)
        ()
    in
    let r = pr.Microbench.pf_latency in
    dump_trace trace trace_out;
    (match chrome with
    | Some path ->
      write_file path (Bft_trace.Chrome.of_events (Trace.events trace));
      Printf.printf "wrote Chrome trace to %s\n" path
    | None -> ());
    (match (series_out, pr.Microbench.pf_series) with
    | Some path, Some s ->
      write_file path (Bft_trace.Series.jsonl s);
      Printf.printf "wrote %d series samples to %s (%d taken, %d evicted)\n"
        (Bft_trace.Series.length s)
        path
        (Bft_trace.Series.total s)
        (Bft_trace.Series.dropped s)
    | _ -> ());
    let tl = Timeline.of_trace ~skip:Microbench.latency_warmup trace in
    Report.print (Report.breakdown_section tl);
    let dag = Bft_trace.Span.of_events (Trace.events trace) in
    Printf.printf "\ncausal DAG: %s\n" (Bft_trace.Span.summary dag);
    let phase_sum = Bft_util.Stats.mean tl.Timeline.end_to_end in
    Printf.printf
      "microbench mean %8.1f us (+/- %.1f, %d ops); phase sum %8.1f us\n"
      (r.Microbench.mean *. 1e6)
      (r.Microbench.stddev *. 1e6)
      r.Microbench.ops (phase_sum *. 1e6);
    if not (Bft_trace.Span.complete dag) then begin
      List.iter
        (fun (req, reason) ->
          Printf.eprintf "incomplete DAG for request %Ld: %s\n" req reason)
        (Bft_trace.Span.check dag);
      exit 1
    end
  in
  let trace_out_required =
    (* trace keeps its historical --out spelling as an alias and always
       writes the JSONL dump, unlike the other subcommands where the trace
       is opt-in. *)
    let doc = "Write the protocol trace of the run as JSONL to $(docv)." in
    Arg.(
      value
      & opt string "bft_trace.jsonl"
      & info [ "trace-out"; "out" ] ~doc ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run $ arg_size $ res_size $ ops $ seed $ read_only $ sim_events
      $ cost_profile_arg $ trace_out_required $ trace_cap_arg $ chrome
      $ series_out $ series_every)

let profile_cmd =
  let doc =
    "Profile one BFT latency run in virtual time: per-machine, per-category \
     CPU cost breakdown (MAC generation/verification, digests, message \
     encode/decode, execution) in the style of the paper's Table 2, plus \
     crypto operation counts. The per-node category totals sum exactly to \
     the engine's busy time; the command fails if they do not."
  in
  let arg_size =
    Arg.(value & opt int 0 & info [ "arg" ] ~doc:"Argument size in bytes.")
  in
  let res_size =
    Arg.(value & opt int 0 & info [ "res" ] ~doc:"Result size in bytes.")
  in
  let ops = Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Measured operations.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let read_only = Arg.(value & flag & info [ "read-only" ] ~doc:"Read-only op.") in
  let rotating =
    Arg.(
      value & flag
      & info [ "rotating" ]
          ~doc:
            "Run under rotating ordering so the per-owner breakdown shows \
             proposals spread over all replicas (with any null fills and \
             reclaims).")
  in
  let epoch_length =
    Arg.(
      value & opt int 4
      & info [ "epoch-length" ]
          ~doc:"Epoch length (slots per owner) for $(b,--rotating).")
  in
  let run arg res ops seed read_only rotating epoch_length cal trace_out
      trace_cap =
    let module Trace = Bft_trace.Trace in
    let trace =
      match trace_out with
      | Some _ -> Trace.create ~capacity:trace_cap ()
      | None -> Trace.nil
    in
    Printf.printf "cost profile: %s\n" (Bft_sim.Calibration.name cal);
    let config =
      if rotating then
        Bft_core.Config.make ~f:1
          ~ordering:(Bft_core.Config.Rotating { epoch_length })
          ()
      else Bft_core.Config.make ~f:1 ()
    in
    let pr =
      Microbench.bft_profile ~config ~arg ~res ~ops ~seed ~cal ~trace
        ~read_only ()
    in
    let r = pr.Microbench.pf_latency in
    Report.print (Report.profile_section pr.Microbench.pf_profile);
    print_newline ();
    Report.print
      (Report.crypto_section
         ~ops:(Microbench.latency_warmup + r.Microbench.ops)
         pr.Microbench.pf_crypto);
    print_newline ();
    print_endline "ordering owners:";
    Printf.printf "  %-10s %10s %10s %10s\n" "replica" "batches" "null-fill"
      "reclaims";
    List.iter
      (fun o ->
        Printf.printf "  replica%-3d %10d %10d %10d\n" o.Microbench.ow_id
          o.Microbench.ow_batches o.Microbench.ow_null_fill
          o.Microbench.ow_reclaim)
      pr.Microbench.pf_owners;
    Printf.printf "\nlatency: %8.1f us (+/- %.1f, %d ops)\n"
      (r.Microbench.mean *. 1e6)
      (r.Microbench.stddev *. 1e6)
      r.Microbench.ops;
    Option.iter (dump_trace trace) trace_out;
    if Bft_trace.Profile.balanced pr.Microbench.pf_profile then
      print_endline "profile balance: OK (category totals = engine busy time)"
    else begin
      prerr_endline
        "profile balance: FAILED — category totals do not sum to busy time";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const run $ arg_size $ res_size $ ops $ seed $ read_only $ rotating
      $ epoch_length $ cost_profile_arg $ trace_out_arg () $ trace_cap_arg)

(* Shared by andrew and postmark: phase table, CPU profile attribution and
   health summary of an observed file-system run. *)
let print_observed (ob : E_fs.observed) =
  let module Monitor = Bft_trace.Monitor in
  if ob.E_fs.ob_phases <> [] then begin
    print_endline "phases:";
    List.iter
      (fun (name, t) -> Printf.printf "  %-14s %8.2f s\n" name t)
      ob.E_fs.ob_phases
  end;
  print_newline ();
  Report.print (Report.profile_section ob.E_fs.ob_profile);
  Printf.printf "\nhealth: %s\n" (Monitor.summary ob.E_fs.ob_monitor);
  List.iter
    (fun a -> Printf.printf "  alert: %s\n" (Monitor.alert_detail a))
    (Monitor.alerts ob.E_fs.ob_monitor);
  if not (Bft_trace.Profile.balanced ob.E_fs.ob_profile) then begin
    prerr_endline
      "profile balance: FAILED — category totals do not sum to busy time";
    exit 1
  end

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Observed run: also print the per-phase breakdown, the per-machine \
           CPU cost attribution, and the health-monitor summary. The \
           benchmark numbers are identical to an unobserved run.")

let andrew_cmd =
  let doc = "Run the modified Andrew benchmark on one backend." in
  let n = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of tree copies.") in
  let backend =
    Arg.(
      value
      & opt backend_conv Bft_workloads.Nfs_rig.Bfs
      & info [ "backend" ] ~doc:"Backend.")
  in
  let run n backend profile =
    if profile then begin
      let ob = E_fs.observe_andrew ~n backend in
      Printf.printf "Andrew%d on %s: %.1f s elapsed, %d NFS calls\n" n
        (Bft_workloads.Nfs_rig.backend_name backend)
        ob.E_fs.ob_elapsed ob.E_fs.ob_calls;
      print_observed ob
    end
    else begin
      let elapsed, calls = E_fs.run_andrew ~n backend in
      Printf.printf "Andrew%d on %s: %.1f s elapsed, %d NFS calls\n" n
        (Bft_workloads.Nfs_rig.backend_name backend)
        elapsed calls
    end
  in
  Cmd.v (Cmd.info "andrew" ~doc) Term.(const run $ n $ backend $ profile_flag)

let postmark_cmd =
  let doc = "Run the PostMark benchmark on one backend." in
  let files =
    Arg.(value & opt int 1000 & info [ "files" ] ~doc:"Initial file count.")
  in
  let transactions =
    Arg.(value & opt int 5000 & info [ "transactions" ] ~doc:"Transactions.")
  in
  let backend =
    Arg.(
      value
      & opt backend_conv Bft_workloads.Nfs_rig.Bfs
      & info [ "backend" ] ~doc:"Backend.")
  in
  let run files transactions backend profile =
    let line backend elapsed txns =
      Printf.printf "PostMark on %s: %.1f s elapsed, %d transactions (%.0f txn/s)\n"
        (Bft_workloads.Nfs_rig.backend_name backend)
        elapsed txns
        (float_of_int txns /. elapsed)
    in
    if profile then begin
      let ob, txns = E_fs.observe_postmark ~files ~transactions backend in
      line backend ob.E_fs.ob_elapsed txns;
      print_observed ob
    end
    else begin
      let elapsed, txns = E_fs.run_postmark ~files ~transactions backend in
      line backend elapsed txns
    end
  in
  Cmd.v (Cmd.info "postmark" ~doc)
    Term.(const run $ files $ transactions $ backend $ profile_flag)

let chaos_cmd =
  let doc =
    "Deterministic chaos campaigns: seeded fault plans (crashes, restarts, \
     partitions, loss, duplication, runtime Byzantine switches, client \
     bursts) executed against a live cluster, with a safety/liveness \
     invariant check per campaign and greedy shrinking of the first \
     failing plan. Emits one JSON line per campaign; exits non-zero on \
     any violation."
  in
  let module Plan = Bft_chaos.Plan in
  let module Campaign = Bft_chaos.Campaign in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.") in
  let campaigns =
    Arg.(value & opt int 20 & info [ "campaigns" ] ~doc:"Number of campaigns.")
  in
  let plan_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~doc:"Replay one plan from $(docv) instead of generating."
          ~docv:"FILE")
  in
  let horizon =
    Arg.(
      value & opt float 6.0
      & info [ "horizon" ] ~doc:"Virtual seconds of faulted window per campaign.")
  in
  let shrunk_out =
    Arg.(
      value
      & opt string "chaos_shrunk.plan"
      & info [ "shrunk-out" ]
          ~doc:"Where to write the minimal failing plan." ~docv:"FILE")
  in
  let unsafe =
    Arg.(
      value & flag
      & info
          [ "unsafe-no-commit-quorum" ]
          ~doc:
            "Self-test: run the deliberately unsound protocol variant that \
             treats prepared batches as committed, to prove the checker \
             catches (and shrinks) real safety violations.")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Print each campaign's health-monitor summary to stderr (the \
             typed alerts are always part of the JSON line).")
  in
  let rotating =
    Arg.(
      value & flag
      & info [ "rotating" ]
          ~doc:
            "Run every campaign under rotating ordering (epoch length 2) \
             and let the generator aim half its crash events at whichever \
             replica owns the epoch when they fire — the handoff-window \
             stress test for the rotation protocol.")
  in
  let n_replicas = 4 in
  let run seed campaigns plan_file horizon shrunk_out unsafe health rotating
      trace_out trace_cap =
    let module Monitor = Bft_trace.Monitor in
    let ordering =
      if rotating then Bft_core.Config.Rotating { epoch_length = 2 }
      else Bft_core.Config.Single_primary
    in
    let run_plan ~seed plan =
      let o =
        Campaign.run ~ordering ~unsafe_no_commit_quorum:unsafe ~seed ~plan ()
      in
      if health then
        Printf.eprintf "health (seed %d): %s\n" seed
          (Monitor.summary o.Campaign.monitor);
      o
    in
    let report_failure ~campaign ~seed outcome =
      let shrunk, shrunk_outcome =
        Campaign.shrink ~run:(fun p -> run_plan ~seed p) outcome.Campaign.plan
      in
      Printf.eprintf
        "bft_lab chaos: campaign %d (seed %d) violated invariants; shrunk \
         %d-event plan to %d events\n"
        campaign seed
        (List.length outcome.Campaign.plan)
        (List.length shrunk);
      List.iter
        (fun v ->
          Printf.eprintf "  %s: %s\n" v.Campaign.invariant v.Campaign.detail)
        shrunk_outcome.Campaign.violations;
      (try
         let oc = open_out shrunk_out in
         output_string oc (Plan.to_string shrunk);
         close_out oc;
         Printf.eprintf "  minimal plan written to %s (replay with --plan)\n"
           shrunk_out
       with Sys_error msg -> Printf.eprintf "  cannot write %s: %s\n" shrunk_out msg);
      (* Re-run the minimal failing plan with a live trace sink so the
         failure is inspectable event by event; the re-run is deterministic,
         so the traced outcome matches the reported one. *)
      let module Trace = Bft_trace.Trace in
      let trace = Trace.create ~capacity:trace_cap () in
      ignore
        (Campaign.run ~ordering ~unsafe_no_commit_quorum:unsafe ~trace ~seed
           ~plan:shrunk ());
      let trace_path =
        try
          let oc = open_out trace_out in
          output_string oc (Trace.jsonl trace);
          close_out oc;
          Printf.eprintf
            "  protocol trace of the minimal failure written to %s (%d \
             events)\n"
            trace_out (Trace.length trace);
          Some trace_out
        with Sys_error msg ->
          Printf.eprintf "  cannot write %s: %s\n" trace_out msg;
          None
      in
      print_endline (Campaign.jsonl ~campaign ?trace_path shrunk_outcome);
      exit 1
    in
    match plan_file with
    | Some file ->
      let plan = read_plan_file ~n:n_replicas file in
      let outcome = run_plan ~seed plan in
      print_endline (Campaign.jsonl outcome);
      if Campaign.failed outcome then report_failure ~campaign:0 ~seed outcome
    | None ->
      let root = Bft_util.Rng.of_int seed in
      for campaign = 0 to campaigns - 1 do
        let rng = Bft_util.Rng.split root (Printf.sprintf "campaign%d" campaign) in
        let plan = Plan.generate ~rotating ~rng ~n:n_replicas ~f:1 ~horizon () in
        let campaign_seed = Bft_util.Rng.int rng (1 lsl 30) in
        let outcome = run_plan ~seed:campaign_seed plan in
        print_endline (Campaign.jsonl ~campaign outcome);
        if Campaign.failed outcome then
          report_failure ~campaign ~seed:campaign_seed outcome
      done
  in
  let trace_out =
    let doc =
      "Write the protocol trace of the (shrunk) minimal failing plan as \
       JSONL to $(docv); the path is recorded in the failure's JSON line."
    in
    Arg.(
      value
      & opt string "chaos_failure_trace.jsonl"
      & info [ "trace-out" ] ~doc ~docv:"FILE")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ seed $ campaigns $ plan_file $ horizon $ shrunk_out $ unsafe
      $ health $ rotating $ trace_out $ trace_cap_arg)

let txn_cmd =
  let doc =
    "Cross-shard transaction chaos: two-phase-commit coordinators and \
     single-key writers over a sharded deployment, optionally with a live \
     reshard and targeted crashes, audited against the txn.atomic and \
     reshard.no_lost_keys invariants. Emits one JSON line; exits non-zero \
     on any violation (inverted by --expect-violation)."
  in
  let module Sc = Bft_chaos.Shard_campaign in
  let scenario =
    Arg.(
      value
      & opt
          (enum
             [
               ("healthy", Sc.Healthy);
               ("coordinator-crash", Sc.Coordinator_crash);
               ("mid-migration", Sc.Replica_mid_migration);
             ])
          Sc.Healthy
      & info [ "scenario" ]
          ~doc:
            "One of $(b,healthy) (live reshard under clean traffic), \
             $(b,coordinator-crash) (a coordinator dies between PREPARE \
             and COMMIT), $(b,mid-migration) (a donor-group replica \
             crashes during the reshard).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.") in
  let no_recovery =
    Arg.(
      value & flag
      & info [ "no-recovery" ]
          ~doc:
            "Disable client-driven lock recovery: a dead coordinator's \
             locks linger, which the txn.atomic audit must catch.")
  in
  let expect_violation =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:
            "Self-test: exit zero only if the audits DO flag a violation \
             (pair with --no-recovery and --scenario coordinator-crash to \
             prove the checker catches a wedged transaction).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~doc:"Also append the JSON line to $(docv)."
          ~docv:"FILE")
  in
  let run scenario seed no_recovery expect_violation json_out =
    let o = Sc.run ~scenario ~recovery:(not no_recovery) ~seed () in
    let line = Sc.jsonl o in
    print_endline line;
    Option.iter
      (fun file ->
        Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file
          (fun oc -> output_string oc (line ^ "\n")))
      json_out;
    List.iter
      (fun v -> Printf.eprintf "  %s: %s\n" v.Sc.invariant v.Sc.detail)
      o.Sc.violations;
    if expect_violation then begin
      if not (Sc.failed o) then begin
        Printf.eprintf
          "bft_lab txn: expected an invariant violation but the audits \
           passed\n";
        exit 1
      end
    end
    else if Sc.failed o then exit 1
  in
  Cmd.v (Cmd.info "txn" ~doc)
    Term.(
      const run $ scenario $ seed $ no_recovery $ expect_violation $ json_out)

let bench_cmd =
  let doc =
    "Saturation bench suite: 0/0, 4/0, 0/4 micro-ops and the batched \
     throughput curve, reporting virtual-time results (deterministic for a \
     fixed seed; the golden regression surface) and wall-clock simulator \
     throughput (the perf trajectory). Writes the full result as JSON and \
     optionally compares the virtual-time part against a golden file."
  in
  let module Saturation = Bft_workloads.Saturation in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Small iteration counts (CI smoke run).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let groups =
    Arg.(
      value & opt int 4
      & info [ "groups" ]
          ~doc:
            "Upper bound of the scaling sweep: the scaling section runs 1, \
             2, 4, ... groups up to this count.")
  in
  let json_out =
    Arg.(
      value
      & opt string "BENCH_micro.json"
      & info [ "json" ] ~doc:"Write the full (wall-clock included) result here."
          ~docv:"FILE")
  in
  let golden =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden" ]
          ~doc:
            "Compare virtual-time results byte-for-byte against this golden \
             file; exit non-zero on any difference."
          ~docv:"FILE")
  in
  let write_golden =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-golden" ]
          ~doc:"Write the virtual-time results to this golden file."
          ~docv:"FILE")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Run every bench under an always-on health monitor and print \
             the per-bench summaries. Virtual-time results — and so the \
             golden comparison — are byte-identical either way.")
  in
  let run quick seed groups health cal json_out golden write_golden =
    let default_profile =
      String.equal
        (Bft_sim.Calibration.name cal)
        (Bft_sim.Calibration.name Bft_sim.Calibration.default)
    in
    (if (not default_profile) && (golden <> None || write_golden <> None) then begin
       Printf.eprintf
         "bft_lab bench: the golden surface is pinned to the %s profile; \
          --golden/--write-golden cannot be used with --cost-profile %s\n"
         (Bft_sim.Calibration.name Bft_sim.Calibration.default)
         (Bft_sim.Calibration.name cal);
       exit 2
     end);
    let t = Saturation.run ~quick ~seed ~max_groups:groups ~health ~cal () in
    Saturation.print t;
    if health && Saturation.health_alerts t > 0 then begin
      Printf.eprintf
        "bft_lab bench: %d health alert(s) during a healthy bench run\n"
        (Saturation.health_alerts t);
      exit 1
    end;
    write_file json_out (Saturation.to_json t);
    Printf.printf "wrote %s\n" json_out;
    (match write_golden with
    | Some path ->
      write_file path (Saturation.virtual_json t);
      Printf.printf "wrote golden %s\n" path
    | None -> ());
    match golden with
    | None -> ()
    | Some path ->
      let expected = read_file ~exit_code:1 path in
      let actual = Saturation.virtual_json t in
      if String.equal expected actual then
        Printf.printf "golden check: OK (%s)\n" path
      else begin
        Printf.eprintf
          "golden check FAILED: virtual-time results differ from %s\n\
           --- expected ---\n\
           %s--- actual ---\n\
           %s" path expected actual;
        exit 1
      end
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ quick $ seed $ groups $ health $ cost_profile_arg $ json_out
      $ golden $ write_golden)

let monitor_cmd =
  let doc =
    "Live health monitoring: run a seeded, deterministic campaign under the \
     always-on monitor — healthy by default, with a crashed primary \
     ($(b,--crash-primary)), or against a chaos plan file ($(b,--plan)) — \
     print the gauges summary and every typed alert, and optionally write \
     the flight recorder's post-mortem bundle (replayable JSONL: the \
     header's seed and plan pin down the whole run)."
  in
  let module Plan = Bft_chaos.Plan in
  let module Campaign = Bft_chaos.Campaign in
  let module Monitor = Bft_trace.Monitor in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.") in
  let crash_primary =
    Arg.(
      value & flag
      & info [ "crash-primary" ]
          ~doc:
            "Crash replica 0 (the view-0 primary) one virtual second in: \
             the stalled-commit and silent-leader detectors must fire \
             before the 0.25 s view-change timeout recovers the group.")
  in
  let plan_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ]
          ~doc:"Run this chaos plan (overrides $(b,--crash-primary))."
          ~docv:"FILE")
  in
  let bundle_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "bundle-out" ]
          ~doc:"Write the newest post-mortem bundle as JSONL to $(docv)."
          ~docv:"FILE")
  in
  let fail_on_alert =
    Arg.(
      value & flag
      & info [ "fail-on-alert" ]
          ~doc:"Exit non-zero if any alert fired (healthy-run smoke).")
  in
  let require_alert =
    Arg.(
      value & flag
      & info [ "require-alert" ]
          ~doc:"Exit non-zero if no alert fired (detector smoke).")
  in
  let jsonl =
    Arg.(
      value & flag
      & info [ "jsonl" ] ~doc:"Also print the campaign's JSON line (stdout).")
  in
  let run seed crash_primary plan_file bundle_out fail_on_alert require_alert
      jsonl =
    let plan =
      match plan_file with
      | Some file -> read_plan_file ~n:4 file
      | None ->
        if crash_primary then [ { Plan.at = 1.0; action = Plan.Crash 0 } ]
        else []
    in
    let o = Campaign.run ~seed ~plan () in
    Printf.printf
      "campaign seed %d, %d plan event(s): %d/%d ops, final view %d, %.2f s \
       virtual, %d violation(s)\n"
      seed (List.length plan) o.Campaign.ops_completed o.Campaign.ops_total
      o.Campaign.final_view o.Campaign.sim_time
      (List.length o.Campaign.violations);
    List.iter
      (fun v ->
        Printf.printf "violation: %s: %s\n" v.Campaign.invariant
          v.Campaign.detail)
      o.Campaign.violations;
    List.iter
      (fun a -> Printf.printf "alert: %s\n" (Monitor.alert_detail a))
      o.Campaign.alerts;
    Printf.printf "health: %s\n" (Monitor.summary o.Campaign.monitor);
    if jsonl then print_endline (Campaign.jsonl o);
    (match bundle_out with
    | None -> ()
    | Some path -> (
      match Monitor.last_bundle o.Campaign.monitor with
      | Some bundle ->
        write_file path bundle;
        Printf.printf
          "wrote post-mortem bundle to %s (%d bundle(s) dumped during the run)\n"
          path
          (Monitor.bundle_count o.Campaign.monitor)
      | None -> Printf.printf "no post-mortem bundle (no alerts, no violations)\n"));
    if o.Campaign.violations <> [] then exit 1;
    if fail_on_alert && o.Campaign.alerts <> [] then begin
      prerr_endline "bft_lab monitor: alerts fired (--fail-on-alert)";
      exit 1
    end;
    if require_alert && o.Campaign.alerts = [] then begin
      prerr_endline "bft_lab monitor: no alert fired (--require-alert)";
      exit 1
    end
  in
  Cmd.v (Cmd.info "monitor" ~doc)
    Term.(
      const run $ seed $ crash_primary $ plan_file $ bundle_out $ fail_on_alert
      $ require_alert $ jsonl)

let overload_cmd =
  let doc =
    "Overload robustness: drive one cluster with an open-loop square-wave \
     burst (arrivals independent of completions, multiplexed over a stub \
     pool), with admission control shedding excess load as explicit BUSY \
     rejections. Checks the graceful-degradation invariants — every \
     arrival commits or is explicitly rejected, the admission queue stays \
     within its configured bound, replicas never disagree on an executed \
     batch — and exits non-zero if any fails."
  in
  let module Openloop = Bft_workloads.Openloop in
  let module Monitor = Bft_trace.Monitor in
  let module Stats = Bft_util.Stats in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Run seed.") in
  let rate =
    Arg.(
      value & opt float 2000.0
      & info [ "rate" ] ~doc:"Baseline arrival rate (ops per virtual second).")
  in
  let burst =
    Arg.(
      value & opt float 10.0
      & info [ "burst" ]
          ~doc:
            "Burst multiplier: during the on-phase of each period arrivals \
             come at $(b,--rate) times this factor. 1 degenerates to a \
             plain Poisson stream.")
  in
  let period =
    Arg.(
      value & opt float 1.0
      & info [ "period" ] ~doc:"Square-wave period (virtual seconds).")
  in
  let duty =
    Arg.(
      value & opt float 0.2
      & info [ "duty" ] ~doc:"Fraction of each period spent bursting.")
  in
  let duration =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~doc:"Arrival horizon (virtual seconds).")
  in
  let stubs =
    Arg.(
      value & opt int 256
      & info [ "stubs" ]
          ~doc:
            "Client stubs multiplexing the arrival stream (the pool must \
             be deep enough for the burst to actually pile up at the \
             primary, or the pool itself becomes the bottleneck).")
  in
  let queue_limit =
    Arg.(
      value & opt int 16
      & info [ "queue-limit" ]
          ~doc:
            "Replica admission-queue limit (0 disables shedding; with it \
             disabled the run must drain without a single BUSY).")
  in
  let drop_oldest =
    Arg.(
      value & flag
      & info [ "drop-oldest" ]
          ~doc:"Shed the oldest queued request instead of the newest.")
  in
  let retry_budget =
    Arg.(
      value & opt int 8
      & info [ "retry-budget" ]
          ~doc:"Client retries after a BUSY before reporting rejection.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~doc:"Write the run's result JSONL to $(docv)."
          ~docv:"FILE")
  in
  let bundle_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "bundle-out" ]
          ~doc:
            "Write the newest post-mortem bundle as JSONL to $(docv) (only \
             produced if an alert fired)."
          ~docv:"FILE")
  in
  let require_shed =
    Arg.(
      value & flag
      & info [ "require-shed" ]
          ~doc:
            "Exit non-zero if admission control never shed (overload smoke: \
             proves the burst actually exceeded capacity).")
  in
  let run seed rate burst period duty duration stubs queue_limit drop_oldest
      retry_budget cal json_out bundle_out require_shed =
    let process =
      if burst <= 1.0 then Openloop.Poisson { rate }
      else
        Openloop.Square_wave
          { base_rate = rate; burst_rate = rate *. burst; period; duty }
    in
    let config =
      Bft_core.Config.make ~f:1 ~admission_queue_limit:queue_limit
        ~shed_policy:
          (if drop_oldest then Bft_core.Config.Drop_oldest
           else Bft_core.Config.Reject_new)
        ~shed_retry_budget:retry_budget ()
    in
    let r = Openloop.run ~config ~seed ~cal ~stubs ~duration process () in
    Printf.printf "cost profile: %s\n" (Bft_sim.Calibration.name cal);
    Printf.printf "overload seed %d, %.0f ops/s x%.0f burst (duty %.2f): %s\n"
      seed rate burst duty (Openloop.summary r);
    Printf.printf "health: %s\n" (Monitor.summary r.Openloop.ol_monitor);
    List.iter
      (fun a -> Printf.printf "alert: %s\n" (Monitor.alert_detail a))
      (Monitor.alerts r.Openloop.ol_monitor);
    let jsonl =
      let module O = Openloop in
      Json.(
        to_string
          (Obj
             [
               ("schema", Str "bft-lab/overload/v2");
               ("cost_profile", Str (Bft_sim.Calibration.name cal)); ("seed", int seed);
               ("rate", fixed 3 rate); ("burst", fixed 3 burst); ("period", fixed 3 period);
               ("duty", fixed 3 duty); ("duration", fixed 3 duration); ("stubs", int stubs);
               ("queue_limit", int queue_limit); ("offered", int r.O.ol_offered);
               ("completed", int r.O.ol_completed); ("rejected", int r.O.ol_rejected);
               ("unresolved", int r.O.ol_unresolved); ("sheds", int r.O.ol_sheds);
               ("shed_rate", fixed 3 r.O.ol_shed_rate); ("goodput", fixed 3 r.O.ol_goodput);
               ("peak_backlog", int r.O.ol_peak_backlog);
               ("peak_queue", int r.O.ol_peak_queue);
               ("p50_ms", fixed 3 (Stats.p50 r.O.ol_latency *. 1e3));
               ("p99_ms", fixed 3 (Stats.p99 r.O.ol_latency *. 1e3));
               ("retransmissions", int r.O.ol_retransmissions);
               ("safety_violations", int r.O.ol_safety_violations);
               ("alerts", Monitor.alerts_json r.O.ol_monitor);
             ]))
    in
    (match json_out with
    | None -> ()
    | Some path ->
      write_file path (jsonl ^ "\n");
      Printf.printf "wrote %s\n" path);
    (match bundle_out with
    | None -> ()
    | Some path -> (
      match Monitor.last_bundle r.Openloop.ol_monitor with
      | Some bundle ->
        write_file path bundle;
        Printf.printf "wrote post-mortem bundle to %s\n" path
      | None -> Printf.printf "no post-mortem bundle (no alerts)\n"));
    let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bft_lab overload: " ^ m); exit 1) fmt in
    if r.Openloop.ol_safety_violations > 0 then
      fail "%d safety violation(s): replicas disagree on executed batches"
        r.Openloop.ol_safety_violations;
    if r.Openloop.ol_unresolved <> 0 then
      fail
        "silent loss: %d of %d arrivals neither committed nor were rejected"
        r.Openloop.ol_unresolved r.Openloop.ol_offered;
    if queue_limit > 0 && r.Openloop.ol_peak_queue > queue_limit then
      fail "admission queue reached %d, past the configured limit %d"
        r.Openloop.ol_peak_queue queue_limit;
    if queue_limit = 0 && r.Openloop.ol_sheds > 0 then
      fail "%d sheds with admission control disabled" r.Openloop.ol_sheds;
    if require_shed && r.Openloop.ol_sheds = 0 then
      fail "no load was shed (--require-shed): burst never exceeded capacity"
  in
  Cmd.v (Cmd.info "overload" ~doc)
    Term.(
      const run $ seed $ rate $ burst $ period $ duty $ duration $ stubs
      $ queue_limit $ drop_oldest $ retry_budget $ cost_profile_arg $ json_out
      $ bundle_out $ require_shed)

let model_cmd =
  let doc =
    "Analytic performance model: predict per-request CPU and wire occupancy, \
     the saturation knee and its binding resource, and unloaded latency from \
     a cost profile — then compare the predictions against every row of the \
     golden virtual-time bench surface and report relative errors. With \
     $(b,--check), exit non-zero if any row falls outside the tolerance band \
     (the CI gate on the default profile)."
  in
  let module Model = Bft_workloads.Model in
  let module Calibration = Bft_sim.Calibration in
  let golden_file =
    Arg.(
      value
      & opt string "bench/golden_bench_virtual.json"
      & info [ "golden" ]
          ~doc:"Golden virtual-time bench surface to compare against."
          ~docv:"FILE")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit non-zero when any predicted row is outside the tolerance \
             band, or when the golden file was benched under a different \
             cost profile than the one selected.")
  in
  let tolerance =
    Arg.(
      value
      & opt float Model.default_tolerance
      & info [ "tolerance" ]
          ~doc:"Relative-error band for $(b,--check)." ~docv:"FRACTION")
  in
  let run cal golden_file check tolerance =
    let golden =
      try Model.Golden.parse (read_file ~exit_code:2 golden_file)
      with Failure msg ->
        Printf.eprintf "bft_lab: %s: %s\n" golden_file msg;
        exit 2
    in
    if not (String.equal golden.Model.Golden.g_profile (Calibration.name cal))
    then begin
      Printf.eprintf
        "bft_lab model: golden %s was benched under profile %s, not %s — \
         the observed column would compare apples to oranges\n"
        golden_file golden.Model.Golden.g_profile (Calibration.name cal);
      if check then exit 1
    end;
    let report = Model.report ~tolerance ~cal ~golden () in
    print_string (Model.render report);
    print_newline ();
    print_endline (Model.summary ~cal ~arg:0 ~res:0 ());
    print_newline ();
    print_endline (Model.summary ~cal ~arg:4096 ~res:0 ());
    if check then
      if Model.report_ok report then
        Printf.printf "\nmodel check: OK (every row within %.0f%%)\n"
          (tolerance *. 100.0)
      else begin
        Printf.eprintf "\nmodel check FAILED: prediction outside the %.0f%% band\n"
          (tolerance *. 100.0);
        exit 1
      end
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(const run $ cost_profile_arg $ golden_file $ check $ tolerance)

let all_cmd =
  let doc = "Run every figure (the full benchmark suite)." in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const (fun quick ->
          print_sections (E_micro.all ~quick ());
          print_sections (E_fs.all ~quick ());
          print_sections (Ablations.all ~quick ()))
      $ quick_arg)

let cmds =
  [
    figure_cmd "fig2" "Latency vs result size (Figure 2)." E_micro.fig2;
    figure_cmd "fig3" "Latency with f=1 and f=2 (Figure 3)." E_micro.fig3;
    figure_cmd "fig4" "Throughput for 0/0, 0/4, 4/0 (Figure 4)." E_micro.fig4;
    figure_cmd "fig5" "Digest replies optimization (Figure 5)." E_micro.fig5;
    figure_cmd "fig6" "Request batching optimization (Figure 6)." E_micro.fig6;
    figure_cmd "fig7" "Separate request transmission (Figure 7)." E_micro.fig7;
    figure_cmd "tentative" "Tentative execution (Section 4.4 text)."
      E_micro.tentative;
    figure_cmd "piggyback" "Piggybacked commits (Section 4.4 text)."
      E_micro.piggyback;
    figure_cmd "fig8" "Modified Andrew (Figure 8)." E_fs.fig8;
    figure_cmd "fig9" "PostMark (Figure 9)." E_fs.fig9;
    figure_cmd "ablations" "Beyond-the-paper ablations." Ablations.all;
    latency_cmd;
    throughput_cmd;
    bench_cmd;
    model_cmd;
    trace_cmd;
    profile_cmd;
    monitor_cmd;
    overload_cmd;
    andrew_cmd;
    postmark_cmd;
    chaos_cmd;
    txn_cmd;
    all_cmd;
  ]

let () =
  let doc = "Reproduction of 'Byzantine Fault Tolerance Can Be Fast' (DSN'01)." in
  exit (Cmd.eval (Cmd.group (Cmd.info "bft_lab" ~doc) cmds))
