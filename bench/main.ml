(* The full benchmark harness: regenerates every figure of "Byzantine Fault
   Tolerance Can Be Fast" (DSN'01) and prints each measured table next to
   the paper's anchors, then runs bechamel micro-benchmarks of the hot
   primitives underneath the simulation.

   Environment:
     BFT_BENCH_QUICK=1   shrink every sweep (smoke mode, ~1 minute)
     BFT_BENCH_SKIP_FS=1 skip the (slow) Andrew runs

   Run with: dune exec bench/main.exe *)

module E_micro = Bft_workloads.Experiments_micro
module E_fs = Bft_workloads.Experiments_fs
module Ablations = Bft_workloads.Ablations
module Report = Bft_workloads.Report

let quick = Sys.getenv_opt "BFT_BENCH_QUICK" <> None

let skip_fs = Sys.getenv_opt "BFT_BENCH_SKIP_FS" <> None

let banner title =
  Printf.printf "\n%s\n= %s =\n%s\n" (String.make 72 '=') title
    (String.make 72 '=');
  flush stdout

let timed label f =
  let t0 = Unix.gettimeofday () in
  let sections = f () in
  List.iter Report.print sections;
  Printf.printf "[%s: %.1fs]\n%!" label (Unix.gettimeofday () -. t0);
  sections

let summarize all =
  banner "Anchor summary (paper vs measured)";
  let total = ref 0 and ok = ref 0 in
  List.iter
    (fun (s : Report.section) ->
      List.iter
        (fun (a : Report.anchor) ->
          incr total;
          if a.Report.ok then incr ok
          else
            Printf.printf "  [??] %s — %s: paper %s, measured %s\n" s.Report.id
              a.Report.description a.Report.paper a.Report.measured)
        s.Report.anchors)
    all;
  Printf.printf "anchors holding: %d/%d\n%!" !ok !total

(* --- bechamel micro-benchmarks of the primitives ----------------------- *)

let bechamel_benches () =
  let open Bechamel in
  let md5 name bytes =
    let buf = String.make bytes 'x' in
    Test.make ~name (Staged.stage (fun () -> Bft_crypto.Md5.digest buf))
  in
  (* 64 B is the per-message case: a request or a batch of digests. *)
  let md5_64 = md5 "md5-64B" 64 and md5_4k = md5 "md5-4KB" 4096 in
  let mac_tag =
    Test.make ~name:"umac-style-tag"
      (Staged.stage (fun () ->
           Bft_crypto.Mac.compute ~key:"0123456789abcdef" ~nonce:42L "digest-16-bytes!"))
  in
  let codec_roundtrip =
    let request =
      Bft_core.Message.Request
        {
          Bft_core.Message.client = 1001;
          timestamp = 42L;
          read_only = false;
          full_replies = false;
          replier = 2;
          op = Bft_core.Payload.of_string "some-operation-bytes";
        }
    in
    Test.make ~name:"message-encode-decode"
      (Staged.stage (fun () ->
           let env =
             {
               Bft_core.Message.sender = 0;
               msg = request;
               commits = [];
               auth = { Bft_crypto.Auth.nonce = 0L; entries = [] };
             }
           in
           Bft_core.Message.decode_envelope (Bft_core.Message.encode_envelope env)))
  in
  let event_queue =
    Test.make ~name:"engine-1k-events"
      (Staged.stage (fun () ->
           let e = Bft_sim.Engine.create () in
           for i = 1 to 1000 do
             Bft_sim.Engine.schedule e
               ~delay:(float_of_int (i mod 97) /. 1000.0)
               (fun () -> ())
           done;
           Bft_sim.Engine.run e))
  in
  (* A client retry timer is armed per request and almost always cancelled
     by the reply; this is its unit cost with a realistically full queue. *)
  let timer_start_cancel =
    let e = Bft_sim.Engine.create () in
    for i = 1 to 2000 do
      Bft_sim.Engine.schedule e ~delay:(float_of_int i /. 1000.0) (fun () -> ())
    done;
    Test.make ~name:"timer-start-cancel"
      (Staged.stage (fun () ->
           Bft_sim.Timer.cancel (Bft_sim.Timer.start e ~delay:0.15 (fun () -> ()))))
  in
  let protocol_round =
    Test.make ~name:"protocol-one-op"
      (Staged.stage (fun () ->
           let config = Bft_core.Config.make ~f:1 () in
           let cluster =
             Bft_core.Cluster.create ~config
               ~service:(fun _ -> Bft_core.Service.null ())
               ()
           in
           let client = Bft_core.Cluster.add_client cluster in
           Bft_core.Client.invoke client
             (Bft_core.Service.null_op ~read_only:false ~arg_size:8 ~result_size:8)
             (fun _ -> ());
           Bft_core.Cluster.run ~until:1.0 cluster))
  in
  let tests =
    [
      md5_64;
      md5_4k;
      mac_tag;
      codec_roundtrip;
      event_queue;
      timer_start_cancel;
      protocol_round;
    ]
  in
  banner "bechamel: primitive costs (host machine, not simulated time)";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> Printf.printf "  %-28s %12.1f ns/op\n%!" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests

let () =
  banner
    (Printf.sprintf
       "Reproduction benchmarks: BFT (Castro & Liskov, DSN 2001)%s"
       (if quick then " — QUICK MODE" else ""));
  let sections = ref [] in
  let run label (f : ?quick:bool -> unit -> Report.section list) =
    sections := !sections @ timed label (fun () -> f ~quick ())
  in
  banner "Figure 2: latency with and without BFT";
  run "fig2" E_micro.fig2;
  banner "Figure 3: latency with f=1 and f=2";
  run "fig3" E_micro.fig3;
  banner "Figure 4: throughput for 0/0, 0/4 and 4/0";
  run "fig4" E_micro.fig4;
  banner "Figure 5: digest replies";
  run "fig5" E_micro.fig5;
  banner "Figure 6: request batching";
  run "fig6" E_micro.fig6;
  banner "Figure 7: separate request transmission";
  run "fig7" E_micro.fig7;
  banner "Section 4.4: tentative execution";
  run "tentative" E_micro.tentative;
  banner "Section 4.4: piggybacked commits";
  run "piggyback" E_micro.piggyback;
  if not skip_fs then begin
    banner "Figure 8: modified Andrew";
    run "fig8" E_fs.fig8;
    banner "Figure 9: PostMark";
    run "fig9" E_fs.fig9
  end;
  banner "Ablations beyond the paper";
  run "ablations" Ablations.all;
  banner "Section 4.2: per-phase latency breakdown (traced 0/0 run)";
  let breakdown () =
    let module Microbench = Bft_workloads.Microbench in
    let trace = Bft_trace.Trace.create ~capacity:(1 lsl 20) () in
    let r =
      Microbench.bft_latency ~trace ~arg:0 ~res:0 ~read_only:false ()
    in
    let tl =
      Bft_trace.Timeline.of_trace ~skip:Microbench.latency_warmup trace
    in
    let sum = Bft_util.Stats.mean tl.Bft_trace.Timeline.end_to_end in
    [
      {
        (Report.breakdown_section tl) with
        Report.anchors =
          [
            Report.ratio_anchor
              ~description:"phase breakdown telescopes to end-to-end latency"
              ~paper_ratio:1.0
              ~measured:(sum /. r.Microbench.mean)
              ~tolerance:0.01;
          ];
      };
    ]
  in
  sections := !sections @ timed "trace" (fun () -> breakdown ());
  summarize !sections;
  banner "Saturation suite & perf trajectory (virtual + wall clock)";
  (let module Saturation = Bft_workloads.Saturation in
   let t = Saturation.run ~quick () in
   Saturation.print t;
   let oc = open_out "BENCH_micro.json" in
   output_string oc (Saturation.to_json t);
   close_out oc;
   Printf.printf "wrote BENCH_micro.json\n%!");
  bechamel_benches ()
