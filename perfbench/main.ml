(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Repeats trials of one workload for about S host seconds (at least
   [min_trials]), checks every trial's outputs, and prints a run header,
   a human-readable table with sample counts, and as its last line one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
   alternates untraced and traced trials and reports the per-layer ones,
   writing the traced trial's spans to perfbench/out/. Exits 1 when an
   output check fails. *)

open Perfbench
module W = Workload
module T = Trial
module R = Report

let min_trials = W.parts

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun p -> p.W.name) W.all));
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      go rest
    | "--trace" :: v :: rest ->
      trace := int_of_string v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match W.find !workload with
  | Some p when !trace = 0 || !trace = 1 -> (p, !seed, !seconds, !trace = 1)
  | _ -> usage ()

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let header (p : W.params) ~seed ~traced ~md5_mb_per_s =
  let fields =
    [
      ("seed", string_of_int seed);
      ("workload", json_string p.name);
      ("clients", string_of_int p.clients);
      ("groups", string_of_int p.groups);
      ("keys", string_of_int p.keys);
      ("read_share", json_number p.read_share);
      ("cross_share", json_number p.cross_share);
      ("arrival_rate", json_number p.rate);
      ("warmup_virt_s", json_number p.warmup);
      ( "window",
        match p.window with
        | W.Checkpoints n -> Printf.sprintf "{\"checkpoints\":%d}" n
        | W.Virtual w -> Printf.sprintf "{\"virtual_s\":%s}" (json_number w) );
      ("crashes", string_of_int p.crashes);
      ("cost_profile", json_string (Bft_sim.Calibration.name W.cost_profile));
      ("ocaml", json_string Sys.ocaml_version);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("traced", if traced then "true" else "false");
      ("host.md5_mb_per_s", json_number md5_mb_per_s);
    ]
  in
  "{\"header\":{"
  ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}}"

(* Run trials until the next one would overrun [seconds] (at least [min]).
   Trial [i] runs input part [part i], traced when [traced i]. Returns
   (part, trial) pairs in run order. *)
let trials p ~seed ~seconds ~min ~part ~traced =
  let t_start = Probe.now_ns () in
  let elapsed () = float_of_int (Probe.now_ns () - t_start) /. 1e9 in
  let rec go i acc =
    let t0 = elapsed () in
    let input = W.generate p ~seed ~part:(part i) in
    let acc = (part i, T.run ~traced:(traced i) p input) :: acc in
    let last = elapsed () -. t0 in
    if i + 1 < min || elapsed () +. last <= seconds then go (i + 1) acc
    else List.rev acc
  in
  go 0 []

let units (traced : T.result list) =
  let t = List.hd traced in
  let d = R.deltas t in
  let op =
    let p = t.params in
    if p.keys = 0 then Bft_core.Service.null_op ~read_only:false ~arg_size:0 ~result_size:0
    else
      Bft_services.Kv_store.op_payload
        (Bft_services.Kv_store.Put ("abcdef1234", String.make W.value_size 'v'))
  in
  let encode_ns, decode_ns = Units.codec_ns op in
  {
    R.md5_ns_per_kb = Units.md5_ns ~bytes:4096 /. 4.0;
    md5_mean_ns = Units.md5_ns ~bytes:(int_of_float (R.mean_digest_bytes t));
    mac_ns = Units.mac_ns ~bytes:(int_of_float (R.mean_mac_bytes d));
    encode_ns;
    decode_ns;
    md5_mb_per_s = Units.md5_mb_per_s ();
  }

let write_spans (p : W.params) (t : T.result) =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s.jsonl" p.name) in
  Probe.write_spans t.probe path;
  path

let print_table title (ms : R.metric list) =
  Printf.printf "%s\n" title;
  List.iter
    (fun (x : R.metric) ->
      Printf.printf "  %-38s %16.4f %-10s n=%d\n" x.name x.value x.unit_ x.samples)
    ms

let () =
  let p, seed, seconds, traced = parse_args () in
  let md5_mb_per_s = Units.md5_mb_per_s () in
  print_endline (header p ~seed ~traced ~md5_mb_per_s);
  let runs, metrics =
    if not traced then begin
      let runs =
        trials p ~seed ~seconds ~min:min_trials
          ~part:(fun i -> i mod W.parts)
          ~traced:(fun _ -> false)
      in
      let all = List.map snd runs in
      (runs, R.end_to_end ~parts:(List.filteri (fun i _ -> i < W.parts) all) all)
    end
    else begin
      (* Pairs of an untraced and a traced trial on the same input part. *)
      let runs =
        trials p ~seed ~seconds ~min:2
          ~part:(fun i -> i / 2 mod W.parts)
          ~traced:(fun i -> i mod 2 = 1)
      in
      let all = List.map snd runs in
      let plain = List.filter (fun t -> not (Probe.traced t.T.probe)) all in
      let traced = List.filter (fun t -> Probe.traced t.T.probe) all in
      let path = write_spans p (List.hd traced) in
      Printf.printf "spans: %s (%d)\n" path (Probe.span_count (List.hd traced).probe);
      (runs, R.per_layer ~plain ~traced (units traced))
    end
  in
  let all = List.map snd runs in
  let errors = List.concat_map (fun t -> t.T.errors) all in
  let reproduced =
    List.for_all
      (fun (part, t) ->
        let first = List.assoc part runs in
        String.equal (T.virtual_key t) (T.virtual_key first))
      runs
  in
  let errors =
    if reproduced then errors
    else "virtual results differ between trials of one input" :: errors
  in
  let attempted = List.fold_left (fun acc t -> acc + t.T.attempted) 0 all in
  let failed = List.fold_left (fun acc t -> acc + t.T.failed) 0 all in
  let correct = errors = [] in
  print_table
    (Printf.sprintf "%s seed=%d trials=%d %s" p.name seed (List.length runs)
       (if traced then "per-layer" else "end-to-end"))
    metrics;
  List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) errors;
  let metric_json (x : R.metric) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string x.name)
      (json_number x.value) (json_string x.unit_)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct (max 1 attempted) failed
    (String.concat "," (List.map metric_json metrics));
  if not correct then exit 1
