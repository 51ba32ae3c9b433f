(* The benchmark's own test: the same seed reproduces every virtual metric
   and layer count byte for byte, a different seed changes the generated
   keys and arrivals, and the output checks reject bad results. Trials run
   on shortened windows, each in a forked child so both runs of a pair
   start from the same process state (the simulator keeps process-wide
   crypto caches). *)

open Perfbench
module W = Workload
module Engine = Bft_sim.Engine
module Kv = Bft_services.Kv_store

let short (p : W.params) =
  let keys = if p.keys > 4096 then 4096 else p.keys in
  if p.crashes = 0 then { p with keys; warmup = 0.05; window = W.Checkpoints 1 }
  else { p with keys; warmup = 0.05; window = W.Virtual 1.5; crashes = 1 }

let workload name =
  match W.find name with Some p -> short p | None -> Alcotest.fail name

(* Every virtual-time figure and deterministic layer count of one traced
   trial, rendered exactly. *)
let fingerprint (p : W.params) input =
  let t = Trial.run ~traced:true p input in
  let ms = Report.end_to_end ~parts:[ t ] [ t ] @ Report.layer_counts t in
  let virtual_ =
    List.filter
      (fun (m : Report.metric) ->
        not (List.mem m.name Report.host_timed))
      ms
  in
  if t.errors <> [] then failwith (String.concat "; " t.errors);
  String.concat "\n"
    (Trial.virtual_key t
    :: List.map (fun (m : Report.metric) -> Printf.sprintf "%s=%h" m.name m.value) virtual_)

let in_child f =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    (try output_string oc ("ok\n" ^ f ())
     with e -> output_string oc ("error\n" ^ Printexc.to_string e));
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let s = In_channel.input_all ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    s

let same_seed_repeats name () =
  let p = workload name in
  let a = in_child (fun () -> fingerprint p (W.generate p ~seed:7 ~part:0)) in
  (* Generating another seed's input first must not matter: the
     deployment sees only the generated input. *)
  let b =
    in_child (fun () ->
        ignore (W.generate p ~seed:8 ~part:0);
        fingerprint p (W.generate p ~seed:7 ~part:0))
  in
  Alcotest.(check string) "trial passes its checks" "ok"
    (List.hd (String.split_on_char '\n' a));
  Alcotest.(check string) "identical virtual metrics and layer counts" a b

let seeds_change_inputs () =
  let p = workload "kv-failover" in
  let a = W.generate p ~seed:1 ~part:0 and a' = W.generate p ~seed:1 ~part:0 and b = W.generate p ~seed:2 ~part:0 in
  Alcotest.(check bool) "same seed, same keys" true (a.keys = a'.keys);
  Alcotest.(check bool) "same seed, same arrivals" true (a.arrivals = a'.arrivals);
  Alcotest.(check bool) "other seed, other keys" true (a.keys <> b.keys);
  Alcotest.(check bool) "other seed, other arrivals" true (a.arrivals <> b.arrivals);
  Alcotest.(check bool) "other part, other keys" true
    (a.keys <> (W.generate p ~seed:1 ~part:1).keys);
  let c = workload "null-batched" in
  Alcotest.(check bool) "other seed, other client start times" true
    ((W.generate c ~seed:1 ~part:0).starts <> (W.generate c ~seed:2 ~part:0).starts)

let get_check () =
  let p = workload "kv-50k" in
  let input = W.generate p ~seed:3 ~part:0 in
  let values = { W.written = Hashtbl.create 4; next_tag = 0 } in
  let ok = function W.Ok_op -> true | _ -> false in
  let key = input.keys.(0) in
  Alcotest.(check bool) "preloaded value" true
    (ok (W.check_get input values ~key_index:0 (Kv.Value (Some input.preload.(0)))));
  let v = W.fresh_value values ~client:0 key in
  Alcotest.(check bool) "written value" true
    (ok (W.check_get input values ~key_index:0 (Kv.Value (Some v))));
  Alcotest.(check bool) "value written to another key" false
    (ok (W.check_get input values ~key_index:1 (Kv.Value (Some v))));
  Alcotest.(check bool) "never-written value" false
    (ok (W.check_get input values ~key_index:0 (Kv.Value (Some "forged"))));
  Alcotest.(check bool) "missing preloaded key" false
    (ok (W.check_get input values ~key_index:0 (Kv.Value None)))

let ledger_checks () =
  let l = W.ledger (Engine.create ()) in
  let probe = Probe.create ~traced:false in
  let finish = W.start l probe ~due:0.0 ~cross:false in
  let _unresolved = W.start l probe ~due:0.0 ~cross:false in
  finish W.Ok_op;
  finish W.Ok_op;
  Alcotest.(check int) "one op left unresolved" 1 l.outstanding;
  Alcotest.(check bool) "double callback reported" true
    (List.exists (fun e -> String.equal e "a completion callback fired twice") l.errors)

let () =
  Alcotest.run "perfbench"
    [
      ( "determinism",
        List.map
          (fun p -> Alcotest.test_case p.W.name `Quick (same_seed_repeats p.W.name))
          W.all );
      ( "inputs",
        [ Alcotest.test_case "seeds change keys and arrivals" `Quick seeds_change_inputs ] );
      ( "checks",
        [
          Alcotest.test_case "get values" `Quick get_check;
          Alcotest.test_case "callbacks" `Quick ledger_checks;
        ] );
    ]
