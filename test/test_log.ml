(* Tests for the replica log: watermarks, certificates, truncation. *)

module Log = Bft_core.Log
module Message = Bft_core.Message
module Fingerprint = Bft_crypto.Fingerprint

let check = Alcotest.check

let d1 = Fingerprint.of_string "one"

let d2 = Fingerprint.of_string "two"

let fresh_slot ?(seq = 1) ?(view = 0) ?(digest = d1) log =
  let slot = Log.get log seq in
  slot.Log.pre_prepare <- Some (view, [ Message.Null_entry ]);
  slot.Log.pp_digest <- Some digest;
  slot

let test_watermarks () =
  let log = Log.create ~low:0 ~window:16 () in
  check Alcotest.int "low" 0 (Log.low_watermark log);
  check Alcotest.int "high" 16 (Log.high_watermark log);
  check Alcotest.bool "0 out" false (Log.in_window log 0);
  check Alcotest.bool "1 in" true (Log.in_window log 1);
  check Alcotest.bool "16 in" true (Log.in_window log 16);
  check Alcotest.bool "17 out" false (Log.in_window log 17)

let test_get_out_of_window () =
  let log = Log.create ~low:10 ~window:4 () in
  Alcotest.check_raises "below" (Invalid_argument "Log.get: seq 10 outside (10, 14]")
    (fun () -> ignore (Log.get log 10));
  Alcotest.check_raises "above" (Invalid_argument "Log.get: seq 15 outside (10, 14]")
    (fun () -> ignore (Log.get log 15))

let test_find_vs_get () =
  let log = Log.create ~low:0 ~window:8 () in
  check Alcotest.bool "absent" true (Log.find log 3 = None);
  let slot = Log.get log 3 in
  check Alcotest.bool "same slot" true (Log.find log 3 = Some slot)

let test_prepared_predicate () =
  let log = Log.create ~low:0 ~window:8 () in
  let slot = fresh_slot log in
  check Alcotest.bool "not yet" false (Log.is_prepared slot ~f:1 0);
  Log.add_prepare slot 1 0 d1;
  check Alcotest.bool "one prepare" false (Log.is_prepared slot ~f:1 0);
  Log.add_prepare slot 2 0 d1;
  check Alcotest.bool "2f prepares" true (Log.is_prepared slot ~f:1 0);
  check Alcotest.bool "wrong view" false (Log.is_prepared slot ~f:1 1)

let test_prepared_needs_matching_digest () =
  let log = Log.create ~low:0 ~window:8 () in
  let slot = fresh_slot log in
  Log.add_prepare slot 1 0 d2;
  Log.add_prepare slot 2 0 d2;
  check Alcotest.bool "mismatched digests don't count" false
    (Log.is_prepared slot ~f:1 0)

let test_prepared_counts_distinct_replicas () =
  let log = Log.create ~low:0 ~window:8 () in
  let slot = fresh_slot log in
  Log.add_prepare slot 1 0 d1;
  Log.add_prepare slot 1 0 d1;
  check Alcotest.bool "duplicate replica counted once" false
    (Log.is_prepared slot ~f:1 0)

let test_prepared_blocked_by_missing_bodies () =
  let log = Log.create ~low:0 ~window:8 () in
  let slot = fresh_slot log in
  slot.Log.missing_bodies <- [ d2 ];
  Log.add_prepare slot 1 0 d1;
  Log.add_prepare slot 2 0 d1;
  check Alcotest.bool "missing body blocks" false (Log.is_prepared slot ~f:1 0);
  slot.Log.missing_bodies <- [];
  check Alcotest.bool "unblocked" true (Log.is_prepared slot ~f:1 0)

let test_committed_predicate () =
  let log = Log.create ~low:0 ~window:8 () in
  let slot = fresh_slot log in
  Log.add_prepare slot 1 0 d1;
  Log.add_prepare slot 2 0 d1;
  Log.add_commit slot 0 0 d1;
  Log.add_commit slot 1 0 d1;
  check Alcotest.bool "2 commits" false (Log.is_committed slot ~f:1 0);
  Log.add_commit slot 2 0 d1;
  check Alcotest.bool "2f+1 commits" true (Log.is_committed slot ~f:1 0)

let test_committed_without_local_prepares () =
  (* A commit certificate alone suffices (it proves a quorum prepared),
     but only with the batch body present. *)
  let log = Log.create ~low:0 ~window:8 () in
  let slot = fresh_slot log in
  Log.add_commit slot 0 0 d1;
  Log.add_commit slot 1 0 d1;
  Log.add_commit slot 2 0 d1;
  check Alcotest.bool "commit cert suffices" true (Log.is_committed slot ~f:1 0);
  slot.Log.missing_bodies <- [ d2 ];
  check Alcotest.bool "missing body blocks" false (Log.is_committed slot ~f:1 0);
  (* without the pre-prepare there is nothing to execute *)
  let bare = Log.get log 2 in
  Log.add_commit bare 0 0 d1;
  Log.add_commit bare 1 0 d1;
  Log.add_commit bare 2 0 d1;
  check Alcotest.bool "no pre-prepare" false (Log.is_committed bare ~f:1 0)

let test_later_view_wins () =
  let log = Log.create ~low:0 ~window:8 () in
  let slot = fresh_slot log in
  Log.add_prepare slot 1 1 d2;
  (* an older-view prepare must not overwrite the newer one *)
  Log.add_prepare slot 1 0 d1;
  check Alcotest.int "old view not counted" 0 (Log.prepare_count slot 0 d1);
  check Alcotest.int "new view kept" 1 (Log.prepare_count slot 1 d2)

let test_truncate () =
  let log = Log.create ~low:0 ~window:8 () in
  for seq = 1 to 8 do
    ignore (Log.get log seq)
  done;
  Log.truncate log ~new_low:4;
  check Alcotest.int "low moved" 4 (Log.low_watermark log);
  check Alcotest.bool "old slot gone" true (Log.find log 3 = None);
  check Alcotest.bool "kept" true (Log.find log 5 <> None);
  check Alcotest.bool "window extends" true (Log.in_window log 12);
  (* truncating backwards is a no-op *)
  Log.truncate log ~new_low:2;
  check Alcotest.int "no backward move" 4 (Log.low_watermark log)

let test_iter_sorted () =
  let log = Log.create ~low:0 ~window:16 () in
  List.iter (fun s -> ignore (Log.get log s)) [ 9; 2; 5 ];
  let seen = ref [] in
  Log.iter log (fun slot -> seen := slot.Log.seq :: !seen);
  check (Alcotest.list Alcotest.int) "ascending" [ 2; 5; 9 ] (List.rev !seen)

(* [iter] looks each seq up when it reaches it: a slot created ahead of
   the walk is visited, one truncated before the walk reaches it is not. *)
let test_iter_during_walk () =
  let log = Log.create ~low:0 ~window:8 () in
  List.iter (fun s -> ignore (Log.get log s)) [ 1; 2; 3 ];
  let seen = ref [] in
  Log.iter log (fun slot ->
      seen := slot.Log.seq :: !seen;
      if slot.Log.seq = 1 then ignore (Log.get log 6);
      if slot.Log.seq = 2 then Log.truncate log ~new_low:3);
  check (Alcotest.list Alcotest.int) "created seen, truncated skipped" [ 1; 2; 6 ]
    (List.rev !seen)

let test_awaiting () =
  let log = Log.create ~low:0 ~window:8 () in
  let visits () =
    let seen = ref [] in
    Log.iter_awaiting log (fun slot -> seen := slot.Log.seq :: !seen);
    List.rev !seen
  in
  let a = Log.get log 2 and b = Log.get log 5 in
  Log.set_missing log a [ d1 ];
  Log.set_missing log b [ d1; d2 ];
  Log.set_missing log b [ d2 ];
  check Alcotest.int "two awaiting" 2 (Log.awaiting log);
  check (Alcotest.list Alcotest.int) "awaiting slots" [ 2; 5 ] (visits ());
  Log.set_missing log a [];
  check (Alcotest.list Alcotest.int) "resolved slot dropped" [ 5 ] (visits ());
  Log.truncate log ~new_low:6;
  check Alcotest.int "truncation forgets awaiting slots" 0 (Log.awaiting log);
  Log.set_missing log b [ d1 ];
  check Alcotest.int "a truncated slot does not count" 0 (Log.awaiting log)

(* The ring against a [Map] model, over random get/find/truncate/
   set_missing sequences on a small window, so seqs wrap past L many times
   and some truncations jump beyond the high watermark. Each created slot
   is stamped (in [proposer]) so the model can tell it from a fresh one. *)
module Int_map = Map.Make (Int)

let log_model_prop =
  QCheck.Test.make ~name:"ring log matches a map model" ~count:300
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_bound 80) (pair (int_bound 4) (int_bound 20))))
    (fun (window, ops) ->
      let log = Log.create ~low:0 ~window () in
      let low = ref 0 and model = ref Int_map.empty and stamp = ref 0 in
      let fail msg = QCheck.Test.fail_report msg in
      let in_window seq = seq > !low && seq <= !low + window in
      let same_slot seq = function
        | None -> not (Int_map.mem seq !model)
        | Some slot -> (
          match Int_map.find_opt seq !model with
          | Some (token, _) -> slot.Log.seq = seq && slot.Log.proposer = token
          | None -> false)
      in
      List.iter
        (fun (kind, arg) ->
          (* seqs and new lows relative to the low watermark: below, inside
             and beyond the window *)
          let seq = !low + arg - 2 in
          (match kind with
          | 0 -> (
            match Log.get log seq with
            | slot ->
              if not (in_window seq) then fail "get accepted an out-of-window seq";
              (match Int_map.find_opt seq !model with
              | Some (token, _) ->
                if slot.Log.proposer <> token then fail "get returned another slot"
              | None ->
                if slot.Log.proposer <> -1 then fail "get reused a stale slot";
                incr stamp;
                slot.Log.proposer <- !stamp;
                model := Int_map.add seq (!stamp, false) !model)
            | exception Invalid_argument _ ->
              if in_window seq then fail "get rejected an in-window seq")
          | 1 -> if not (same_slot seq (Log.find log seq)) then fail "find differs"
          | 2 ->
            Log.truncate log ~new_low:seq;
            if seq > !low then begin
              low := seq;
              model := Int_map.filter (fun s _ -> s > seq) !model
            end
          | _ -> (
            match (Log.find log seq, Int_map.find_opt seq !model) with
            | Some slot, Some (token, missing) ->
              Log.set_missing log slot (if missing then [] else [ d1 ]);
              model := Int_map.add seq (token, not missing) !model
            | _ -> ()));
          if Log.low_watermark log <> !low then fail "low watermark differs";
          let walked = ref [] in
          Log.iter log (fun slot -> walked := (slot.Log.seq, slot.Log.proposer) :: !walked);
          if List.rev !walked <> List.map (fun (s, (tok, _)) -> (s, tok)) (Int_map.bindings !model)
          then fail "iter differs (not ascending or wrong slots)";
          let awaiting = Int_map.filter (fun _ (_, m) -> m) !model in
          if Log.awaiting log <> Int_map.cardinal awaiting then fail "awaiting count differs";
          let visited = ref [] in
          Log.iter_awaiting log (fun slot -> visited := slot.Log.seq :: !visited);
          if List.rev !visited <> List.map fst (Int_map.bindings awaiting) then
            fail "iter_awaiting differs")
        ops;
      true)

let test_f2_quorums () =
  let log = Log.create ~low:0 ~window:8 () in
  let slot = fresh_slot log in
  for r = 1 to 3 do
    Log.add_prepare slot r 0 d1
  done;
  check Alcotest.bool "3 prepares not enough at f=2" false
    (Log.is_prepared slot ~f:2 0);
  Log.add_prepare slot 4 0 d1;
  check Alcotest.bool "4 prepares enough at f=2" true (Log.is_prepared slot ~f:2 0)

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "log"
    [
      ( "log",
        [
          Alcotest.test_case "watermarks" `Quick test_watermarks;
          Alcotest.test_case "get out of window" `Quick test_get_out_of_window;
          Alcotest.test_case "find vs get" `Quick test_find_vs_get;
          Alcotest.test_case "prepared predicate" `Quick test_prepared_predicate;
          Alcotest.test_case "prepared digest match" `Quick
            test_prepared_needs_matching_digest;
          Alcotest.test_case "distinct replicas" `Quick
            test_prepared_counts_distinct_replicas;
          Alcotest.test_case "missing bodies block" `Quick
            test_prepared_blocked_by_missing_bodies;
          Alcotest.test_case "committed predicate" `Quick test_committed_predicate;
          Alcotest.test_case "committed without local prepares" `Quick
            test_committed_without_local_prepares;
          Alcotest.test_case "later view wins" `Quick test_later_view_wins;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "iter sorted" `Quick test_iter_sorted;
          Alcotest.test_case "iter during the walk" `Quick test_iter_during_walk;
          Alcotest.test_case "awaiting bodies" `Quick test_awaiting;
          q log_model_prop;
          Alcotest.test_case "f=2 quorums" `Quick test_f2_quorums;
        ] );
    ]
