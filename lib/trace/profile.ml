(* Per-node, per-category CPU cost breakdown.

   This module is generic over category labels so that bft_trace does not
   depend on the simulator: the caller (normally the workload layer) feeds
   it each node's per-category busy-seconds array together with the busy
   total reported by the CPU model. [node_total] folds the array in index
   order — the same fold the CPU model uses to define its busy total — so
   the balance check is exact float equality, not a tolerance. *)

type node = {
  pn_name : string;
  pn_seconds : float array; (* busy seconds by category index *)
  pn_busy : float; (* busy total reported by the cpu model *)
}

type t = { labels : string array; nodes : node list }

let make ~labels nodes =
  let t =
    {
      labels;
      nodes =
        List.map
          (fun (pn_name, pn_seconds, pn_busy) ->
            if Array.length pn_seconds <> Array.length labels then
              invalid_arg "Profile.make: category arity mismatch";
            { pn_name; pn_seconds; pn_busy })
          nodes;
    }
  in
  t

let labels t = t.labels

let nodes t = t.nodes

let node_total n = Array.fold_left ( +. ) 0.0 n.pn_seconds

let balanced_node n = node_total n = n.pn_busy

let balanced t = List.for_all balanced_node t.nodes

let totals t =
  let acc = Array.make (Array.length t.labels) 0.0 in
  List.iter
    (fun n ->
      Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) n.pn_seconds)
    t.nodes;
  acc

let total_busy t = List.fold_left (fun acc n -> acc +. n.pn_busy) 0.0 t.nodes

let share t i =
  let tot = total_busy t in
  if tot <= 0.0 then 0.0 else (totals t).(i) /. tot

let rows t =
  List.map
    (fun n ->
      let category i x = (t.labels.(i) ^ "_us", Bft_util.Json.fixed 3 (x *. 1e6)) in
      Bft_util.Json.(
        Obj
          ((("node", Str n.pn_name) :: Array.to_list (Array.mapi category n.pn_seconds))
          @ [ ("busy_us", fixed 3 (n.pn_busy *. 1e6)); ("balanced", Bool (balanced_node n)) ])))
    t.nodes

let jsonl t =
  String.concat "" (List.map (fun row -> Bft_util.Json.to_string row ^ "\n") (rows t))
