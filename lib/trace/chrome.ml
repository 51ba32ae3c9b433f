(* Chrome trace-event export (chrome://tracing, Perfetto legacy JSON).

   One track (tid) per protocol principal: replicas and clients each get a
   thread inside a single process, named from the kinds they emit. Request
   lifetimes and per-batch ordering phases become "X" complete events;
   retransmits, batch executions, view changes and stable checkpoints
   become "i" instants. Only core-layer events are exported — network and
   engine events use a different node-id space (see Trace) and would
   collide with protocol principals.

   Output is deterministic: fixed field order, fixed float formatting
   (microseconds, three decimals), and record order derived only from the
   event list. Equal traces render byte-identically. *)

module Json = Bft_util.Json

let pid = 1

type milestones = {
  mutable ms_preprepare : float; (* nan until seen *)
  mutable ms_prepared : float;
  mutable ms_committed : float;
}

let us t = t *. 1e6

let is_core (e : Trace.event) =
  e.Trace.node >= 0
  &&
  match e.Trace.kind with
  | Trace.Sim_fire | Trace.Net_enqueue | Trace.Net_serialize
  | Trace.Net_deliver | Trace.Net_drop ->
    false
  | _ -> true

let is_client_kind = function
  | Trace.Client_send | Trace.Client_retransmit | Trace.Client_deliver -> true
  | _ -> false

let of_events events =
  let events = List.filter is_core events in
  (* Classify principals so tracks get readable names. *)
  let node_kind : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let node_order = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      let client = is_client_kind e.Trace.kind in
      match Hashtbl.find_opt node_kind e.Trace.node with
      | None ->
        Hashtbl.add node_kind e.Trace.node client;
        node_order := e.Trace.node :: !node_order
      | Some was -> if client && not was then Hashtbl.replace node_kind e.Trace.node true)
    events;
  let nodes = List.sort compare (List.rev !node_order) in
  let records = ref [] in
  let add r = records := r :: !records in
  (* Track metadata, ascending node id. *)
  List.iter
    (fun node ->
      let name =
        if Hashtbl.find node_kind node then Printf.sprintf "client %d" node
        else Printf.sprintf "replica %d" node
      in
      let meta name args =
        add Json.(Obj [ ("ph", Str "M"); ("pid", int pid); ("tid", int node);
                        ("name", Str name); ("args", Obj args) ])
      in
      meta "thread_name" [ ("name", Json.Str name) ];
      meta "thread_sort_index" [ ("sort_index", Json.int node) ])
    nodes;
  let event ~ph ~node ~ts ~timing ~name ~cat ~args =
    add
      Json.(
        Obj
          ([ ("ph", Str ph); ("pid", int pid); ("tid", int node); ("ts", fixed 3 ts) ]
          @ timing
          @ [ ("name", Str name); ("cat", Str cat) ]
          @ if args = [] then [] else [ ("args", Obj args) ]))
  in
  let complete ~node ~name ~cat ~start ~stop ~args =
    let dur = Float.max 0.0 (us stop -. us start) in
    event ~ph:"X" ~node ~ts:(us start) ~timing:[ ("dur", Json.fixed 3 dur) ] ~name ~cat ~args
  in
  let instant ~node ~vtime ~name ~cat ~args =
    event ~ph:"i" ~node ~ts:(us vtime) ~timing:[ ("s", Json.Str "t") ] ~name ~cat ~args
  in
  (* Request lifetime spans on the client track. *)
  let sends : (int64, float * int) Hashtbl.t = Hashtbl.create 64 in
  (* Ordering milestones per (node, view, seq). *)
  let order : (int * int * int, milestones) Hashtbl.t = Hashtbl.create 64 in
  let milestones key =
    match Hashtbl.find_opt order key with
    | Some m -> m
    | None ->
      let m = { ms_preprepare = nan; ms_prepared = nan; ms_committed = nan } in
      Hashtbl.add order key m;
      m
  in
  (* View-change windows per node. *)
  let vc_start : (int, float * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let node = e.Trace.node and vtime = e.Trace.vtime in
      match e.Trace.kind with
      | Trace.Client_send -> Hashtbl.replace sends e.Trace.req_id (vtime, node)
      | Trace.Client_retransmit ->
        instant ~node ~vtime ~name:"retransmit" ~cat:"client"
          ~args:[ ("req", Json.int64 e.Trace.req_id) ]
      | Trace.Client_deliver -> (
        match Hashtbl.find_opt sends e.Trace.req_id with
        | Some (start, snode) when snode = node ->
          complete ~node ~name:(Printf.sprintf "req %Ld" e.Trace.req_id)
            ~cat:"request" ~start ~stop:vtime
            ~args:[ ("retries", Json.Str e.Trace.detail) ]
        | _ ->
          instant ~node ~vtime ~name:"deliver" ~cat:"client"
            ~args:[ ("req", Json.int64 e.Trace.req_id) ])
      | Trace.Preprepare_sent | Trace.Preprepare_accepted ->
        let m = milestones (node, e.Trace.view, e.Trace.seqno) in
        if Float.is_nan m.ms_preprepare then m.ms_preprepare <- vtime
      | Trace.Prepared ->
        let m = milestones (node, e.Trace.view, e.Trace.seqno) in
        if Float.is_nan m.ms_prepared then begin
          m.ms_prepared <- vtime;
          if not (Float.is_nan m.ms_preprepare) then
            complete ~node
              ~name:(Printf.sprintf "prepare v%d/%d" e.Trace.view e.Trace.seqno)
              ~cat:"ordering" ~start:m.ms_preprepare ~stop:vtime ~args:[]
        end
      | Trace.Committed ->
        let m = milestones (node, e.Trace.view, e.Trace.seqno) in
        if Float.is_nan m.ms_committed then begin
          m.ms_committed <- vtime;
          if not (Float.is_nan m.ms_prepared) then
            complete ~node
              ~name:(Printf.sprintf "commit v%d/%d" e.Trace.view e.Trace.seqno)
              ~cat:"ordering" ~start:m.ms_prepared ~stop:vtime ~args:[]
        end
      | Trace.Exec_tentative | Trace.Exec_final ->
        instant ~node ~vtime
          ~name:
            (Printf.sprintf "%s %d"
               (if e.Trace.kind = Trace.Exec_tentative then "exec-tentative"
                else "exec-final")
               e.Trace.seqno)
          ~cat:"exec" ~args:[]
      | Trace.Viewchange_start -> Hashtbl.replace vc_start node (vtime, e.Trace.view)
      | Trace.Viewchange_end -> (
        match Hashtbl.find_opt vc_start node with
        | Some (start, _) ->
          Hashtbl.remove vc_start node;
          complete ~node
            ~name:(Printf.sprintf "view-change v%d" e.Trace.view)
            ~cat:"viewchange" ~start ~stop:vtime ~args:[]
        | None ->
          instant ~node ~vtime
            ~name:(Printf.sprintf "view-change v%d" e.Trace.view)
            ~cat:"viewchange" ~args:[])
      | Trace.Checkpoint_stable ->
        instant ~node ~vtime
          ~name:(Printf.sprintf "checkpoint %d" e.Trace.seqno)
          ~cat:"checkpoint" ~args:[]
      | Trace.Request_recv | Trace.Exec_request | Trace.Reply_sent
      | Trace.Sim_fire | Trace.Net_enqueue | Trace.Net_serialize
      | Trace.Net_deliver | Trace.Net_drop ->
        ())
    events;
  (* The same document [Json.to_string] would write, with one trace event
     per line so large exports stay readable and diffable. *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Json.to_string r))
    (List.rev !records);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
