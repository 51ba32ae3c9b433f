(* The four benchmark workloads: input generation from the seed, the
   deployment each one drives, and the output checks.

   The seed reaches only [generate]. The deployment is always built from
   the fixed [system_seed] and receives nothing but the generated ops and
   arrival times, so the program under test cannot tell which seed (or
   which workload) produced its input. *)

module Rng = Bft_util.Rng
module Engine = Bft_sim.Engine
module Calibration = Bft_sim.Calibration
module Cluster = Bft_core.Cluster
module Client = Bft_core.Client
module Replica = Bft_core.Replica
module Service = Bft_core.Service
module Config = Bft_core.Config
module Payload = Bft_core.Payload
module Fingerprint = Bft_crypto.Fingerprint
module Kv = Bft_services.Kv_store
module Rig = Bft_shard.Rig
module Router = Bft_shard.Router
module Txn = Bft_shard.Txn
module Openloop = Bft_workloads.Openloop

let system_seed = 42

let cost_profile = Calibration.testbed_2001

let client_machines = 5

let value_size = 32

(* A closed-loop window spans whole checkpoint intervals of replica 0 of
   group 0: it opens just after one checkpoint and closes just after the
   [n]-th next one, so every trial carries the same checkpoint work
   whatever the seed (a checkpoint of the 50k-key store costs as much
   host time as a thousand ops). An open-loop window is a fixed span of
   virtual time, followed by a drain of the backlog. *)
type window = Checkpoints of int | Virtual of float

type params = {
  name : string;
  clients : int;  (** closed-loop clients per group, or open-loop stubs *)
  groups : int;
  keys : int;  (** 0: the null service *)
  preload : bool;
  read_share : float;  (** share of [Get]s among single-key ops *)
  cross_share : float;  (** share of two-group transactions *)
  rate : float;  (** open-loop Poisson arrivals per virtual s; 0: closed loop *)
  warmup : float;  (** virtual s before the measured window *)
  window : window;
  crashes : int;
      (** primary crash/restart cycles; a [Virtual] window is cut into
          this many equal cycles, each crashing the current primary
          [crash_lead] into the cycle and restarting it [down_for] later *)
}

let crash_lead = 0.3

let down_for = 1.0

(* Episodes for [virt_outage_ms] in a run without faults. *)
let quiet_episode = 0.02

let all =
  [
    {
      name = "null-batched";
      clients = 24;
      groups = 1;
      keys = 0;
      preload = false;
      read_share = 0.0;
      cross_share = 0.0;
      rate = 0.0;
      warmup = 0.2;
      window = Checkpoints 5;
      crashes = 0;
    };
    {
      name = "kv-50k";
      clients = 12;
      groups = 1;
      keys = 50_000;
      preload = true;
      read_share = 0.4;
      cross_share = 0.0;
      rate = 0.0;
      warmup = 0.05;
      window = Checkpoints 4;
      crashes = 0;
    };
    {
      name = "txn-2g";
      clients = 12;
      groups = 2;
      keys = 4096;
      preload = false;
      read_share = 0.0;
      cross_share = 0.1;
      rate = 0.0;
      warmup = 0.2;
      window = Checkpoints 5;
      crashes = 0;
    };
    {
      name = "kv-failover";
      clients = 64;
      groups = 1;
      keys = 4096;
      preload = true;
      read_share = 0.0;
      cross_share = 0.0;
      rate = 1000.0;
      warmup = 0.2;
      window = Virtual 10.5;
      crashes = 3;
    };
  ]

let virtual_window p = match p.window with Virtual w -> w | Checkpoints _ -> 0.0

let find name = List.find_opt (fun p -> String.equal p.name name) all

(* --- generated input --------------------------------------------------- *)

type input = {
  keys : string array;
  preload : string array;  (** value per key, when preloaded *)
  starts : float array;  (** closed loop: first invoke of each client *)
  streams : Rng.t array;  (** closed loop: per-client op choices *)
  arrivals : (float * int) array;  (** open loop: due time, key index *)
}

let random_chars rng n =
  String.init n (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))

let pad_to n s =
  if String.length s >= n then s else s ^ String.make (n - String.length s) '.'

(* A run draws its trials from [parts] inputs of one seed, so its virtual
   metrics are medians over [parts] independent inputs. *)
let parts = 3

let generate (p : params) ~seed ~part =
  let root = Rng.split (Rng.of_int seed) (Printf.sprintf "part%d" part) in
  let krng = Rng.split root "keys" in
  let keys =
    Array.init p.keys (fun i -> Printf.sprintf "%s%d" (random_chars krng 6) i)
  in
  let preload =
    if p.preload then
      Array.mapi
        (fun i _ ->
          pad_to value_size (Printf.sprintf "p%d:%s" i (random_chars krng 8)))
        keys
    else [||]
  in
  let clients = p.clients * p.groups in
  let srng = Rng.split root "starts" in
  let starts = Array.init clients (fun _ -> Rng.float srng 0.01) in
  let streams =
    Array.init clients (fun i -> Rng.split root (Printf.sprintf "client%d" i))
  in
  let arrivals =
    if p.rate <= 0.0 then [||]
    else begin
      let arng = Rng.split root "arrivals" in
      let process = Openloop.Poisson { rate = p.rate } in
      let horizon = p.warmup +. virtual_window p in
      let rec loop acc t =
        let t' = Openloop.next_arrival arng process ~now:t in
        if t' >= horizon then Array.of_list (List.rev acc)
        else loop ((t', Rng.int arng p.keys) :: acc) t'
      in
      loop [] 0.0
    end
  in
  { keys; preload; starts; streams; arrivals }

(* --- op ledger ----------------------------------------------------------- *)

(* Every op goes through [start], which hands back its one-shot completion
   function. The ledger records each op's due time, completion time and
   verdict; the measured window is known only once the trial has run, so
   {!Trial} classifies the ops afterwards. *)
type verdict = Ok_op | Aborted | Failed of string

type op = {
  due : float;
  cross : bool;
  mutable done_at : float;  (** nan while unresolved *)
  mutable verdict : verdict;
}

type ledger = {
  engine : Engine.t;
  mutable ops : op list;  (** newest first *)
  mutable outstanding : int;
  mutable errors : string list;
}

let ledger engine = { engine; ops = []; outstanding = 0; errors = [] }

let error l msg = if List.length l.errors < 8 then l.errors <- msg :: l.errors

let start l probe ~due ~cross =
  let op = { due; cross; done_at = nan; verdict = Failed "unresolved" } in
  l.ops <- op :: l.ops;
  l.outstanding <- l.outstanding + 1;
  let span = Probe.op_begin probe in
  fun verdict ->
    if not (Float.is_nan op.done_at) then
      error l "a completion callback fired twice"
    else begin
      Probe.op_end probe span;
      l.outstanding <- l.outstanding - 1;
      op.done_at <- Engine.now l.engine;
      op.verdict <- verdict;
      match verdict with Failed why -> error l why | Ok_op | Aborted -> ()
    end

(* --- running deployments -------------------------------------------------- *)

type run = {
  engine : Engine.t;
  clusters : Cluster.t array;
  stores : Kv.store array array;  (** by group, by replica; empty for null *)
  ledger : ledger;
  stop : unit -> unit;  (** issue no new ops *)
  on_checkpoint : (unit -> unit) ref;
  mutable catchups : float list;
      (** virtual s from each restart until the replica caught up *)
}

let config () = Config.make ~f:1 ()

(* The preloaded state, encoded once per deployment: every replica
   restores its own store from it. *)
let preload_snapshot (input : input) =
  lazy
    (let svc = Kv.service () in
     Array.iteri
       (fun k key ->
         ignore
           (svc.Service.execute ~client:0
              ~op:(Kv.op_payload (Kv.Put (key, input.preload.(k))))))
       input.keys;
     svc.Service.snapshot ())

(* The benchmark's own service factory: (preloaded) stores wrapped by the
   probe's host timers. Replica 0 of group 0 also reports each checkpoint
   digest to [on_checkpoint], which places closed-loop window edges. *)
let make_service probe (input : input) snapshot stores ~on_checkpoint ~group i =
  let svc =
    if Array.length stores = 0 then Service.null ()
    else begin
      let store = Kv.create_store () in
      let svc = Kv.service_of_store store in
      if input.preload <> [||] then svc.Service.restore (Lazy.force snapshot);
      stores.(group).(i) <- store;
      svc
    end
  in
  let svc =
    if group = 0 && i = 0 then
      {
        svc with
        Service.state_digest =
          (fun () ->
            let d = svc.Service.state_digest () in
            !on_checkpoint ();
            d);
      }
    else svc
  in
  Probe.wrap_service probe svc

(* Value bookkeeping for the Get check: each Put value is unique, so the
   value alone names the key it was written to. *)
type values = { written : (string, string) Hashtbl.t; mutable next_tag : int }

let fresh_value values ~client key =
  values.next_tag <- values.next_tag + 1;
  let v = pad_to value_size (Printf.sprintf "w%d.%d." client values.next_tag) in
  Hashtbl.replace values.written v key;
  v

let check_get (input : input) values ~key_index result =
  let key = input.keys.(key_index) in
  match result with
  | Kv.Value None when input.preload = [||] -> Ok_op
  | Kv.Value (Some v)
    when input.preload <> [||] && String.equal v input.preload.(key_index) ->
    Ok_op
  | Kv.Value (Some v) when Hashtbl.find_opt values.written v = Some key -> Ok_op
  | Kv.Value _ -> Failed (Printf.sprintf "Get %s returned a value never written" key)
  | _ -> Failed (Printf.sprintf "Get %s: unexpected result" key)

let stored = function
  | Kv.Stored -> Ok_op
  | Kv.Error e -> Failed ("Put failed: " ^ e)
  | _ -> Failed "Put: unexpected result"

(* Closed loop over single clusters: null-batched and kv-50k. *)
let closed_single (p : params) probe (input : input) =
  let on_checkpoint = ref ignore in
  let stores =
    if p.keys = 0 then [||] else [| Array.make 4 (Kv.create_store ()) |]
  in
  let snapshot = preload_snapshot input in
  let cluster =
    Cluster.create ~cal:cost_profile ~seed:system_seed ~client_machines
      ~config:(config ())
      ~service:(fun i -> make_service probe input snapshot stores ~on_checkpoint ~group:0 i)
      ()
  in
  let engine = Cluster.engine cluster in
  let l = ledger engine in
  let values = { written = Hashtbl.create 1024; next_tag = 0 } in
  let stopped = ref false in
  let null_op = Service.null_op ~read_only:false ~arg_size:0 ~result_size:0 in
  Array.iteri
    (fun c start_at ->
      let client = Cluster.add_client cluster in
      let rng = input.streams.(c) in
      let rec next () =
        if not !stopped then begin
          let due = Engine.now engine in
          let finish = start l probe ~due ~cross:false in
          if p.keys = 0 then
            Client.invoke client null_op (fun o ->
                finish
                  (if o.Client.rejected then Failed "rejected"
                   else if Payload.size o.Client.result <> 0 then
                     Failed "null op returned a non-empty result"
                   else Ok_op);
                next ())
          else begin
            let k = Rng.int rng p.keys in
            if Rng.float rng 1.0 < p.read_share then
              Client.invoke client ~read_only:true
                (Kv.op_payload (Kv.Get input.keys.(k)))
                (fun o ->
                  finish
                    (check_get input values ~key_index:k
                       (Kv.result_of_payload o.Client.result));
                  next ())
            else begin
              let v = fresh_value values ~client:c input.keys.(k) in
              Client.invoke client
                (Kv.op_payload (Kv.Put (input.keys.(k), v)))
                (fun o ->
                  finish (stored (Kv.result_of_payload o.Client.result));
                  next ())
            end
          end
        end
      in
      Engine.schedule_at engine start_at next)
    input.starts;
  {
    engine;
    clusters = [| cluster |];
    stores;
    ledger = l;
    stop = (fun () -> stopped := true);
    on_checkpoint;
    catchups = [];
  }

(* Closed loop over two groups: single-key puts through the 2PC-aware
   handle, plus cross-group two-key transactions. *)
let closed_txn (p : params) probe (input : input) =
  let on_checkpoint = ref ignore in
  let n = 4 in
  let stores = Array.init p.groups (fun _ -> Array.make n (Kv.create_store ())) in
  let snapshot = preload_snapshot input in
  let rig =
    Rig.create ~cal:cost_profile ~seed:system_seed ~client_machines
      ~groups:p.groups ~config:(config ())
      ~service:(fun ~group i -> make_service probe input snapshot stores ~on_checkpoint ~group i)
      ()
  in
  let engine = Rig.engine rig in
  let router = Rig.router rig in
  let l = ledger engine in
  let values = { written = Hashtbl.create 1024; next_tag = 0 } in
  let stopped = ref false in
  Array.iteri
    (fun c start_at ->
      let handle = Txn.create rig in
      let rng = input.streams.(c) in
      let rec next () =
        if not !stopped then begin
          let due = Engine.now engine in
          let k1 = Rng.int rng p.keys in
          if Rng.float rng 1.0 < p.cross_share then begin
            let g1 = Router.group_of_key router input.keys.(k1) in
            let rec partner () =
              let k2 = Rng.int rng p.keys in
              if k2 <> k1 && Router.group_of_key router input.keys.(k2) <> g1
              then k2
              else partner ()
            in
            let k2 = partner () in
            let put k = Kv.Put (input.keys.(k), fresh_value values ~client:c input.keys.(k)) in
            let finish = start l probe ~due ~cross:true in
            Txn.exec handle [ put k1; put k2 ] (fun outcome ->
                finish (match outcome with Txn.Committed -> Ok_op | Txn.Aborted _ -> Aborted);
                next ())
          end
          else begin
            let v = fresh_value values ~client:c input.keys.(k1) in
            let finish = start l probe ~due ~cross:false in
            Txn.invoke handle (Kv.Put (input.keys.(k1), v)) (fun r ->
                finish (stored r);
                next ())
          end
        end
      in
      Engine.schedule_at engine start_at next)
    input.starts;
  {
    engine;
    clusters = Rig.clusters rig;
    stores;
    ledger = l;
    stop = (fun () -> stopped := true);
    on_checkpoint;
    catchups = [];
  }

(* Open loop: pre-generated Poisson arrivals over a pool of client stubs;
   an arrival waits in the backlog until a stub is free, with its latency
   clock already running. Each crash cycle fails the current primary and
   restarts it [down_for] later, after which it catches up. *)
let open_failover (p : params) probe (input : input) ~backlog_peak =
  let on_checkpoint = ref ignore in
  let stores = [| Array.make 4 (Kv.create_store ()) |] in
  let snapshot = preload_snapshot input in
  let cluster =
    Cluster.create ~cal:cost_profile ~seed:system_seed ~client_machines
      ~config:(config ())
      ~service:(fun i -> make_service probe input snapshot stores ~on_checkpoint ~group:0 i)
      ()
  in
  let engine = Cluster.engine cluster in
  let l = ledger engine in
  let values = { written = Hashtbl.create 1024; next_tag = 0 } in
  let free = Queue.create () in
  for _ = 1 to p.clients do
    Queue.add (Cluster.add_client cluster) free
  done;
  let backlog = Queue.create () in
  let stopped = ref false in
  let r =
    {
      engine;
      clusters = [| cluster |];
      stores;
      ledger = l;
      stop = (fun () -> stopped := true);
      on_checkpoint;
      catchups = [];
    }
  in
  (* The restarted replica is caught up once it has executed everything
     the group had executed when it came back. *)
  let catching_up = ref None in
  let note_catchup () =
    match !catching_up with
    | Some (victim, target, since)
      when Replica.last_executed (Cluster.replica cluster victim) >= target ->
      r.catchups <- (Engine.now engine -. since) :: r.catchups;
      catching_up := None
    | _ -> ()
  in
  let rec pump () =
    if (not (Queue.is_empty free)) && not (Queue.is_empty backlog) then begin
      let stub = Queue.pop free in
      let k, finish = Queue.pop backlog in
      let v = fresh_value values ~client:(Client.id stub) input.keys.(k) in
      Client.invoke stub (Kv.op_payload (Kv.Put (input.keys.(k), v))) (fun o ->
          finish (stored (Kv.result_of_payload o.Client.result));
          note_catchup ();
          Queue.add stub free;
          pump ());
      pump ()
    end
  in
  Array.iter
    (fun (at, k) ->
      Engine.schedule_at engine at (fun () ->
          if not !stopped then begin
            Queue.add (k, start l probe ~due:at ~cross:false) backlog;
            backlog_peak := max !backlog_peak (Queue.length backlog);
            pump ()
          end))
    input.arrivals;
  let cycle = virtual_window p /. float_of_int (max 1 p.crashes) in
  for c = 0 to p.crashes - 1 do
    let down_at = p.warmup +. (float_of_int c *. cycle) +. crash_lead in
    let victim = ref 0 in
    Engine.schedule_at engine down_at (fun () ->
        let view =
          Array.fold_left (fun acc x -> max acc (Replica.view x)) 0
            (Cluster.replicas cluster)
        in
        victim := view mod Array.length (Cluster.replicas cluster);
        Cluster.crash_replica cluster !victim);
    Engine.schedule_at engine (down_at +. down_for) (fun () ->
        Cluster.restart_replica cluster !victim;
        let target =
          Array.fold_left
            (fun acc x -> max acc (Replica.last_executed x))
            0 (Cluster.replicas cluster)
        in
        catching_up := Some (!victim, target, Engine.now engine))
  done;
  r

let build (p : params) probe input ~backlog_peak =
  if p.rate > 0.0 then open_failover p probe input ~backlog_peak
  else if p.groups > 1 then closed_txn p probe input
  else closed_single p probe input

(* --- output checks ------------------------------------------------------- *)

(* Correct replicas of each group agree: every one reached the group's
   newest stable checkpoint with the same digest, and executed the same
   batch at every sequence number two of them both executed. *)
let check_agreement r =
  Array.iteri
    (fun g cluster ->
      let reps = Array.of_list (Cluster.correct_replicas cluster) in
      let newest =
        Array.fold_left (fun acc x -> max acc (Replica.last_stable x)) 0 reps
      in
      let reference = ref None in
      Array.iter
        (fun x ->
          if Replica.last_stable x <> newest then
            error r.ledger
              (Printf.sprintf "group %d replica %d stable at %d, group at %d" g
                 (Replica.id x) (Replica.last_stable x) newest)
          else
            match !reference with
            | None -> reference := Some (Replica.stable_digest x)
            | Some d ->
              if not (Fingerprint.equal d (Replica.stable_digest x)) then
                error r.ledger
                  (Printf.sprintf "group %d: stable checkpoint digests differ" g))
        reps;
      let seen : (int, Fingerprint.t) Hashtbl.t = Hashtbl.create 4096 in
      Array.iter
        (fun x ->
          List.iter
            (fun (seq, d) ->
              match Hashtbl.find_opt seen seq with
              | None -> Hashtbl.replace seen seq d
              | Some d' ->
                if not (Fingerprint.equal d d') then
                  error r.ledger
                    (Printf.sprintf "group %d: replicas executed different batches at %d" g seq))
            (Replica.executed_digests x))
        reps)
    r.clusters

let check_locks r =
  Array.iter
    (Array.iter (fun store ->
         if Kv.store_locks store <> [] || Kv.store_prepared_txns store <> [] then
           error r.ledger "a key is still locked after the run drained"))
    r.stores

(* Errors found by the callbacks and the end-of-run checks. *)
let finish_checks r =
  if r.ledger.outstanding > 0 then
    error r.ledger (Printf.sprintf "%d ops never completed" r.ledger.outstanding);
  check_agreement r;
  check_locks r;
  List.rev r.ledger.errors
