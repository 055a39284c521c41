(* One benchmark episode: generate a workload's inputs from a seed, build
   the default world, drive it to quiescence, and read back what the run
   cost and whether it was correct.

   Everything here goes through public entry points: Service.create with
   no feature knob, create_object, with_bound, invoke, run, metrics,
   engine and network, plus Net.Fault for the fault schedule and
   Workload.Audit for the correctness oracle. *)

open Naming

type kind =
  | Counters  (** stock counter; writes are [add 1], reads are [get] *)
  | Kvmaps of int
      (** stock kvmap preloaded with this many 32-byte entries; writes
          are [put keyNN v] with a fresh 26-byte value *)

type arrival =
  | Closed of { clients : int; actions : int }
      (** each client runs [actions] actions back to back, thinking
          Exp(1.0) virtual seconds after each *)
  | Open of { nodes : int; actions : int; rate : float }
      (** [actions] Poisson arrivals at [rate] per virtual second, handed
          round-robin to [nodes] client nodes *)

type spec = {
  name : string;
  why : string;
  arrival : arrival;
  objects : int;
  kind : kind;
  zipf : float option;  (** skew exponent; [None] is uniform *)
  write_share : float;
  scheme : Scheme.t;
  policy : Replica.Policy.t;
  shards : int;
  servers : int;
  stores : int;
  st : int;  (** stores per object *)
  faults : bool;  (** apply the fault schedule of {!schedule_faults} *)
}

let specs =
  [
    {
      name = "zipf-mixed";
      why =
        "ROADMAP's standard world: 64 clients, 1024 Zipf counters, scheme \
         B, 4 shards; every layer works and hot keys cause real lock \
         refusals";
      arrival = Closed { clients = 64; actions = 100 };
      objects = 1024;
      kind = Counters;
      zipf = Some 0.99;
      write_share = 0.2;
      scheme = Scheme.Independent;
      policy = Replica.Policy.Single_copy_passive;
      shards = 4;
      servers = 4;
      stores = 4;
      st = 2;
      faults = false;
    };
    {
      name = "write-large";
      why =
        "all writes to 1.3 KB kvmaps under Active 2 over 3 stores: \
         copy-back, 2PC, group commit and multicast dominate; one naming \
         round per bind";
      arrival = Closed { clients = 16; actions = 250 };
      objects = 64;
      kind = Kvmaps 40;
      zipf = None;
      write_share = 1.0;
      scheme = Scheme.Independent;
      policy = Replica.Policy.Active 2;
      shards = 1;
      servers = 2;
      stores = 3;
      st = 3;
      faults = false;
    };
    {
      name = "read-cold";
      why =
        "uniform reads of 4096 counters under scheme A: naming reads and \
         cold activations dominate and the commit ships no state";
      arrival = Closed { clients = 32; actions = 250 };
      objects = 4096;
      kind = Counters;
      zipf = None;
      write_share = 0.0;
      scheme = Scheme.Standard;
      policy = Replica.Policy.Single_copy_passive;
      shards = 4;
      servers = 4;
      stores = 4;
      st = 2;
      faults = false;
    };
    {
      name = "faults";
      why =
        "open-loop arrivals through a store crash, a server crash and a \
         store brownout: retry, recovery, reintegration and failover do the \
         work";
      arrival = Open { nodes = 32; actions = 3600; rate = 0.6 };
      objects = 512;
      kind = Counters;
      zipf = Some 0.99;
      write_share = 0.3;
      scheme = Scheme.Independent;
      policy = Replica.Policy.Single_copy_passive;
      shards = 2;
      servers = 4;
      stores = 4;
      st = 2;
      faults = true;
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) specs

(* Shrink a workload for the smoke test: fewer actions and objects, and a
   fault schedule compressed by the same factor. *)
let scale f spec =
  let sc n lo = max lo (int_of_float (Float.round (float_of_int n *. f))) in
  let arrival =
    match spec.arrival with
    | Closed c -> Closed { c with actions = sc c.actions 2 }
    | Open o -> Open { o with actions = sc o.actions 20 }
  in
  { spec with arrival; objects = sc spec.objects 8 }

(* --- inputs --- *)

type inputs = {
  n : int;
  client : int array;  (** client node index of each action *)
  obj : int array;
  write : bool array;
  op : string array;
  key : int array;  (** kvmap key written, or -1 *)
  value : string array;  (** kvmap value written, or "" *)
  pause : float array;
      (** closed loop: think time after the action; open loop: due time
          relative to the start of the timed run *)
}

let clients_of spec =
  match spec.arrival with Closed { clients; _ } -> clients | Open { nodes; _ } -> nodes

let actions_of spec =
  match spec.arrival with
  | Closed { clients; actions } -> clients * actions
  | Open { actions; _ } -> actions

let key_name k = Printf.sprintf "key%02d" k
let pad26 s = s ^ String.make (max 0 (26 - String.length s)) 'x'
let initial_value k = pad26 (Printf.sprintf "init%02d" k)

(* Sampler of object indices. Zipf rank k is object k: objects are placed
   round-robin, so the hottest ones sit on the same stores, servers and
   shards whatever the seed, and the seed only moves the request stream. *)
let object_sampler spec =
  let n = spec.objects in
  match spec.zipf with
  | None -> fun r -> Sim.Rng.int r n
  | Some s ->
      let cdf = Array.make n 0.0 in
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
        cdf.(k) <- !acc
      done;
      let total = !acc in
      fun r ->
        let u = Sim.Rng.float r total in
        let lo = ref 0 and hi = ref (n - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) <= u then lo := mid + 1 else hi := mid
        done;
        !lo

let generate spec ~seed =
  let rng = Sim.Rng.create seed in
  let sample_obj = object_sampler spec in
  let n = actions_of spec in
  let clients = clients_of spec in
  let client = Array.make n 0 and obj = Array.make n 0 in
  let write = Array.make n false and op = Array.make n "get" in
  let key = Array.make n (-1) and value = Array.make n "" in
  let pause = Array.make n 0.0 in
  let entries = match spec.kind with Kvmaps e -> e | Counters -> 0 in
  for i = 0 to n - 1 do
    obj.(i) <- sample_obj rng;
    write.(i) <- Sim.Rng.float rng 1.0 < spec.write_share;
    (if write.(i) then
       match spec.kind with
       | Counters -> op.(i) <- "add 1"
       | Kvmaps _ ->
           key.(i) <- Sim.Rng.int rng entries;
           value.(i) <- pad26 (Printf.sprintf "v%07d" i);
           op.(i) <- Printf.sprintf "put %s %s" (key_name key.(i)) value.(i)
     else
       match spec.kind with
       | Counters -> ()
       | Kvmaps _ -> op.(i) <- "get " ^ key_name (Sim.Rng.int rng entries))
  done;
  (match spec.arrival with
  | Closed { actions; _ } ->
      for i = 0 to n - 1 do
        client.(i) <- i / actions;
        pause.(i) <- Sim.Rng.exponential rng 1.0
      done
  | Open { rate; _ } ->
      (* A Poisson process conditioned on its count: n uniform arrivals over
         the horizon. The horizon is then fixed, so throughput per virtual
         second does not swing with the sampled span. *)
      let horizon = float_of_int n /. rate in
      for i = 0 to n - 1 do
        pause.(i) <- Sim.Rng.float rng horizon
      done;
      Array.sort Float.compare pause;
      for i = 0 to n - 1 do
        client.(i) <- i mod clients
      done);
  { n; client; obj; write; op; key; value; pause }

(* --- the world --- *)

let names prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix (i + 1))
let shard_names spec = "ns" :: List.init (spec.shards - 1) (fun i -> Printf.sprintf "ns%d" (i + 2))

let topology spec =
  {
    Service.gvd_node = "ns";
    gvd_nodes = List.tl (shard_names spec);
    server_nodes = names "s" spec.servers;
    store_nodes = names "t" spec.stores;
    client_nodes = names "c" (clients_of spec);
  }

let placement spec i =
  let pick prefix count k =
    List.init k (fun j -> Printf.sprintf "%s%d" prefix (((i + j) mod count) + 1))
  in
  (pick "s" spec.servers (min 2 spec.servers), pick "t" spec.stores spec.st)

let initial_payload spec =
  match spec.kind with
  | Counters -> None
  | Kvmaps entries ->
      Some
        (String.concat ";"
           (List.init entries (fun k -> key_name k ^ "=" ^ initial_value k)))

(* Build the world and its objects and let the creation settle. This is the
   span [setup_s] times. *)
let build spec ~seed =
  let w = Service.create ~seed (topology spec) in
  let impl = match spec.kind with Counters -> "counter" | Kvmaps _ -> "kvmap" in
  let initial = initial_payload spec in
  let uids =
    Array.init spec.objects (fun i ->
        let sv, st = placement spec i in
        Service.create_object w ~name:(Printf.sprintf "o%d" i) ~impl ?initial ~sv
          ~st ())
  in
  Service.run ~until:1.0 w;
  (w, uids)

(* Store crash, server crash, then a store brownout. The times are written
   for the 6,000 vs horizon of the full open loop and scale with the
   horizon, so the smoke test keeps the same shape. No message loss: see
   README.md for the use-list residue a lossy client link leaves. *)
let schedule_faults spec w ~start =
  let k =
    match spec.arrival with
    | Open { actions; rate; _ } -> float_of_int actions /. rate /. 6000.0
    | Closed _ -> 1.0
  in
  let at t = start +. (t *. k) in
  let net = Service.network w in
  Net.Fault.crash_for net ~at:(at 1000.0) ~duration:(300.0 *. k) "t2";
  Net.Fault.crash_for net ~at:(at 2000.0) ~duration:(200.0 *. k) "s2";
  Net.Fault.brownout_for net ~at:(at 3000.0) ~duration:(1500.0 *. k) ~prob:0.2
    ~lo:5.0 ~hi:15.0 "t3"

(* --- one run --- *)

(* Per-action results, allocated before the world exists so that they stay
   out of the measured heap. Times are virtual. An action is one client
   request: an aborted attempt is retried after [backoff], up to
   [max_attempts] attempts, and only then counts as failed. *)
type record = {
  outcome : Bytes.t;  (** 'c' committed, 'f' failed, '-' not run *)
  attempts : int array;
  started : float array;  (** first call, or due time in an open loop *)
  t_call : float array;  (** call of the last attempt *)
  finished : float array;
  latency : float array;
      (** the committing with_bound call, or from the due time in an open
          loop *)
  ids : Action.Action_id.t array;  (** committing attempt of each write *)
  (* spans of the last attempt, filled only by a traced run *)
  t_body : float array;
  t_invoked : float array;
}

let max_attempts = 20
let backoff = 1.0

let make_record n =
  {
    outcome = Bytes.make n '-';
    attempts = Array.make n 0;
    started = Array.make n 0.0;
    t_call = Array.make n 0.0;
    finished = Array.make n 0.0;
    latency = Array.make n 0.0;
    ids = Array.make n (Action.Action_id.top ~origin:"" ~serial:0);
    t_body = Array.make n nan;
    t_invoked = Array.make n nan;
  }

type run = {
  setup_s : float;  (** CPU seconds to build the world *)
  run_s : float;  (** CPU seconds of the timed run *)
  slices : float array;
      (** CPU seconds of each [slice_events] engine events of it, in order:
          the same events in every rep, so reps compare slice by slice *)
  minor_words : float;  (** allocated during the timed run *)
  live_words : int;  (** heap reachable from the world at the end *)
  events : int;  (** engine events of the timed run *)
  counters : (string * int) list;  (** every world counter at the end *)
  rounds_per_bind : float;  (** mean naming rounds of a bind *)
  batch_members : float;  (** mean members of a group-commit batch *)
  start : float;  (** virtual start of the timed run *)
  violations : string list;
}

let action w spec inputs uids r ~clients ~traced ~start i =
  let eng = Service.engine w in
  let client = clients.(inputs.client.(i)) in
  let body act group =
    if traced then r.t_body.(i) <- Sim.Engine.now eng;
    let reply = Service.invoke w group ~act ~write:inputs.write.(i) inputs.op.(i) in
    if traced then r.t_invoked.(i) <- Sim.Engine.now eng;
    if inputs.write.(i) then r.ids.(i) <- Action.Atomic.id act;
    reply
  in
  r.started.(i) <-
    (match spec.arrival with Open _ -> start +. inputs.pause.(i) | Closed _ -> Sim.Engine.now eng);
  let rec attempt k =
    r.t_call.(i) <- Sim.Engine.now eng;
    let result =
      Service.with_bound w ~client ~scheme:spec.scheme ~policy:spec.policy
        ~uid:uids.(inputs.obj.(i)) body
    in
    match result with
    | Error _ when k < max_attempts ->
        Sim.Engine.sleep eng backoff;
        attempt (k + 1)
    | _ ->
        r.attempts.(i) <- k;
        r.finished.(i) <- Sim.Engine.now eng;
        if Result.is_ok result then begin
          Bytes.set r.outcome i 'c';
          let from = match spec.arrival with Open _ -> r.started.(i) | Closed _ -> r.t_call.(i) in
          r.latency.(i) <- r.finished.(i) -. from
        end
        else Bytes.set r.outcome i 'f'
  in
  attempt 1

let spawn_load w spec inputs uids r ~traced ~start =
  let eng = Service.engine w in
  let clients = Array.of_list (topology spec).Service.client_nodes in
  let act = action w spec inputs uids r ~clients ~traced ~start in
  match spec.arrival with
  | Closed { actions; _ } ->
      Array.iteri (fun c client ->
        Service.spawn_client w client (fun () ->
            for a = 0 to actions - 1 do
              let i = (c * actions) + a in
              act i;
              Sim.Engine.sleep eng inputs.pause.(i)
            done)) clients
  | Open _ ->
      (* One generator fiber, outside every node, hands each action to its
         client node at the due time whatever the system's state. *)
      Sim.Engine.spawn eng ~name:"generator" (fun () ->
          for i = 0 to inputs.n - 1 do
            let due = start +. inputs.pause.(i) in
            Sim.Engine.sleep eng (due -. Sim.Engine.now eng);
            Service.spawn_client w clients.(inputs.client.(i)) (fun () -> act i)
          done)

let parse_kvmap payload =
  if String.equal payload "" then []
  else
    List.map
      (fun pair ->
        match String.index_opt pair '=' with
        | Some j -> (String.sub pair 0 j, String.sub pair (j + 1) (String.length pair - j - 1))
        | None -> (pair, ""))
      (String.split_on_char ';' payload)

(* Committed effects against committed state, per object: the version
   counter equals the number of committed writes; a counter's value equals
   its committed [add 1]s; a kvmap's last committer is a committed put whose
   value is in place, and every key holds its initial value or a value some
   committed put wrote. *)
let accounting w spec inputs uids r =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let writes = Array.make spec.objects 0 in
  let by_id = Hashtbl.create 1024 in
  for i = 0 to inputs.n - 1 do
    if Bytes.get r.outcome i = 'c' && inputs.write.(i) then begin
      writes.(inputs.obj.(i)) <- writes.(inputs.obj.(i)) + 1;
      Hashtbl.replace by_id (Action.Action_id.to_string r.ids.(i)) i
    end
  done;
  let written = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun _ i -> Hashtbl.replace written (inputs.obj.(i), inputs.key.(i), inputs.value.(i)) ())
    by_id;
  let sh = Service.store_host w in
  let stores = (Service.topology w).Service.store_nodes in
  Array.iteri
    (fun o uid ->
      let newest =
        List.fold_left
          (fun best node ->
            match Store.Object_store.read (Action.Store_host.objects sh node) uid with
            | Some s -> (
                match best with
                | Some b when not (Store.Object_state.newer_than s b) -> best
                | _ -> Some s)
            | None -> best)
          None stores
      in
      match newest with
      | None -> add "o%d: no committed state on any store" o
      | Some s -> (
          let version = s.Store.Object_state.version in
          if version.Store.Version.counter <> writes.(o) then
            add "o%d: version %d after %d committed writes" o
              version.Store.Version.counter writes.(o);
          match spec.kind with
          | Counters ->
              if int_of_string_opt s.Store.Object_state.payload <> Some writes.(o) then
                add "o%d: counter %s after %d committed adds" o
                  s.Store.Object_state.payload writes.(o)
          | Kvmaps entries ->
              let map = parse_kvmap s.Store.Object_state.payload in
              if List.length map <> entries then
                add "o%d: %d keys, expected %d" o (List.length map) entries;
              List.iteri
                (fun k (name, v) ->
                  if
                    not
                      (String.equal name (key_name k)
                      && (String.equal v (initial_value k) || Hashtbl.mem written (o, k, v)))
                  then add "o%d: %s=%s was never committed" o name v)
                map;
              if writes.(o) > 0 then
                match Hashtbl.find_opt by_id version.Store.Version.committed_by with
                | Some i
                  when inputs.obj.(i) = o
                       && List.assoc_opt (key_name inputs.key.(i)) map
                          = Some inputs.value.(i) -> ()
                | _ ->
                    add "o%d: last committer %s is not a committed put in place" o
                      version.Store.Version.committed_by))
    uids;
  List.rev !violations

let audit w spec inputs uids r =
  let chaos = Workload.Audit.chaos w in
  let mutual =
    Array.to_list uids
    |> List.filter_map (fun uid ->
           match Workload.Audit.mutual_consistency w uid with
           | Ok () -> None
           | Error why -> Some (Format.asprintf "%a: %s" Store.Uid.pp uid why))
  in
  chaos @ mutual @ accounting w spec inputs uids r

(* The timed run drives the engine this many events at a time, the same
   drain [Service.run] does, timing each slice. *)
let slice_events = 10_000

(* Message loss on the links from the first eight clients to every naming
   shard, for as long as the run lasts. No workload uses it: it reproduces
   the use-list residue described in README.md. *)
let drop_client_naming spec w ~start drop =
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          Net.Fault.link_faults_for (Service.network w) ~at:start ~duration:1e6 ~drop ~src ~dst ())
        (shard_names spec))
    (List.filteri (fun i _ -> i < 8) (topology spec).Service.client_nodes)

let run ?(drop = 0.0) spec inputs r ~seed ~traced =
  Gc.compact ();
  let t0 = Sys.time () in
  let w, uids = build spec ~seed in
  let t1 = Sys.time () in
  let eng = Service.engine w in
  let start = Sim.Engine.now eng in
  if spec.faults then schedule_faults spec w ~start;
  if drop > 0.0 then drop_client_naming spec w ~start drop;
  let events0 = Sim.Engine.processed_events eng in
  spawn_load w spec inputs uids r ~traced ~start;
  let slices = ref [] in
  let rec drive () =
    let before = Sim.Engine.processed_events eng in
    let c0 = Sys.time () in
    Sim.Engine.run ~max_steps:slice_events eng;
    slices := (Sys.time () -. c0) :: !slices;
    if Sim.Engine.processed_events eng - before = slice_events then drive ()
  in
  let words0 = Gc.minor_words () in
  let t2 = Sys.time () in
  drive ();
  let t3 = Sys.time () in
  let words1 = Gc.minor_words () in
  let events = Sim.Engine.processed_events eng - events0 in
  let live_words = Obj.reachable_words (Obj.repr w) in
  let m = Service.metrics w in
  {
    setup_s = t1 -. t0;
    run_s = t3 -. t2;
    slices = Array.of_list (List.rev !slices);
    minor_words = words1 -. words0;
    live_words;
    events;
    counters = Sim.Metrics.counters m;
    rounds_per_bind = Sim.Metrics.mean m "bind.naming_rounds";
    batch_members = Sim.Metrics.mean m "groupcommit.batch_members";
    start;
    violations = audit w spec inputs uids r;
  }
