(* Layer probes: each drives one layer's public API for a fixed number of
   operations in a world of its own, and counts the work the layers beneath
   it did there. A layer's self cost is its CPU time minus that lower-layer
   work priced at the lower layers' own self costs.

   Costs are CPU nanoseconds per operation of the reference host of Calib,
   best of [reps] runs. *)

open Naming

type sample = {
  cpu_ns : float;  (** best-of CPU time of one probe run *)
  words : float;  (** minor words allocated by that run *)
  ops : int;  (** operations the probe counts as its own *)
  events : int;  (** engine events *)
  rpcs : int;  (** RPC calls *)
  lock_ops : int;  (** lock grants *)
  store_ops : int;  (** store endpoint calls *)
  actions : int;  (** top-level actions ended *)
}

let zero = { cpu_ns = 0.0; words = 0.0; ops = 0; events = 0; rpcs = 0; lock_ops = 0; store_ops = 0; actions = 0 }

let count m name = Sim.Metrics.counter m name

let prefixed m prefix =
  List.fold_left
    (fun acc (k, v) ->
      if String.starts_with ~prefix k then acc + v else acc)
    0 (Sim.Metrics.counters m)

let lock_grants m = count m "lock.granted" + count m "lock.granted_after_wait"
let store_calls m = prefixed m "rpc.op.store."
let actions_ended m = count m "action.commits" + count m "action.aborts"

(* Run a probe [reps] times, each on a fresh setup, and keep the fastest
   run, its CPU time scaled to the reference host (see Calib). [setup]
   returns the timed closure, so set-up stays out of the measurement, and
   the closure returns the run's counts. *)
let best ~reps (setup : unit -> unit -> sample) =
  let fastest, factor =
    Calib.around (fun () ->
        let best = ref None in
        for _ = 1 to reps do
          let go = setup () in
          Gc.full_major ();
          let w0 = Gc.minor_words () in
          let t0 = Sys.time () in
          let s = go () in
          let t1 = Sys.time () in
          let w1 = Gc.minor_words () in
          let s = { s with cpu_ns = (t1 -. t0) *. 1e9; words = w1 -. w0 } in
          match !best with
          | Some b when b.cpu_ns <= s.cpu_ns -> ()
          | _ -> best := Some s
        done;
        Option.get !best)
  in
  { fastest with cpu_ns = fastest.cpu_ns *. factor }

(* Sim.Engine: 200 fibers, 250 sleeps each. *)
let engine () =
  let eng = Sim.Engine.create () in
  let rng = Sim.Rng.create 7L in
  for _ = 1 to 200 do
    let r = Sim.Rng.split rng in
    Sim.Engine.spawn eng (fun () ->
        for _ = 1 to 250 do
          Sim.Engine.sleep eng (Sim.Rng.float r 1.0)
        done)
  done;
  fun () ->
    Sim.Engine.run eng;
    let events = Sim.Engine.processed_events eng in
    { zero with ops = events; events }

(* Net.Rpc.call: 20 client fibers, 500 echo round trips each. *)
let rpc () =
  let eng = Sim.Engine.create () in
  let net = Net.Network.create eng in
  List.iter (Net.Network.add_node net) [ "a"; "b" ];
  let rt = Net.Rpc.create net in
  let ep : (int, int) Net.Rpc.endpoint = Net.Rpc.endpoint "probe.echo" in
  Net.Rpc.serve rt ~node:"b" ep Fun.id;
  for _ = 1 to 20 do
    Net.Network.spawn_on net "a" (fun () ->
        for i = 1 to 500 do
          ignore (Net.Rpc.call rt ~from:"a" ~dst:"b" ep i)
        done)
  done;
  fun () ->
    Sim.Engine.run eng;
    let m = Net.Network.metrics net in
    { zero with ops = count m "rpc.calls"; events = Sim.Engine.processed_events eng; rpcs = count m "rpc.calls" }

(* Lockmgr.Manager: 100 keys, two fibers contending on each, so every
   other acquire waits; 50 acquire/hold/release cycles per fiber. *)
let lockmgr () =
  let eng = Sim.Engine.create () in
  let m = Sim.Metrics.create () in
  let lm = Lockmgr.Manager.create ~metrics:m eng in
  for k = 1 to 100 do
    let key = Printf.sprintf "k%d" k in
    for f = 1 to 2 do
      let owner = Printf.sprintf "a%d.%d" k f in
      Sim.Engine.spawn eng (fun () ->
          for _ = 1 to 50 do
            (match Lockmgr.Manager.acquire lm ~owner ~mode:Lockmgr.Mode.Write key with
            | Ok () -> Sim.Engine.sleep eng 1.0
            | Error `Timeout -> ());
            Lockmgr.Manager.release lm ~owner key
          done)
    done
  done;
  fun () ->
    Sim.Engine.run eng;
    { zero with ops = lock_grants m; events = Sim.Engine.processed_events eng; lock_ops = lock_grants m }

(* Store.Object_store read/write and Intent_log stage/resolve: 25,000
   cycles of the four operations over 100 objects. *)
let store () =
  let objects = Store.Object_store.create () in
  let log = Store.Intent_log.create () in
  let supply = Store.Uid.supply () in
  let uids = Array.init 100 (fun i -> Store.Uid.fresh supply ~label:(Printf.sprintf "p%d" i)) in
  let state = Store.Object_state.initial (String.make 64 'x') in
  let actions = Array.init 25_000 (fun i -> Printf.sprintf "p:%d" i) in
  fun () ->
    Array.iteri
      (fun i action ->
        let uid = uids.(i mod 100) in
        Store.Intent_log.prepare log ~action ~coordinator:"c" [ (uid, state) ];
        ignore (Store.Object_store.read objects uid);
        Store.Object_store.write objects uid state;
        Store.Intent_log.resolve log ~action)
      actions;
    { zero with ops = 4 * Array.length actions }

(* A world with one client and one object on two stores, in which [op]
   runs inside 1,000 top-level actions. The sample counts only what those
   actions did; [ops] reads the probe's own operations off the metrics. *)
let in_world ~ops op () =
  let w =
    Service.create ~seed:3L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "s1" ];
        store_nodes = [ "t1"; "t2" ];
        client_nodes = [ "c1" ];
      }
  in
  let uid = Service.create_object w ~name:"p" ~impl:"counter" ~sv:[ "s1" ] ~st:[ "t1"; "t2" ] () in
  Service.run ~until:1.0 w;
  let m = Service.metrics w in
  let sample () =
    {
      zero with
      ops = ops m;
      events = Sim.Engine.processed_events (Service.engine w);
      rpcs = count m "rpc.calls";
      lock_ops = lock_grants m;
      store_ops = store_calls m;
      actions = actions_ended m;
    }
  in
  let base = sample () in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 1000 do
        ignore (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act -> op w act uid))
      done);
  fun () ->
    Service.run w;
    let s = sample () in
    {
      s with
      ops = s.ops - base.ops;
      events = s.events - base.events;
      rpcs = s.rpcs - base.rpcs;
      lock_ops = s.lock_ops - base.lock_ops;
      store_ops = s.store_ops - base.store_ops;
      actions = s.actions - base.actions;
    }

(* Action.Atomic.atomically over two Store_participants, each preparing and
   committing one state. The op is one top-level action. *)
let action =
  let state = Store.Object_state.initial "0" in
  in_world ~ops:actions_ended (fun _ act uid ->
      List.iter
        (fun store -> Action.Store_participant.add act ~store ~writes:(fun () -> [ (uid, state) ]))
        [ "t1"; "t2" ])

(* Naming: Gvd.get_server on the primary shard inside an action. The op is
   one naming RPC. *)
let naming =
  in_world ~ops:(fun m -> prefixed m "rpc.op.gvd.") (fun w act uid ->
      ignore (Gvd.get_server (Service.gvd w) ~act uid))

(* Self cost per operation of each layer, in CPU ns. *)
type costs = {
  sim_ns : float;  (** per engine event *)
  sim_words : float;  (** minor words per engine event *)
  net_ns : float;  (** per RPC, engine work excluded *)
  net_words : float;  (** minor words per RPC, engine work included *)
  lock_ns : float;  (** per lock grant *)
  store_ns : float;  (** per store operation *)
  action_ns : float;  (** per top-level action's 2PC *)
  naming_ns : float;  (** per naming RPC *)
}

let measure ~reps =
  let per s x = x /. float_of_int (max 1 s.ops) in
  (* CPU per op once the listed lower-layer work, (count, ns each), is
     taken out. *)
  let self s lower =
    per s (List.fold_left (fun t (n, ns) -> t -. (float_of_int n *. ns)) s.cpu_ns lower)
  in
  let e = best ~reps engine in
  let sim_ns = per e e.cpu_ns in
  let r = best ~reps rpc in
  let net_ns = self r [ (r.events, sim_ns) ] in
  let l = best ~reps lockmgr in
  let lock_ns = self l [ (l.events, sim_ns) ] in
  let st = best ~reps store in
  let store_ns = per st st.cpu_ns in
  let a = best ~reps action in
  let action_ns =
    self a [ (a.events, sim_ns); (a.rpcs, net_ns); (a.lock_ops, lock_ns); (a.store_ops, store_ns) ]
  in
  let n = best ~reps naming in
  let naming_ns =
    self n
      [
        (n.events, sim_ns);
        (n.rpcs, net_ns);
        (n.lock_ops, lock_ns);
        (n.store_ops, store_ns);
        (n.actions, action_ns);
      ]
  in
  {
    sim_ns;
    sim_words = per e e.words;
    net_ns;
    net_words = per r r.words;
    lock_ns;
    store_ns;
    action_ns;
    naming_ns;
  }
