type topology = {
  gvd_node : Net.Network.node_id;
  gvd_nodes : Net.Network.node_id list;
  server_nodes : Net.Network.node_id list;
  store_nodes : Net.Network.node_id list;
  client_nodes : Net.Network.node_id list;
}

type gray_failure = Net.Network.gray_failure = Hedged | Autonomic

type t = {
  w_eng : Sim.Engine.t;
  w_net : Net.Network.t;
  w_sh : Action.Store_host.t;
  w_art : Action.Atomic.runtime;
  w_srv : Replica.Server.runtime;
  w_grt : Replica.Group.runtime;
  w_router : Router.t;
  w_gvd : Gvd.t;
  w_binder : Binder.t;
  w_sup : Store.Uid.supply;
  w_topology : topology;
  w_autonomic : Replica.Autonomic.t option;
}

let engine t = t.w_eng
let network t = t.w_net
let atomic t = t.w_art
let store_host t = t.w_sh
let server_runtime t = t.w_srv
let group_runtime t = t.w_grt
let router t = t.w_router
let gvd t = t.w_gvd
let binder t = t.w_binder
let bind_cache t = Binder.cache t.w_binder
let metrics t = Net.Network.metrics t.w_net
let trace t = Net.Network.trace t.w_net
let uid_supply t = t.w_sup
let topology t = t.w_topology
let autonomic t = t.w_autonomic

let create ?seed ?latency ?(use_exclude_write = true) ?(durable_naming = false)
    ?(cleanup_period = 0.0) ?bind_cache_lease ?(naming_service_time = 0.0)
    ?gray_failure topology =
  let eng = Sim.Engine.create ?seed () in
  (* The gray-failure profile (§15, §16) lives on the network: every layer
     above reads it where it acts, so there is nothing else to wire. *)
  let net = Net.Network.create ?latency ?gray_failure eng in
  let rpc = Net.Rpc.create net in
  let sh = Action.Store_host.create rpc in
  let rh = Action.Resource_host.create rpc in
  let art = Action.Atomic.make_runtime sh rh in
  let impls = Replica.Object_impl.registry () in
  List.iter (Replica.Object_impl.register impls) Replica.Object_impl.stock_all;
  let srv = Replica.Server.create art impls in
  (* The primary naming node first, then the extra shards in declaration
     order — the shard-map node set. *)
  let naming_nodes =
    topology.gvd_node
    :: List.filter (fun n -> n <> topology.gvd_node) topology.gvd_nodes
  in
  let all_nodes =
    List.sort_uniq String.compare
      ((naming_nodes @ topology.server_nodes)
      @ topology.store_nodes @ topology.client_nodes)
  in
  (* Hook order per node matters: 2PC termination must precede
     naming-level reintegration. *)
  List.iter
    (fun n ->
      Net.Network.add_node net n;
      Action.Store_host.add sh n;
      Action.Termination.attach art ~node:n)
    all_nodes;
  List.iter (fun n -> Replica.Server.install_host srv n) topology.server_nodes;
  let grt = Replica.Group.create srv ~sequencer:topology.gvd_node in
  let router =
    Router.create ~use_exclude_write ~durable:durable_naming
      ~service_time:naming_service_time art ~nodes:naming_nodes
  in
  let gvd = Router.primary router in
  let cache =
    Option.map
      (fun lease -> Bind_cache.create ~lease (Net.Network.metrics net))
      bind_cache_lease
  in
  let bdr = Binder.create ?cache router grt in
  List.iter
    (fun n -> Reintegration.attach_store_node bdr ~node:n)
    topology.store_nodes;
  List.iter
    (fun n -> Reintegration.attach_server_node bdr ~node:n)
    topology.server_nodes;
  if cleanup_period > 0.0 then
    List.iter (fun g -> Cleanup.start g ~period:cleanup_period art)
      (Router.gvds router);
  (* The autonomic membership plane (§16), under the [Autonomic] profile:
     one controller daemon per server node, probing the stores' latency
     health and driving the §4.2 Exclude/Include protocols for gray
     failures. The plane lives in [lib/replica], below the naming tier,
     so the naming-facing drivers are injected here: the probe is a
     no-op store round trip, the Exclude is the observer-driven validated
     round, and the re-Include spawns the recovery-time catch-up
     reintegration on the healed store itself (it must run there — the
     include fence and state seed are the store's own atomic action). *)
  let autonomic =
    match gray_failure with
    | None | Some Hedged -> None
    | Some Autonomic ->
        let deps =
          {
            Replica.Autonomic.d_rpc = rpc;
            d_stores = topology.store_nodes;
            d_servers = topology.server_nodes;
            d_probe = Action.Store_host.probe sh;
            d_exclude =
              (fun ~from ~store ->
                Reintegration.exclude_store_now bdr ~from ~node:store ());
            d_include =
              (fun ~store ->
                Net.Network.spawn_on net store ~name:"autonomic-include"
                  (fun () ->
                    Reintegration.reintegrate_store_now bdr ~node:store));
          }
        in
        let plane = Replica.Autonomic.create deps in
        List.iter (Replica.Autonomic.start plane) topology.server_nodes;
        Some plane
  in
  {
    w_eng = eng;
    w_net = net;
    w_sh = sh;
    w_art = art;
    w_srv = srv;
    w_grt = grt;
    w_router = router;
    w_gvd = gvd;
    w_binder = bdr;
    w_sup = Store.Uid.supply ();
    w_topology = topology;
    w_autonomic = autonomic;
  }

let create_object t ~name ~impl ?initial ~sv ~st () =
  let uid = Store.Uid.fresh t.w_sup ~label:name in
  let payload =
    match initial with
    | Some p -> p
    | None -> (
        (* Resolve through the stock registry, as activation would. *)
        match
          List.find_opt
            (fun i -> String.equal i.Replica.Object_impl.impl_name impl)
            Replica.Object_impl.stock_all
        with
        | Some i -> i.Replica.Object_impl.initial
        | None -> "")
  in
  List.iter
    (fun store ->
      Action.Store_host.seed t.w_sh store uid (Store.Object_state.initial payload))
    st;
  (* Registration is administrative world setup: apply it directly (on the
     owning shard) so objects exist before any client fiber can race the
     entry. *)
  Router.register_direct t.w_router ~uid ~name ~impl ~sv ~st;
  uid

let lookup t ~from name =
  match Router.lookup t.w_router ~from name with Ok r -> r | Error _ -> None

let with_bound ?deadline t ~client ~scheme ~policy ~uid body =
  Action.Atomic.atomically ?deadline t.w_art ~node:client (fun act ->
      match Binder.bind t.w_binder ~act ~scheme ~uid ~policy with
      | Error e -> raise (Action.Atomic.Abort (Binder.bind_error_to_string e))
      | Ok binding -> body act binding.Binder.bd_group)

let invoke t group ~act ?write op =
  match Replica.Group.invoke t.w_grt group ~act ?write op with
  | Ok reply -> reply
  | Error e ->
      raise (Action.Atomic.Abort (Format.asprintf "%a" Replica.Group.pp_invoke_error e))

let run ?until t =
  match until with
  | Some u -> Sim.Engine.run ~until:u t.w_eng
  | None -> Sim.Engine.run t.w_eng

let spawn_client t node f = Net.Network.spawn_on t.w_net node f
