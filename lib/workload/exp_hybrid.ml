open Naming

let run_variant ~seed ~hybrid =
  let servers = [ "s1"; "s2" ] in
  let stores = [ "t1"; "t2" ] in
  let w =
    Service.create ~seed
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = servers;
        store_nodes = stores;
        client_nodes = [ "c1"; "c2" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:servers ~st:stores ()
  in
  let hy =
    if hybrid then begin
      let h = Hybrid.install (Service.binder w) ~node:"ns" in
      Hybrid.register h ~from:"ns" ~uid ~sv:servers;
      Some h
    end
    else None
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let net = Service.network w in
  let m = Service.metrics w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  Net.Fault.crash_for net ~at:120.0 ~duration:80.0 "t2";
  let commits = ref 0 and attempts = ref 0 in
  let body act group =
    ignore (Service.invoke w group ~act ~write:false "get");
    if !attempts mod 3 = 0 then ignore (Service.invoke w group ~act "incr")
  in
  List.iter
    (fun client ->
      Service.spawn_client w client (fun () ->
          let rec loop () =
            if Sim.Engine.now eng < 300.0 then begin
              incr attempts;
              (match hy with
              | Some h -> (
                  match
                    Action.Atomic.atomically (Service.atomic w) ~node:client
                      (fun act ->
                        match
                          Hybrid.bind h ~act ~uid
                            ~policy:(Replica.Policy.Active 2)
                        with
                        | Error e ->
                            raise
                              (Action.Atomic.Abort (Binder.bind_error_to_string e))
                        | Ok binding -> body act binding.Binder.bd_group)
                  with
                  | Ok () -> incr commits
                  | Error _ -> ())
              | None -> (
                  match
                    Service.with_bound w ~client ~scheme:Scheme.Standard
                      ~policy:(Replica.Policy.Active 2) ~uid body
                  with
                  | Ok () -> incr commits
                  | Error _ -> ()));
              Sim.Engine.sleep eng (Sim.Rng.exponential rng 10.0);
              loop ()
            end
          in
          loop ()))
    [ "c1"; "c2" ];
  Service.run w;
  let sv_ops =
    Sim.Metrics.counter m "gvd.get_server"
    + Sim.Metrics.counter m "gvd.inserts"
    + Sim.Metrics.counter m "gvd.removes"
    + Sim.Metrics.counter m "gvd.increments"
    + Sim.Metrics.counter m "gvd.decrements"
  in
  [
    (if hybrid then "hybrid (§5)" else "fully atomic (standard)");
    Table.cell_i !attempts;
    Table.cell_i !commits;
    Table.cell_i sv_ops;
    Table.cell_i (Sim.Metrics.counter m "gvd.exclusions");
    (if Result.is_ok (Audit.mutual_consistency w uid) then "holds" else "VIOLATED");
  ]

let run ?(seed = 71L) () =
  Table.make
    ~title:"tab-hybrid: non-atomic name server + atomic state DB (§5)"
    ~columns:
      [ "variant"; "attempts"; "commits"; "sv-db ops"; "exclusions"; "St invariant" ]
    ~notes:
      [
        "Paper claim (§5): keeping server data in a traditional name server";
        "sheds all server-database atomic actions, while the atomic Object";
        "State database alone still guarantees consistent binding (the St";
        "mutual-consistency invariant holds in both variants).";
      ]
    [ run_variant ~seed ~hybrid:false; run_variant ~seed ~hybrid:true ]
