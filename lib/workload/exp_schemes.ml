open Naming

type result = {
  r_scheme : Scheme.t;
  r_attempts : int;
  r_commits : int;
  r_bind_mean : float;
  r_futile : int;
  r_removed_dead : int;
  r_db_ops : int;
  r_lock_waits : int;
  r_insert_delay : float;
  r_orphans : int;
}

let db_op_counters =
  [
    "gvd.get_server"; "gvd.get_view"; "gvd.inserts"; "gvd.removes";
    "gvd.increments"; "gvd.decrements"; "gvd.zeroes"; "gvd.exclusions";
    "gvd.includes";
  ]

let run_scheme ?(seed = 31L) scheme =
  let servers = [ "s1"; "s2" ] in
  let stores = [ "t1"; "t2" ] in
  let clients = [ "c1"; "c2"; "c3"; "c4" ] in
  let w =
    Service.create ~seed ~cleanup_period:25.0
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = servers;
        store_nodes = stores;
        client_nodes = clients;
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:servers ~st:stores ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let net = Service.network w in
  let m = Service.metrics w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let horizon = 400.0 in
  (* One server bounce mid-run. *)
  Net.Fault.crash_for net ~at:100.0 ~duration:100.0 "s1";
  let commits = ref 0 and attempts = ref 0 in
  (* Read-mostly (every fourth action writes): write-lock contention on
     the single hot object would otherwise dominate every scheme equally
     and drown the scheme-specific differences the experiment is after. *)
  let run_action client =
    incr attempts;
    let write = !attempts mod 4 = 0 in
    let started = Sim.Engine.now eng in
    let bound = ref nan in
    match
      Service.with_bound w ~client ~scheme ~policy:(Replica.Policy.Active 2)
        ~uid (fun act group ->
          bound := Sim.Engine.now eng -. started;
          ignore (Service.invoke w group ~act ~write:false "get");
          if write then Service.invoke w group ~act "incr"
          else Service.invoke w group ~act ~write:false "get")
    with
    | Ok _ ->
        incr commits;
        Sim.Metrics.observe m "exp.bind_latency" !bound
    | Error _ ->
        if not (Float.is_nan !bound) then
          Sim.Metrics.observe m "exp.bind_latency" !bound
  in
  (* Three steady clients... *)
  List.iter
    (fun client ->
      Service.spawn_client w client (fun () ->
          let rec loop () =
            if Sim.Engine.now eng < horizon then begin
              run_action client;
              Sim.Engine.sleep eng (Sim.Rng.exponential rng 8.0);
              loop ()
            end
          in
          loop ()))
    [ "c1"; "c2"; "c3" ];
  (* ...and one that crashes while bound and stays down: its bind (and
     under schemes B/C the Increment) has long committed by the time of
     the crash at t=210, so the orphaned counters are durable and only
     the cleanup daemon can remove them. *)
  Net.Network.spawn_on net "c4" (fun () ->
      Sim.Engine.sleep eng 110.0;
      ignore
        (Service.with_bound w ~client:"c4" ~scheme
           ~policy:(Replica.Policy.Active 2) ~uid (fun act group ->
             ignore (Service.invoke w group ~act ~write:false "get");
             Sim.Engine.sleep eng 150.0)));
  Net.Fault.crash_at net ~at:210.0 "c4";
  Service.run ~until:(horizon +. 600.0) w;
  {
    r_scheme = scheme;
    r_attempts = !attempts;
    r_commits = !commits;
    r_bind_mean = Sim.Metrics.mean m "exp.bind_latency";
    r_futile = Sim.Metrics.counter m "bind.futile";
    r_removed_dead = Sim.Metrics.counter m "bind.removed_dead";
    r_db_ops =
      List.fold_left (fun acc c -> acc + Sim.Metrics.counter m c) 0 db_op_counters;
    r_lock_waits = Sim.Metrics.counter m "lock.waited";
    r_insert_delay = Sim.Metrics.mean m "reintegrate.insert_delay";
    r_orphans = Sim.Metrics.counter m "cleanup.orphans";
  }

let row r =
  [
    Scheme.to_string r.r_scheme;
    Table.cell_i r.r_attempts;
    Table.cell_i r.r_commits;
    Table.cell_f r.r_bind_mean;
    Table.cell_i r.r_futile;
    Table.cell_i r.r_removed_dead;
    Table.cell_i r.r_db_ops;
    Table.cell_i r.r_lock_waits;
    Table.cell_f r.r_insert_delay;
    Table.cell_i r.r_orphans;
  ]

let columns =
  [
    "scheme"; "attempts"; "commits"; "bind mean"; "futile"; "removed-dead";
    "db ops"; "lock waits"; "insert delay"; "orphans cleaned";
  ]

let single ?seed scheme ~title ~notes () =
  let r = run_scheme ?seed scheme in
  Table.make ~title ~columns ~notes [ row r ]

let fig6 ?seed () =
  single ?seed Scheme.Standard
    ~title:"fig6-standard: scheme A, nested atomic actions"
    ~notes:
      [
        "Paper claims (§4.1.2): SvA is static, so every bind while s1 is";
        "down pays a futile activation attempt ('the hard way'); database";
        "read locks are held to client commit (a writer's to phase 2, a";
        "reader's to its prepare), so the recovered server's Insert waits;";
        "in exchange the database sees few operations.";
      ]
    ()

let fig7 ?seed () =
  single ?seed Scheme.Independent
    ~title:"fig7-independent: scheme B, independent top-level actions"
    ~notes:
      [
        "Paper claims (§4.1.3(i)): dead servers are removed at bind time,";
        "so SvA stays fresh and futile binds vanish; every client action";
        "costs extra database actions (Increment/Decrement); the crashed";
        "client's counters linger until the cleanup daemon zeroes them.";
      ]
    ()

let fig8 ?seed () =
  single ?seed Scheme.Nested_toplevel
    ~title:"fig8-nested-toplevel: scheme C, nested top-level actions"
    ~notes:
      [
        "Paper claims (§4.1.3(ii)): identical database behaviour to scheme";
        "B; the difference is purely structural (the database actions are";
        "started from within the client action).";
      ]
    ()

let comparison ?(seed = 31L) () =
  let rows = List.map (fun s -> row (run_scheme ~seed s)) Scheme.all in
  Table.make
    ~title:"tab-schemes: the three access schemes side by side (§4.1)"
    ~columns
    ~notes:
      [
        "Shape to check: standard has futile binds and zero removed-dead /";
        "orphans; independent and nested-toplevel trade extra db ops (and";
        "cleanup work after the client crash) for a fresh SvA view.";
        "Every scheme binds in one naming round. Scheme A's round takes";
        "GetServer's and GetView's read locks for a nested action and";
        "they are held to commit, so its database behaviour is Figure 6's.";
        "'lock waits' counts every lock table: the naming database's and";
        "each server's instance locks.";
      ]
    rows
