open Naming

let run_variant ~seed ~eager =
  let servers = [ "k1"; "k2" ] in
  let w =
    Service.create ~seed
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = servers;
        store_nodes = [ "t1" ];
        client_nodes = [ "c1" ];
      }
  in
  Replica.Server.set_eager_checkpoints (Service.server_runtime w) eager;
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:servers ~st:[ "t1" ] ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let net = Service.network w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let actions = 60 in
  let horizon = float_of_int actions *. 25.0 in
  (* Only the (initial) coordinator churns; the cohort stays up so the
     group itself survives every failover. *)
  Net.Fault.churn net ~rng:(Sim.Rng.split rng) ~mttf:120.0 ~mttr:30.0
    ~until:horizon "k1";
  let commits = ref 0 and staged_lost = ref 0 and other_aborts = ref 0 in
  let injected = ref 0 in
  let k1_coordinates (group : Replica.Group.t) =
    (match group.g_members with "k1" :: _ -> true | _ -> false)
    && Net.Network.is_up net "k1"
  in
  Service.spawn_client w "c1" (fun () ->
      for i = 1 to actions do
        (match
           Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
             ~policy:(Replica.Policy.Coordinator_cohort 2) ~uid
             (fun act group ->
               (* Three spaced updates: a coordinator crash between them
                  exercises mid-action failover. *)
               for j = 1 to 3 do
                 ignore (Service.invoke w group ~act "incr");
                 (* The churn alone may never land between two updates of
                    one action, so every tenth action also crashes a live
                    k1 coordinator just after its first update. *)
                 if j = 1 && i mod 10 = 0 && k1_coordinates group then begin
                   incr injected;
                   Net.Fault.crash_for net ~at:(Sim.Engine.now eng +. 1.0) ~duration:30.0 "k1"
                 end;
                 Sim.Engine.sleep eng 4.0
               done)
         with
        | Ok () -> incr commits
        | Error reason ->
            if
              Astring.String.is_infix ~affix:"staged state lost" reason
            then incr staged_lost
            else incr other_aborts);
        Sim.Engine.sleep eng (Sim.Rng.uniform rng 3.0 8.0)
      done);
  Service.run w;
  let m = Service.metrics w in
  [
    (if eager then "eager (per invocation)" else "lazy (action ends only)");
    Table.cell_i actions;
    Table.cell_i !commits;
    Table.cell_i !staged_lost;
    Table.cell_i !other_aborts;
    Table.cell_i (Sim.Metrics.counter m "server.checkpoints");
    Table.cell_i (Sim.Metrics.counter m "server.promotions");
    Table.cell_i !injected;
  ]

let run ?(seed = 81L) () =
  Table.make
    ~title:"tab-checkpoint: coordinator-cohort checkpoint policy ablation"
    ~columns:
      [
        "policy"; "actions"; "commits"; "staged-lost aborts"; "other aborts";
        "checkpoint msgs"; "promotions"; "injected";
      ]
    ~notes:
      [
        "The paper's coordinator 'regularly checkpoints its state to the";
        "cohorts' (§2.3(2)(ii)) without fixing the rate. Eager checkpointing";
        "lets failovers continue in-progress actions at the cost of one";
        "checkpoint message per invocation; lazy checkpointing slashes the";
        "traffic but every mid-action failover aborts the client's action";
        "(detected as State_lost — never silent data loss).";
        "Besides the churn, every tenth action crashes a live k1 coordinator";
        "1.0 after its first update, for 30.0 ('injected').";
      ]
    [ run_variant ~seed ~eager:true; run_variant ~seed ~eager:false ]
