open Naming

let config ~seed ~read_fraction =
  let stores = [ "t1"; "t2"; "t3" ] in
  let w =
    Service.create ~seed
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = stores;
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ] ~st:stores ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let m = Service.metrics w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let actions = 100 in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to actions do
        let read_only = Sim.Rng.bool rng read_fraction in
        (* The commit columns time commit processing only: from the end of
           the action body (binding and invocation done) to top-action
           completion — the copy-back prepare round plus phase 2. *)
        let body_done = ref 0.0 in
        (match
           Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
             ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
               (if read_only then
                  ignore (Service.invoke w group ~act ~write:false "get")
                else ignore (Service.invoke w group ~act "incr"));
               body_done := Sim.Engine.now eng)
         with
        | Ok () ->
            Sim.Metrics.observe m
              (if read_only then "exp.ro_latency" else "exp.rw_latency")
              (Sim.Engine.now eng -. !body_done)
        | Error _ -> ());
        Sim.Engine.sleep eng 1.0
      done);
  Service.run w;
  let skipped = Sim.Metrics.counter m "commit.read_optimised" in
  let copies = Sim.Metrics.counter m "commit.state_copies" in
  [
    Table.cell_pct read_fraction;
    Table.cell_i actions;
    Table.cell_i skipped;
    Table.cell_i copies;
    Table.cell_f (Sim.Metrics.mean m "exp.ro_latency");
    Table.cell_f (Sim.Metrics.mean m "exp.rw_latency");
    Table.cell_f (Sim.Metrics.mean m "commit.fanout");
    Table.cell_f (Sim.Metrics.percentile m "commit.fanout" 95.0);
  ]

let run ?(seed = 61L) () =
  let rows =
    List.map
      (fun read_fraction -> config ~seed ~read_fraction)
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  in
  Table.make
    ~title:"tab-read-opt: read-only commits skip the state copy (§4.2.1)"
    ~columns:
      [
        "read fraction"; "actions"; "copies skipped"; "state copies (x|St|)";
        "read commit mean"; "write commit mean"; "fanout mean"; "fanout p95";
      ]
    ~notes:
      [
        "Paper claim (§4.2.1): 'if the client has not changed the state of";
        "the object, then no copying to object stores is necessary' — state";
        "copies scale with updating actions only, and read-only actions";
        "commit faster: no prepare round to the |St|=3 stores, and no";
        "phase-2 round either (the server and the naming shard staged";
        "nothing, so both vote read-only at prepare).";
        "Commit means time commit processing only (body end -> top-action";
        "completion). The fanout columns summarise the commit.fanout";
        "histogram: wall time of the scatter-gather prepare round to the";
        "|St|=3 stores, which the parallel copy-back bounds by the slowest";
        "store rather than the sum over stores.";
      ]
    rows
