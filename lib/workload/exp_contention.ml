open Naming

let run_config ~seed ~scheme ~clients =
  let client_nodes = List.init clients (fun i -> Printf.sprintf "c%d" (i + 1)) in
  let w =
    Service.create ~seed
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "t1" ];
        client_nodes;
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1" ] ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let m = Service.metrics w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  (* Synchronised waves of binds maximise overlap: all clients bind at the
     top of each 40-unit round, 8 rounds. *)
  List.iter
    (fun client ->
      let crng = Sim.Rng.split rng in
      Service.spawn_client w client (fun () ->
          for round = 1 to 8 do
            let top = float_of_int round *. 40.0 in
            let jitter = Sim.Rng.uniform crng 0.0 1.0 in
            Sim.Engine.sleep eng (Float.max 0.0 (top +. jitter -. Sim.Engine.now eng));
            let started = Sim.Engine.now eng in
            match
              Service.with_bound w ~client ~scheme
                ~policy:Replica.Policy.Single_copy_passive ~uid
                (fun act group ->
                  Sim.Metrics.observe m "exp.bind_latency"
                    (Sim.Engine.now eng -. started);
                  ignore (Service.invoke w group ~act ~write:false "get"))
            with
            | Ok () -> ()
            | Error _ -> Sim.Metrics.incr m "exp.bind_failures"
          done))
    client_nodes;
  Service.run w;
  (* Retried server/database acquisitions are extra protocol rounds a
     bind actually paid; fold them into the per-bind rounds figure. *)
  let binds = float_of_int (8 * clients) in
  let retries = Sim.Metrics.counter m "retry.op.group.invoke" in
  ( Sim.Metrics.mean m "exp.bind_latency",
    Sim.Metrics.mean m "bind.naming_rounds" +. (float_of_int retries /. binds),
    Sim.Metrics.counter m "lock.waited",
    Sim.Metrics.counter m "gvd.view_lock_waits",
    Sim.Metrics.counter m "exp.bind_failures" )

type commit_sample = {
  cs_bind_mean : float;
  cs_rounds : float;
  cs_lock_waits : int;
  cs_view_waits : int;
  cs_failures : int;
  cs_validate_ok : int;
  cs_validate_conflict : int;
}

(* The commit-side half: writers whose copy-back validates its [StA]
   at the naming tier, racing membership churn (a store bounced off and
   back, driving commit-time Exclude and reintegration Include — both
   holders of the same St entry's fence or write lock). Scheme B binds
   are snapshot reads and a commit targets the bind's committed [StA]
   (re-read lock-free after a conflict), so nothing here takes a locked
   [GetView]: [gvd.view_lock_waits] stays 0. *)
let run_commit ~seed ~clients () =
  let client_nodes = List.init clients (fun i -> Printf.sprintf "c%d" (i + 1)) in
  let w =
    Service.create ~seed
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "t1"; "t2" ];
        client_nodes;
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let net = Service.network w in
  let m = Service.metrics w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  (* Membership churn: bounce t2 three times. While it is down, failing
     prepares drive Exclude; each recovery drives a reintegration
     Include. Both mutate the St entry under write locks. *)
  List.iter
    (fun at -> Net.Fault.crash_for net ~at ~duration:25.0 "t2")
    [ 30.0; 90.0; 150.0 ];
  List.iter
    (fun client ->
      let crng = Sim.Rng.split rng in
      Service.spawn_client w client (fun () ->
          Sim.Engine.sleep eng (Sim.Rng.uniform crng 0.0 4.0);
          for _ = 1 to 8 do
            let started = Sim.Engine.now eng in
            (match
               Service.with_bound w ~client ~scheme:Scheme.Independent
                 ~policy:Replica.Policy.Single_copy_passive ~uid
                 (fun act group ->
                   Sim.Metrics.observe m "exp.bind_latency"
                     (Sim.Engine.now eng -. started);
                   ignore (Service.invoke w group ~act "add 1"))
             with
            | Ok () -> ()
            | Error _ -> Sim.Metrics.incr m "exp.bind_failures");
            Sim.Engine.sleep eng (Sim.Rng.uniform crng 6.0 14.0)
          done))
    client_nodes;
  Service.run w;
  let binds = float_of_int (8 * clients) in
  let retries = Sim.Metrics.counter m "retry.op.group.invoke" in
  {
    cs_bind_mean = Sim.Metrics.mean m "exp.bind_latency";
    cs_rounds =
      Sim.Metrics.mean m "bind.naming_rounds" +. (float_of_int retries /. binds);
    cs_lock_waits = Sim.Metrics.counter m "lock.waited";
    cs_view_waits = Sim.Metrics.counter m "gvd.view_lock_waits";
    cs_failures = Sim.Metrics.counter m "exp.bind_failures";
    cs_validate_ok = Sim.Metrics.counter m "commit.validate_ok";
    cs_validate_conflict = Sim.Metrics.counter m "commit.validate_conflict";
  }

let run ?(seed = 131L) () =
  let wave_rows =
    List.concat_map
      (fun clients ->
        List.map
          (fun (label, scheme) ->
            let latency, rounds, waits, view_waits, failures =
              run_config ~seed ~scheme ~clients
            in
            [
              Table.cell_i clients;
              label;
              Table.cell_f latency;
              Table.cell_f rounds;
              Table.cell_i waits;
              Table.cell_i view_waits;
              Table.cell_i failures;
            ])
          [ ("standard", Scheme.Standard); ("independent", Scheme.Independent) ])
      [ 1; 2; 4; 8; 16; 32 ]
  in
  let commit_samples =
    List.map (fun clients -> (clients, run_commit ~seed ~clients ())) [ 4; 8 ]
  in
  let commit_rows =
    List.map
      (fun (clients, s) ->
        [
          Table.cell_i clients;
          "writes";
          Table.cell_f s.cs_bind_mean;
          Table.cell_f s.cs_rounds;
          Table.cell_i s.cs_lock_waits;
          Table.cell_i s.cs_view_waits;
          Table.cell_i s.cs_failures;
        ])
      commit_samples
  in
  let validate_notes =
    List.map
      (fun (clients, s) ->
        Printf.sprintf "  %d clients, writes: validate ok=%d conflicts=%d"
          clients s.cs_validate_ok s.cs_validate_conflict)
      commit_samples
  in
  Table.make
    ~title:"tab-contention: database contention scaling of the schemes (§4.1)"
    ~columns:
      [
        "clients";
        "workload";
        "bind latency mean";
        "rpc rounds/bind (incl. retries)";
        "lock waits";
        "commit GetView waits";
        "bind failures";
      ]
    ~notes:
      ([
         "Read-only clients bind in synchronised waves against one object.";
         "Paper claim (§4.1.2): GetServer is a shared read, so scheme A's";
         "bind latency stays flat as clients grow. Schemes B/C historically";
         "serialised binders behind the read-modify-write (Increment) write";
         "lock; with snapshot reads and the single-round batched bind the";
         "Increment becomes a Delta-mode append, so their latency now also";
         "stays near-flat and a bind costs one RPC round (column 4). Scheme";
         "A's locked GetServer + GetView travel as one bind request, so it";
         "pays one round too. Server acquisitions";
         "refused under contention go through Net.Retry backoff instead of";
         "failing the bind; each retry counts as an extra round in column 4.";
         "";
         "The 'writes' rows race commit copy-backs against membership churn";
         "(a store bounced three times: failing prepares Exclude it, its";
         "recoveries re-Include it). Scheme B binds are snapshot reads and a";
         "commit never takes a locked GetView, so 'commit GetView waits' is 0";
         "there. A commit targets the committed St its bind returned (a";
         "lock-free re-read after a conflict), validates its revision in";
         "the prepare round, and aborts after three conflicts;";
         "its copy-back goes through the group-commit plane (window 2.0),";
         "where overlapping commits share one prepare and one phase-2";
         "scatter per store (tab-groupcommit measures the round reduction):";
         "'lock waits' counts every lock table: the naming database's and";
         "the server's instance locks, where the writes queue.";
       ]
      @ validate_notes)
    (wave_rows @ commit_rows)
