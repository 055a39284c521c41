open Naming

(* tab-groupcommit: group-commit round coalescing by client count.

   Up to eight clients, each committing writes to its OWN object (so
   instance write locks never serialise them) with every object stored on
   the same two-store [St] — the workload shape where per-commit round
   count, not payload, dominates. Commits leave in synchronised waves;
   each opening commit holds its batch for the group-commit window
   (closing early on quiescence), overlapping store sets merge, and the
   batch pays one prepare scatter and one phase-2 scatter per store.

   The measured quantity is store RPC rounds per commit: the sum of the
   per-endpoint RPC counters over every phase-1/phase-2 store operation,
   divided by commits. A lone client's batches are all singletons, which
   pay a lone commit's 2 × |St| rounds (prepare + commit per store); a
   batch of [k] amortises those same
   rounds k ways. [round_reduction] exposes the 1-client/8-client ratio
   for the tier-1 pin (>= 1.5x). *)

let stores = [ "t1"; "t2" ]
let waves = 6

type sample = {
  g_commits : int;
  g_store_rpcs : int;
  g_rounds : float; (* store RPC rounds per commit *)
  g_batches : int;
  g_mean_members : float;
  g_peels : int;
  g_pulled : int;
}

(* Every store-side op a commit can pay, phase 1 or 2 — including aborts
   and solo retries, so peel-outs are charged honestly. *)
let store_ops = [ "store.prepare"; "store.commit"; "store.abort" ]

let episode ~clients () =
  let client_nodes = List.init clients (fun i -> Printf.sprintf "c%d" (i + 1)) in
  let w =
    Service.create ~seed:9L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = stores;
        client_nodes;
      }
  in
  let uids =
    List.map
      (fun c ->
        Service.create_object w ~name:("obj-" ^ c) ~impl:"counter"
          ~sv:[ "alpha" ] ~st:stores ())
      client_nodes
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let m = Service.metrics w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let commits = ref 0 in
  List.iteri
    (fun i client ->
      let uid = List.nth uids i in
      let crng = Sim.Rng.split rng in
      Service.spawn_client w client (fun () ->
          for wave = 1 to waves do
            let top = float_of_int wave *. 40.0 in
            let jitter = Sim.Rng.uniform crng 0.0 1.0 in
            Sim.Engine.sleep eng
              (Float.max 0.0 (top +. jitter -. Sim.Engine.now eng));
            match
              Service.with_bound w ~client ~scheme:Scheme.Independent
                ~policy:Replica.Policy.Single_copy_passive ~uid
                (fun act group ->
                  ignore (Service.invoke w group ~act "add 1"))
            with
            | Ok () -> incr commits
            | Error _ -> ()
          done))
    client_nodes;
  Service.run w;
  let store_rpcs =
    List.fold_left
      (fun acc op -> acc + Sim.Metrics.counter m ("rpc.op." ^ op))
      0 store_ops
  in
  {
    g_commits = !commits;
    g_store_rpcs = store_rpcs;
    g_rounds = float_of_int store_rpcs /. float_of_int (max 1 !commits);
    g_batches = Sim.Metrics.counter m "groupcommit.batches";
    g_mean_members = Sim.Metrics.mean m "groupcommit.batch_members";
    g_peels = Sim.Metrics.counter m "groupcommit.peels";
    g_pulled = Sim.Metrics.counter m "groupcommit.pulled_closes";
  }

(* Store-round reduction at [clients] writers over a lone writer, whose
   singleton batches pay the solo rounds: the acceptance pin (>= 1.5x at
   8 clients) reads this. *)
let round_reduction ?(clients = 8) () =
  let solo = episode ~clients:1 () in
  let grouped = episode ~clients () in
  (solo.g_rounds /. grouped.g_rounds, solo, grouped)

let run () =
  let solo = episode ~clients:1 () in
  let rows =
    List.map
      (fun clients ->
        let s = if clients = 1 then solo else episode ~clients () in
        [
          Table.cell_i clients;
          Table.cell_i s.g_commits;
          Table.cell_i s.g_store_rpcs;
          Table.cell_f s.g_rounds;
          Table.cell_i s.g_batches;
          (if s.g_batches = 0 then "-"
           else Printf.sprintf "%.1f" s.g_mean_members);
          Table.cell_i s.g_peels;
          Printf.sprintf "%.2fx" (solo.g_rounds /. s.g_rounds);
        ])
      [ 1; 2; 4; 8 ]
  in
  Table.make
    ~title:"tab-groupcommit: group-commit round coalescing by client count"
    ~columns:
      [
        "clients";
        "commits";
        "store RPCs";
        "rounds/commit";
        "batches";
        "mean members";
        "peels";
        "reduction";
      ]
    ~notes:
      [
        "Synchronised waves of single-object writes, one object per client,";
        "every object on the same 2-store St. A lone client's batches are";
        "singletons, which pay the solo prepare + phase-2 scatter (2 x |St|";
        "store rounds); with more clients, commits opening within the batch";
        "window (2.0, closing early once no commit is still approaching)";
        "merge and pay ONE prepare and ONE phase-2 round per store for the";
        "whole batch. 'reduction' is rounds/commit against the 1-client";
        "row. 'store RPCs' sums every";
        "phase-1/phase-2 store operation including aborts and peel-out solo";
        "retries; 'peels' counts members whose vote fell short of all-yes";
        "and who re-ran solo (never aborting batchmates). Each round";
        "carries one sub-record per member (PROTOCOLS.md S14). The";
        ">= 1.5x reduction at 8 clients is pinned as a tier-1 test";
        "(test_groupcommit.ml).";
      ]
    rows
