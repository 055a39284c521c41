open Naming

(* tab-brownout: hedged vs unhedged commit latency under gray failure.

   One client commits a long sequence of single-object writes whose St
   spans two stores, one of which is browned out for the whole run:
   every message into or out of it may gain a uniform service-time
   inflation, always below the 30s lock/multicast timeouts — the node is
   slow, never dead, so nothing in the failure detectors or breakers
   fires on its own. Each brownout probability runs the SAME seed twice:
   once without a gray-failure profile (the seed behaviour) and once
   under the [Hedged] profile, so the only difference is that plane —
   chiefly the per-destination health tracker delaying a backup copy of
   each idempotent store scatter and racing it against the primary.

   The quantity of interest is the tail: an unhedged commit whose
   prepare (or phase-2) message draws the inflation eats the full 15-28s
   hit; a hedged commit pays the health-derived hedge delay (~4s) plus a
   fresh draw, which is clean with high probability — min-of-two turns a
   linear tail into a quadratic one. The p99 ratio at the middle
   probability is pinned >= 2x as a tier-1 test (test_brownout.ml). *)

let stores = [ "t1"; "t2" ]
let browned = "t1"

type sample = {
  b_commits : int;
  b_mean : float;
  b_p50 : float;
  b_p95 : float;
  b_p99 : float;
  b_hedges : int;
  b_brownouts : int;
}

let episode ~hedged ~prob ~commits ~seed () =
  let w =
    (* A LAN-like base latency: the paper's default U(0.5,1.5)s per hop
       makes a healthy ~20-round commit take ~24s, which would bury the
       15-28s inflation inside the baseline. On a 0.05-0.15s fabric the
       healthy commit is ~2.5s and a single browned hop is a 10x tail
       event — the regime hedging is built for. *)
    Service.create ~seed
      ?gray_failure:(if hedged then Some Service.Hedged else None)
      ~latency:(fun rng -> Sim.Rng.uniform rng 0.05 0.15)
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = stores;
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:stores ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let m = Service.metrics w in
  if prob > 0.0 then
    Net.Fault.brownout_for (Service.network w) ~at:2.0 ~duration:1.0e9 ~prob
      ~lo:15.0 ~hi:28.0 browned;
  let crng = Sim.Rng.split (Sim.Engine.rng eng) in
  let ok = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to commits do
        let t0 = Sim.Engine.now eng in
        (match
           Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
             ~policy:Replica.Policy.Single_copy_passive ~uid
             (fun act group -> ignore (Service.invoke w group ~act "add 1"))
         with
        | Ok () ->
            incr ok;
            Sim.Metrics.observe m "commit.latency" (Sim.Engine.now eng -. t0)
        | Error _ -> ());
        Sim.Engine.sleep eng (Sim.Rng.uniform crng 2.0 5.0)
      done);
  Service.run w;
  {
    b_commits = !ok;
    b_mean = Sim.Metrics.mean m "commit.latency";
    b_p50 = Sim.Metrics.percentile m "commit.latency" 50.0;
    b_p95 = Sim.Metrics.percentile m "commit.latency" 95.0;
    b_p99 = Sim.Metrics.percentile m "commit.latency" 99.0;
    b_hedges = Sim.Metrics.counter m "rpc.hedges";
    b_brownouts = Sim.Metrics.counter m "fault.brownout";
  }

(* The acceptance pin reads this: p99 commit latency of the unhedged run
   over the hedged run, same seed, same brownout schedule. The operating
   point keeps the per-message probability low enough that BOTH copies of
   a hedged call drawing the inflation (the only way a hedged commit
   stays slow) is rarer than the p99 itself. *)
let p99_ratio ?(prob = 0.02) ?(commits = 150) ?(seed = 31L) () =
  let unhedged = episode ~hedged:false ~prob ~commits ~seed () in
  let hedged = episode ~hedged:true ~prob ~commits ~seed () in
  (unhedged.b_p99 /. hedged.b_p99, unhedged, hedged)

let run () =
  let commits = 150 in
  let seed = 31L in
  let rows =
    List.concat_map
      (fun prob ->
        let unhedged = episode ~hedged:false ~prob ~commits ~seed () in
        let hedged = episode ~hedged:true ~prob ~commits ~seed () in
        let row label s ratio =
          [
            Printf.sprintf "%.2f" prob;
            label;
            Table.cell_i s.b_commits;
            Table.cell_f s.b_mean;
            Table.cell_f s.b_p50;
            Table.cell_f s.b_p95;
            Table.cell_f s.b_p99;
            Table.cell_i s.b_hedges;
            Table.cell_i s.b_brownouts;
            ratio;
          ]
        in
        [
          row "unhedged" unhedged "1.00x";
          row "hedged" hedged
            (Printf.sprintf "%.2fx" (unhedged.b_p99 /. hedged.b_p99));
        ])
      [ 0.0; 0.01; 0.02; 0.05 ]
  in
  Table.make
    ~title:"tab-brownout: hedged vs unhedged commit latency under gray failure"
    ~columns:
      [
        "brownout prob";
        "mode";
        "commits";
        "mean";
        "p50";
        "p95";
        "p99";
        "hedges";
        "inflations";
        "p99 gain";
      ]
    ~notes:
      [
        "One client, 150 sequential single-object commits, St = {t1, t2}";
        "with t1 browned out for the whole run: each message into or out";
        "of it gains U(15,28)s extra latency with the row's probability —";
        "below every timeout, so only the latency plane can see the";
        "sickness. Same seed per row pair; the only difference is the";
        "Hedged profile. Hedged store scatters launch a backup copy of";
        "the idempotent prepare/phase-2 call after a health-derived delay";
        "(EWMA + 3 x deviation over the fleet, floored at 4s) and take";
        "the first answer: a commit only stays slow when both draws come";
        "up inflated, so the linear latency tail goes quadratic. At";
        "prob 0.00 the two runs are identical (no hedge ever fires";
        "before the healthy RTT) — the off-path guard. The p99 gain at";
        "prob 0.02 is pinned >= 2x as a tier-1 test (test_brownout.ml).";
        "The world runs a LAN-like U(0.05,0.15)s hop latency so a browned";
        "hop is a 10x tail event rather than noise inside the baseline.";
      ]
    rows
