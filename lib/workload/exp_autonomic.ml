open Naming

(* tab-autonomic: health-driven Exclude/Include of a browned store.

   The same gray-failure regime as tab-brownout — St spans two stores on
   a LAN-like fabric, one store browned out (probabilistic 15-28s
   service-time inflation, below every timeout, so only the latency
   plane can see the sickness) — but the brownout is HARSH (most
   messages inflated) and HEALS mid-run. Four modes over the same seed
   and schedule:

   - [baseline]  : no fault, same profile as [autonomic] — the yardstick;
   - [unhedged]  : the fault with no countermeasure at all;
   - [hedged]    : the [Hedged] gray-failure profile. The backup copy
                   re-sends to the
                   SAME browned store, so under a harsh brownout both
                   copies draw the inflation and the tail barely moves —
                   hedging is built for rare inflation, not a store that
                   is simply sick;
   - [autonomic] : the [Autonomic] profile, adding the §16 controller
                   to [Hedged]. After the
                   hysteresis window the browned store is Excluded from
                   every [St]; commits then scatter to the healthy store
                   only and steady-state latency returns to baseline.
                   When the brownout heals, the controller re-Includes
                   the store through the catch-up fence, and the run
                   ends with both stores back in [St] holding identical
                   committed state.

   The steady-state window [steady_lo, steady_hi] sits inside the
   brownout, late enough that the controller's exclusion (probe cadence
   x hysteresis, with probe round-trips themselves inflated) has
   settled. The pins (test_autonomic.ml): autonomic steady-state p99 <=
   1.3x baseline p99; hedged-only >= 2x baseline p99; the healed store
   is back in St with byte-identical committed state and a clean
   intent log. *)

let stores = [ "t1"; "t2" ]
let browned = "t1"
let brownout_at = 2.0
let brownout_heals = 400.0
let steady_lo = 200.0
let steady_hi = 390.0

type mode = Baseline | Unhedged | Hedged | Autonomic

let mode_label = function
  | Baseline -> "baseline"
  | Unhedged -> "unhedged"
  | Hedged -> "hedged"
  | Autonomic -> "autonomic"

type sample = {
  a_commits : int;
  a_p50 : float;
  a_p99 : float;
  a_steady_p99 : float;  (** commits begun inside the steady window *)
  a_excludes : int;
  a_includes : int;
  a_st_final : string list;  (** St of the object at end of run, sorted *)
  a_consistent : bool;
      (** every St member holds byte-identical committed state and an
          empty intent log *)
}

let episode ~mode ~prob ~commits ~seed () =
  let gray_failure =
    match mode with
    | Unhedged -> None
    | Hedged -> Some Service.Hedged
    | Baseline | Autonomic -> Some Service.Autonomic
  in
  let w =
    Service.create ~seed ?gray_failure
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
  (match mode with
  | Baseline -> ()
  | _ ->
      Net.Fault.brownout_for (Service.network w) ~at:brownout_at
        ~duration:(brownout_heals -. brownout_at) ~prob ~lo:15.0 ~hi:28.0
        browned);
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
            let lat = Sim.Engine.now eng -. t0 in
            Sim.Metrics.observe m "commit.latency" lat;
            if t0 >= steady_lo && t0 <= steady_hi then
              Sim.Metrics.observe m "commit.steady_latency" lat
        | Error _ -> ());
        Sim.Engine.sleep eng (Sim.Rng.uniform crng 2.0 5.0)
      done);
  Service.run w;
  let st_final =
    List.sort String.compare (Router.current_st (Service.router w) uid)
  in
  let sh = Service.store_host w in
  let consistent =
    match st_final with
    | [] -> false
    | first :: _ ->
        let state_of n =
          Store.Object_store.read (Action.Store_host.objects sh n) uid
        in
        let base = state_of first in
        base <> None
        && List.for_all
             (fun n ->
               (match (state_of n, base) with
               | Some a, Some b ->
                   String.equal a.Store.Object_state.payload
                     b.Store.Object_state.payload
                   && Store.Version.compare a.Store.Object_state.version
                        b.Store.Object_state.version
                      = 0
               | _ -> false)
               && Store.Intent_log.in_doubt (Action.Store_host.log sh n) = [])
             st_final
  in
  {
    a_commits = !ok;
    a_p50 = Sim.Metrics.percentile m "commit.latency" 50.0;
    a_p99 = Sim.Metrics.percentile m "commit.latency" 99.0;
    a_steady_p99 = Sim.Metrics.percentile m "commit.steady_latency" 99.0;
    a_excludes = Sim.Metrics.counter m "autonomic.excludes";
    a_includes = Sim.Metrics.counter m "autonomic.includes";
    a_st_final = st_final;
    a_consistent = consistent;
  }

(* The acceptance pins read this triple: steady-state p99 inside the
   brownout, autonomic vs hedging-only, both against the no-fault
   baseline with identical profile and seed. *)
let pins ?(prob = 0.7) ?(commits = 130) ?(seed = 47L) () =
  let baseline = episode ~mode:Baseline ~prob ~commits ~seed () in
  let hedged = episode ~mode:Hedged ~prob ~commits ~seed () in
  let auto = episode ~mode:Autonomic ~prob ~commits ~seed () in
  (baseline, hedged, auto)

let run () =
  let prob = 0.7 in
  let commits = 130 in
  let seed = 47L in
  let rows =
    List.map
      (fun mode ->
        let s = episode ~mode ~prob ~commits ~seed () in
        [
          mode_label mode;
          Table.cell_i s.a_commits;
          Table.cell_f s.a_p50;
          Table.cell_f s.a_p99;
          Table.cell_f s.a_steady_p99;
          Table.cell_i s.a_excludes;
          Table.cell_i s.a_includes;
          String.concat "+" s.a_st_final;
          (if s.a_consistent then "yes" else "NO");
        ])
      [ Baseline; Unhedged; Hedged; Autonomic ]
  in
  Table.make
    ~title:
      "tab-autonomic: health-driven Exclude/Include of a browned store (§16)"
    ~columns:
      [
        "mode";
        "commits";
        "p50";
        "p99";
        "steady p99";
        "excludes";
        "includes";
        "final St";
        "consistent";
      ]
    ~notes:
      [
        "One client, 130 sequential commits, St = {t1, t2}, with t1";
        "browned out over [2, 400): each message into or out of it gains";
        "U(15,28)s with probability 0.7 — alive, voting, and sick.";
        "Hedging alone re-sends the backup to the same browned store, so";
        "a harsh brownout defeats it (both copies draw the inflation).";
        "The autonomic controller probes the stores every 5s on a private";
        "health tracker; after 3 consecutive slow rounds it Excludes t1";
        "through the optimistic validated round — commits then pay only";
        "the healthy store, and the steady-state p99 (commits begun in";
        "[200, 390]) returns to the no-fault baseline. When the brownout";
        "heals, the controller re-Includes t1 behind the catch-up fence:";
        "the run ends with St = {t1, t2}, byte-identical committed states";
        "and empty intent logs. Pins (test_autonomic.ml): autonomic steady";
        "p99 <= 1.3x baseline; hedged-only >= 2x baseline; final St";
        "contains t1 again with the consistency audit clean.";
      ]
    rows
