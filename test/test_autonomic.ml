(* Tests for the autonomic membership plane (§16): the controller's
   decision doctrine — hysteresis, quorum, flap-damping cooldown,
   heal-then-re-Include — driven deterministically through fabricated
   drivers, plus the tab-autonomic tier-1 pins (autonomic steady-state
   p99 back at baseline under a harsh brownout, healed store re-included
   consistently). *)

open Naming
module Au = Replica.Autonomic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fabricated worlds: a bare network, controllers on [servers], and
   injected drivers. The probe driver sleeps [slow_rtt] for stores the
   [slow] closure flags (just past the 10.0 probe budget, so the
   controller records a censored observation) and [fast_rtt] otherwise;
   exclude/include drivers count their invocations. *)

let slow_rtt = 12.0
let fast_rtt = 0.1

type fab = {
  f_eng : Sim.Engine.t;
  f_net : Net.Network.t;
  f_plane : Au.t;
  f_excl : int ref;
  f_incl : int ref;
}

let fab ?config ?(servers = [ "s1" ]) ?(exclude_n = 1) ~slow () =
  let eng = Sim.Engine.create ~seed:7L () in
  let net = Net.Network.create eng in
  List.iter (Net.Network.add_node net) (servers @ [ "t1"; "t2" ]);
  let rpc = Net.Rpc.create net in
  let excl = ref 0 and incl = ref 0 in
  let deps =
    {
      Au.d_rpc = rpc;
      d_stores = [ "t1"; "t2" ];
      d_servers = servers;
      d_probe =
        (fun ~from ~store ->
          Sim.Engine.sleep eng (if slow ~from ~store then slow_rtt else fast_rtt);
          Ok ());
      d_exclude =
        (fun ~from:_ ~store:_ ->
          incr excl;
          exclude_n);
      d_include = (fun ~store:_ -> incr incl);
    }
  in
  let plane = Au.create ?config deps in
  { f_eng = eng; f_net = net; f_plane = plane; f_excl = excl; f_incl = incl }

(* One probe-and-decide round for [node]'s controller, run to
   completion (ticks must run in a fiber on the controller's node). *)
let tick f node c =
  Net.Network.spawn_on f.f_net node ~name:"tick" (fun () ->
      Au.tick f.f_plane c);
  Sim.Engine.run f.f_eng

let metric f name = Sim.Metrics.counter (Net.Network.metrics f.f_net) name

(* ------------------------------------------------------------------ *)
(* Hysteresis: K-1 consecutive slow rounds never exclude; the Kth
   does. *)

let test_hysteresis_gate () =
  let f = fab ~slow:(fun ~from:_ ~store -> String.equal store "t1") () in
  let c = Au.attach f.f_plane "s1" in
  let k = (Au.config f.f_plane).Au.au_hysteresis in
  (* Tick until the streak sits one short of the bar: through all of it
     the exclude driver must never fire (the EWMA needs a few rounds to
     cross the slow floor before the streak even starts — that warm-up
     is part of the hysteresis, not an exception to it). *)
  let rounds = ref 0 in
  while Au.slow_streak f.f_plane "s1" "t1" < k - 1 && !rounds < 20 do
    tick f "s1" c;
    incr rounds
  done;
  check_int "streak reached K-1" (k - 1) (Au.slow_streak f.f_plane "s1" "t1");
  Alcotest.(check (list string))
    "K-1 slow rounds: no exclusion" [] (Au.excluded f.f_plane "s1");
  check_int "K-1 slow rounds: driver never called" 0 !(f.f_excl);
  check_int "membership untouched" 0 (Au.epoch f.f_plane "s1");
  tick f "s1" c;
  Alcotest.(check (list string))
    "Kth slow round excludes" [ "t1" ] (Au.excluded f.f_plane "s1");
  check_int "one exclusion driven" 1 !(f.f_excl);
  check_int "epoch bumped once" 1 (Au.epoch f.f_plane "s1");
  check_int "healthy peer untouched" 0 (Au.slow_streak f.f_plane "s1" "t2")

(* ------------------------------------------------------------------ *)
(* Quorum: a single observer among two controllers never excludes —
   only s1's probes see t1 slow, so s2's digest refuses to confirm and
   the proposal dies at the quorum gate every round. *)

let test_quorum_gate () =
  let f =
    fab
      ~servers:[ "s1"; "s2" ]
      ~slow:(fun ~from ~store ->
        String.equal from "s1" && String.equal store "t1")
      ()
  in
  let c1 = Au.attach f.f_plane "s1" in
  let c2 = Au.attach f.f_plane "s2" in
  for _ = 1 to 15 do
    tick f "s1" c1;
    tick f "s2" c2
  done;
  check_bool "streak well past the bar" true
    (Au.slow_streak f.f_plane "s1" "t1"
    >= (Au.config f.f_plane).Au.au_hysteresis);
  Alcotest.(check (list string))
    "lone observer never excludes" [] (Au.excluded f.f_plane "s1");
  check_int "exclude driver never called" 0 !(f.f_excl);
  check_bool "proposals died at the quorum gate" true
    (metric f "autonomic.quorum_refused" > 0)

(* ------------------------------------------------------------------ *)
(* Heal hysteresis, flap damping, and cooldown expiry, in one life
   cycle: exclude the sick store, heal it (re-Include only after K
   healthy rounds), sicken it again (cooldown refuses the re-Exclude),
   then let the cooldown lapse (the re-Exclude goes through). *)

let test_flap_damping_cycle () =
  let sick = ref true in
  let f =
    fab
      ~config:{ Au.default_config with Au.au_cooldown = 600.0 }
      ~slow:(fun ~from:_ ~store -> !sick && String.equal store "t1")
      ()
  in
  let c = Au.attach f.f_plane "s1" in
  let until cond limit =
    let rounds = ref 0 in
    while (not (cond ())) && !rounds < limit do
      tick f "s1" c;
      incr rounds
    done
  in
  until (fun () -> Au.excluded f.f_plane "s1" <> []) 25;
  Alcotest.(check (list string))
    "sick store excluded" [ "t1" ] (Au.excluded f.f_plane "s1");
  check_int "no include yet" 0 !(f.f_incl);
  (* Heal. One healthy round must not re-include (heal hysteresis). *)
  sick := false;
  tick f "s1" c;
  Alcotest.(check (list string))
    "one healthy round is not healed" [ "t1" ] (Au.excluded f.f_plane "s1");
  check_int "include driver not yet called" 0 !(f.f_incl);
  until (fun () -> Au.excluded f.f_plane "s1" = []) 15;
  check_int "catch-up re-Include driven once" 1 !(f.f_incl);
  check_int "epoch counts both changes" 2 (Au.epoch f.f_plane "s1");
  (* Flap: sick again immediately. The cooldown (600s, far beyond these
     rounds) must damp every re-Exclude proposal. *)
  sick := true;
  until
    (fun () ->
      Au.slow_streak f.f_plane "s1" "t1"
      >= (Au.config f.f_plane).Au.au_hysteresis)
    25;
  for _ = 1 to 3 do
    tick f "s1" c
  done;
  Alcotest.(check (list string))
    "cooldown damps the flap" [] (Au.excluded f.f_plane "s1");
  check_int "no second exclusion yet" 1 !(f.f_excl);
  check_bool "damping visible in metrics" true (metric f "autonomic.damped" > 0);
  (* Cooldown lapses: the still-sick store goes back out. *)
  Net.Network.spawn_on f.f_net "s1" ~name:"lapse" (fun () ->
      Sim.Engine.sleep f.f_eng 650.0);
  Sim.Engine.run f.f_eng;
  until (fun () -> Au.excluded f.f_plane "s1" <> []) 10;
  Alcotest.(check (list string))
    "re-excluded after the cooldown" [ "t1" ] (Au.excluded f.f_plane "s1");
  check_int "second exclusion driven" 2 !(f.f_excl)

(* ------------------------------------------------------------------ *)
(* A proposal whose exclude driver commits nothing (a commit's own §4.2
   exclusion beat it, or the store is the last copy) resets the streak:
   the next proposal is a full hysteresis window away, not next round. *)

let test_failed_exclude_backs_off () =
  let f =
    fab ~exclude_n:0 ~slow:(fun ~from:_ ~store -> String.equal store "t1") ()
  in
  let c = Au.attach f.f_plane "s1" in
  let rounds = ref 0 in
  while !(f.f_excl) = 0 && !rounds < 25 do
    tick f "s1" c;
    incr rounds
  done;
  check_int "proposal fired" 1 !(f.f_excl);
  Alcotest.(check (list string))
    "nothing excluded" [] (Au.excluded f.f_plane "s1");
  check_int "streak reset by the refusal" 0 (Au.slow_streak f.f_plane "s1" "t1");
  check_int "no membership change" 0 (Au.epoch f.f_plane "s1");
  (* The next K-1 rounds rebuild the streak without proposing. *)
  let k = (Au.config f.f_plane).Au.au_hysteresis in
  for _ = 1 to k - 1 do
    tick f "s1" c
  done;
  check_int "no re-proposal inside the window" 1 !(f.f_excl);
  tick f "s1" c;
  check_int "re-proposal a full window later" 2 !(f.f_excl)

(* ------------------------------------------------------------------ *)
(* tab-autonomic: the tier-1 pins *)

let test_autonomic_pins () =
  let baseline, hedged, auto = Workload.Exp_autonomic.pins () in
  check_int "baseline commits all landed" 130
    baseline.Workload.Exp_autonomic.a_commits;
  check_int "autonomic commits all landed" 130 auto.a_commits;
  check_int "a healthy world provokes no exclusion" 0 baseline.a_excludes;
  check_bool
    (Printf.sprintf "autonomic steady p99 %.2f <= 1.3x baseline %.2f"
       auto.a_steady_p99 baseline.a_steady_p99)
    true
    (auto.a_steady_p99 <= 1.3 *. baseline.a_steady_p99);
  check_bool
    (Printf.sprintf "hedging alone %.2f >= 2x baseline %.2f" hedged.a_steady_p99
       baseline.a_steady_p99)
    true
    (hedged.a_steady_p99 >= 2.0 *. baseline.a_steady_p99);
  check_bool "the sick store was excluded" true (auto.a_excludes >= 1);
  check_bool "the healed store was re-included" true (auto.a_includes >= 1);
  Alcotest.(check (list string))
    "final St holds both stores again" [ "t1"; "t2" ] auto.a_st_final;
  check_bool "post-catch-up states byte-identical, intent logs clean" true
    auto.a_consistent

(* ------------------------------------------------------------------ *)
(* Property: random brownout/heal schedules on the full autonomic world
   — every commit lands, and whatever membership state the run ends in
   (store back in, or still out), the chaos audit is clean: St members
   mutually consistent, no residue, no leaked fibers. *)

let prop_autonomic_random_schedules =
  QCheck.Test.make ~count:8
    ~name:"random brownout/heal schedules leave the autonomic world clean"
    QCheck.(
      triple (int_range 1 100_000) (float_range 0.2 0.8)
        (float_range 30.0 300.0))
    (fun (seed, prob, duration) ->
      let w =
        Service.create ~seed:(Int64.of_int seed) ~gray_failure:Service.Autonomic
          ~latency:(fun rng -> Sim.Rng.uniform rng 0.05 0.15)
          {
            Service.gvd_node = "ns";
            gvd_nodes = [];
            server_nodes = [ "alpha" ];
            store_nodes = [ "t1"; "t2" ];
            client_nodes = [ "c1" ];
          }
      in
      let uid =
        Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
          ~st:[ "t1"; "t2" ] ()
      in
      Service.run ~until:1.0 w;
      Net.Fault.brownout_for (Service.network w) ~at:2.0 ~duration ~prob
        ~lo:15.0 ~hi:28.0 "t1";
      let eng = Service.engine w in
      let crng = Sim.Rng.split (Sim.Engine.rng eng) in
      let ok = ref 0 in
      Service.spawn_client w "c1" (fun () ->
          for _ = 1 to 20 do
            (match
               Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
                 ~policy:Replica.Policy.Single_copy_passive ~uid
                 (fun act group -> ignore (Service.invoke w group ~act "add 1"))
             with
            | Ok () -> incr ok
            | Error _ -> ());
            Sim.Engine.sleep eng (Sim.Rng.uniform crng 2.0 5.0)
          done);
      Service.run w;
      !ok = 20 && Workload.Audit.chaos w = [])

let suite =
  [
    ( "autonomic",
      [
        Alcotest.test_case "K-1 slow rounds never exclude" `Quick
          test_hysteresis_gate;
        Alcotest.test_case "a lone observer never excludes" `Quick
          test_quorum_gate;
        Alcotest.test_case "heal hysteresis, flap damping, cooldown expiry"
          `Quick test_flap_damping_cycle;
        Alcotest.test_case "a refused exclude backs off a full window" `Quick
          test_failed_exclude_backs_off;
        Alcotest.test_case "pins: steady p99 at baseline, healed re-include"
          `Quick test_autonomic_pins;
        Test_util.qcheck prop_autonomic_random_schedules;
      ] );
  ]
