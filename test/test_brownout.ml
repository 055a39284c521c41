(* Tests for the gray-failure resilience plane: the per-destination
   latency health tracker, deadline propagation and server-side shedding,
   the deadline-independent forced half-open probe, daemon-aware drains
   (periodic controllers no longer block quiescence), cooperative hedge
   cancellation, the tab-brownout tier-1 pin (hedged p99 commit latency
   >= 2x better than unhedged under a browned-out store), and the
   gray-failure profile table: which planes each profile turns on. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Health: EWMA, slow indicator decay, ranking, hedge delay *)

let test_health_ewma_tracks_latency () =
  let h = Net.Health.create () in
  for i = 1 to 20 do
    Net.Health.note_ok h ~dst:"a" ~now:(float_of_int i) ~latency:1.0
  done;
  let e = Net.Health.latency_ewma h "a" in
  check_bool "ewma converges to the steady latency" true
    (e > 0.9 && e <= 1.0);
  check_int "samples counted" 20 (Net.Health.samples h "a");
  (* A burst of slow calls drags the EWMA up but never all the way. *)
  for i = 21 to 24 do
    Net.Health.note_ok h ~dst:"a" ~now:(float_of_int i) ~latency:20.0
  done;
  let e' = Net.Health.latency_ewma h "a" in
  check_bool "ewma moved toward the slow samples" true (e' > 5.0 && e' < 20.0)

let test_health_slow_indicator_decays () =
  let h = Net.Health.create () in
  for i = 1 to 10 do
    Net.Health.note_ok h ~dst:"b" ~now:(float_of_int i) ~latency:1.0
  done;
  (* Timeouts always count as slow calls (they bypass the fleet-relative
     latency bar, which a lone loud destination could otherwise drag up
     past its own samples). *)
  for i = 11 to 16 do
    Net.Health.note_failure h ~dst:"a" ~now:(float_of_int i)
  done;
  check_bool "sustained slow after repeated slow calls" true
    (Net.Health.sustained_slow h ~now:16.0 "a");
  check_bool "slow indicator present" true
    (Net.Health.slow_score h ~now:16.0 "a" > 0.5);
  (* Nobody calls it for a few time constants: health regrows. *)
  check_bool "indicator decays with the clock" true
    (Net.Health.slow_score h ~now:(16.0 +. 300.0) "a" < 0.1);
  check_bool "no longer sustained slow" false
    (Net.Health.sustained_slow h ~now:(16.0 +. 300.0) "a")

let test_health_one_bad_sample_is_not_sustained () =
  let h = Net.Health.create () in
  for i = 1 to 8 do
    Net.Health.note_ok h ~dst:"a" ~now:(float_of_int i) ~latency:1.0
  done;
  Net.Health.note_ok h ~dst:"a" ~now:9.0 ~latency:30.0;
  check_bool "one unlucky round trip never trips" false
    (Net.Health.sustained_slow h ~now:9.0 "a")

let test_health_rank_prefers_healthy () =
  let h = Net.Health.create () in
  (* Unknown world: caller order preserved. *)
  Alcotest.(check (list string))
    "all-unknown preserves order" [ "x"; "y"; "z" ]
    (Net.Health.rank h ~now:0.0 [ "x"; "y"; "z" ]);
  for i = 1 to 8 do
    Net.Health.note_ok h ~dst:"x" ~now:(float_of_int i) ~latency:1.0;
    Net.Health.note_ok h ~dst:"y" ~now:(float_of_int i) ~latency:1.0
  done;
  for i = 9 to 14 do
    Net.Health.note_ok h ~dst:"x" ~now:(float_of_int i) ~latency:25.0
  done;
  Alcotest.(check (list string))
    "sick destination sinks" [ "y"; "z"; "x" ]
    (Net.Health.rank h ~now:14.0 [ "x"; "y"; "z" ])

let test_health_hedge_delay_floor () =
  let h = Net.Health.create () in
  check_bool "pinned to the floor before 8 fleet samples" true
    (Net.Health.hedge_delay h = 4.0);
  for i = 1 to 20 do
    Net.Health.note_ok h ~dst:"a" ~now:(float_of_int i) ~latency:1.0
  done;
  let d = Net.Health.hedge_delay ~floor:0.1 h in
  check_bool "tracks ewma + 3 deviations once warmed" true
    (d >= 0.1 && d < 4.0);
  check_bool "default floor still binds on a fast fleet" true
    (Net.Health.hedge_delay h = 4.0)

(* ------------------------------------------------------------------ *)
(* Deadline propagation and server-side shedding *)

let shed_world ?gray_failure () =
  let eng = Sim.Engine.create ~seed:7L () in
  let net = Net.Network.create ?gray_failure eng in
  let rpc = Net.Rpc.create net in
  List.iter (Net.Network.add_node net) [ "client"; "server" ];
  (eng, net, rpc)

let echo : (string, string) Net.Rpc.endpoint = Net.Rpc.endpoint "echo"

let test_shed_expired_refuses_work () =
  let eng, net, rpc = shed_world ~gray_failure:Net.Network.Hedged () in
  let ran = ref 0 in
  Net.Rpc.serve rpc ~node:"server" echo (fun s -> incr ran; s);
  let got = ref (Ok "unset") in
  Net.Network.spawn_on net "client" (fun () ->
      (* The initiator's deadline has already passed when the request
         lands: the server must refuse without running the handler. *)
      got := Net.Rpc.call rpc ~from:"client" ~dst:"server" ~deadline_at:0.0
               echo "hi");
  Sim.Engine.run eng;
  Alcotest.(check (result string (of_pp Net.Rpc.pp_error)))
    "refused as timed out" (Error Net.Rpc.Timed_out) !got;
  check_int "handler never ran" 0 !ran;
  check_int "shed counted" 1
    (Sim.Metrics.counter (Net.Network.metrics net) "retry.shed_expired")

let test_shed_off_deadline_is_inert () =
  let eng, net, rpc = shed_world () in
  let ran = ref 0 in
  Net.Rpc.serve rpc ~node:"server" echo (fun s -> incr ran; s);
  let got = ref (Error Net.Rpc.Timed_out) in
  Net.Network.spawn_on net "client" (fun () ->
      got := Net.Rpc.call rpc ~from:"client" ~dst:"server" ~deadline_at:0.0
               echo "hi");
  Sim.Engine.run eng;
  Alcotest.(check (result string (of_pp Net.Rpc.pp_error)))
    "carried but not acted on" (Ok "hi") !got;
  check_int "handler ran" 1 !ran;
  check_int "nothing shed" 0
    (Sim.Metrics.counter (Net.Network.metrics net) "retry.shed_expired")

(* ------------------------------------------------------------------ *)
(* Breaker: the half-open probe must not starve under a caller deadline *)

let test_forced_probe_under_deadline () =
  let eng, net, _ = shed_world () in
  let retry = Net.Retry.create net in
  let m = Net.Network.metrics net in
  let healthy = ref false in
  let body () = if !healthy then Ok () else Error "down" in
  let quick = Net.Retry.policy ~attempts:1 () in
  let outcome = ref (Error "unset") in
  Net.Network.spawn_on net "client" (fun () ->
      (* Three consecutive failures open the breaker (cooldown 8s). *)
      for _ = 1 to 3 do
        ignore (Net.Retry.run retry ~dst:"server" ~op:"t" quick body)
      done;
      check_bool "breaker open" true (Net.Retry.breaker_open retry "server");
      healthy := true;
      (* The caller's whole deadline ends before the cooldown does. A
         naive breaker sheds every attempt and the caller never learns
         the destination recovered; the fix forces one attempt through
         as the half-open probe, independent of the cooldown clock. *)
      let deadline_at = Sim.Engine.now eng +. 2.0 in
      outcome :=
        Net.Retry.run retry ~dst:"server" ~deadline_at ~op:"t"
          (Net.Retry.policy ~attempts:3 ~base:0.5 ())
          body);
  Sim.Engine.run eng;
  check_bool "recovered result reached the caller" true (!outcome = Ok ());
  check_bool "probe was forced through the open breaker" true
    (Sim.Metrics.counter m "retry.forced_probes" >= 1);
  check_bool "breaker closed by the successful probe" false
    (Net.Retry.breaker_open retry "server")

(* ------------------------------------------------------------------ *)
(* Daemon-aware drain: periodic controllers must not block quiescence *)

let topo =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = [ "alpha" ];
    store_nodes = [ "t1"; "t2" ];
    client_nodes = [ "c1" ];
  }

let test_autonomic_daemons_drain () =
  (* Before daemon-aware drains this looped forever: every controller
     cycle issues probe RPCs whose 60s guard timers kept
     [nondaemon_queued] above zero, so the drain chased an ever-receding
     horizon. *)
  let w = Service.create ~seed:5L ~gray_failure:Service.Autonomic topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  let committed = ref false in
  Service.spawn_client w "c1" (fun () ->
      committed :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
            ignore (Service.invoke w group ~act "add 1"))
        = Ok ());
  Service.run w;
  check_bool "commit landed" true !committed;
  check_bool "drain terminated promptly" true
    (Sim.Engine.now (Service.engine w) < 200.0);
  Alcotest.(check (list string)) "audit clean" [] (Workload.Audit.chaos w)

(* ------------------------------------------------------------------ *)
(* tab-brownout: the tier-1 pin and its guard rails *)

let test_brownout_p99_pin () =
  let ratio, unhedged, hedged = Workload.Exp_brownout.p99_ratio () in
  check_int "unhedged commits all landed" 150
    unhedged.Workload.Exp_brownout.b_commits;
  check_int "hedged commits all landed" 150 hedged.b_commits;
  check_bool "hedges actually launched" true (hedged.b_hedges > 0);
  check_bool
    (Printf.sprintf "p99 ratio %.2f >= 2.0" ratio)
    true (ratio >= 2.0)

let test_brownout_off_path_identical () =
  let u =
    Workload.Exp_brownout.episode ~hedged:false ~prob:0.0 ~commits:40
      ~seed:31L ()
  in
  let h =
    Workload.Exp_brownout.episode ~hedged:true ~prob:0.0 ~commits:40
      ~seed:31L ()
  in
  check_bool "byte-identical latency trajectory with the knob on" true
    (u.Workload.Exp_brownout.b_mean = h.Workload.Exp_brownout.b_mean
    && u.b_p50 = h.b_p50 && u.b_p95 = h.b_p95 && u.b_p99 = h.b_p99);
  check_int "no hedge fires before a healthy RTT" 0 h.b_hedges

let test_hedge_cancellation_keeps_rounds_sound () =
  (* At this probability a losing primary prepare regularly arrives after
     the backup's round already committed; without delivery-time
     cancellation it re-staged a ghost intent and wedged every later
     commit with a version conflict. All commits landing is the proof. *)
  let s =
    Workload.Exp_brownout.episode ~hedged:true ~prob:0.05 ~commits:150
      ~seed:31L ()
  in
  check_int "no commit lost to a ghost intent" 150
    s.Workload.Exp_brownout.b_commits

(* ------------------------------------------------------------------ *)
(* The gray-failure profile: one setting, three worlds. Each row names
   the planes that must be live under its profile, and each plane is
   probed by its own observable effect: hedged scatters and sibling
   wins against a store browned out on every message, a call whose
   deadline passed before it landed, a retry towards a destination the
   health plane reports sustainedly slow, and the controller handle.
   Only health records are forged ([forge_slow]); every decision taken
   on them is the plane's own. *)

let forge_slow net ~now dst =
  for i = 1 to 6 do
    Net.Health.note_failure (Net.Network.health net) ~dst
      ~now:(now +. (0.1 *. float_of_int i))
  done

type planes = {
  p_hedges : int;
  p_sibling_wins : int;
  p_shed : bool;
  p_tripped : bool;
  p_controllers : bool;
}

let probe_planes gray_failure =
  let w =
    Service.create ~seed:11L ?gray_failure
      ~latency:(fun rng -> Sim.Rng.uniform rng 0.05 0.15)
      topo
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  let net = Service.network w in
  let eng = Service.engine w in
  let m = Service.metrics w in
  Net.Fault.brownout_for net ~at:2.0 ~duration:1.0e9 ~prob:1.0 ~lo:10.0
    ~hi:12.0 "t1";
  Service.spawn_client w "c1" (fun () ->
      (* t1 already looks sustainedly slow when the first commit starts,
         before any controller could have excluded it. *)
      forge_slow net ~now:(Sim.Engine.now eng) "t1";
      for _ = 1 to 8 do
        ignore
          (Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
             ~policy:Replica.Policy.Single_copy_passive ~uid
             (fun act group -> ignore (Service.invoke w group ~act "add 1")));
        Sim.Engine.sleep eng 3.0
      done);
  Service.run ~until:400.0 w;
  let rpc = Action.Atomic.rpc (Service.atomic w) in
  Net.Rpc.serve rpc ~node:"alpha" echo Fun.id;
  let shed = ref false and tripped = ref false in
  Service.spawn_client w "c1" (fun () ->
      shed :=
        Net.Rpc.call rpc ~from:"c1" ~dst:"alpha" ~deadline_at:0.0 echo "hi"
        = Error Net.Rpc.Timed_out;
      forge_slow net ~now:(Sim.Engine.now eng) "ns";
      let retry = Action.Atomic.retry (Service.atomic w) in
      tripped :=
        Result.is_error
          (Net.Retry.run retry ~dst:"ns" ~op:"probe"
             (Net.Retry.policy ~attempts:1 ())
             (fun () -> Ok ()))
        && Net.Retry.breaker_open retry "ns");
  Service.run ~until:800.0 w;
  {
    p_hedges = Sim.Metrics.counter m "rpc.hedges";
    p_sibling_wins = Sim.Metrics.counter m "rpc.sibling_wins";
    p_shed = !shed;
    p_tripped = !tripped;
    p_controllers = Service.autonomic w <> None;
  }

let test_profiles_switch_their_planes () =
  List.iter
    (fun (label, gray_failure, hedged, autonomic) ->
      let p = probe_planes gray_failure in
      check_bool (label ^ ": hedged scatters") hedged (p.p_hedges > 0);
      check_bool (label ^ ": deadline shedding") hedged p.p_shed;
      check_bool (label ^ ": degraded breaker trips") hedged p.p_tripped;
      check_bool (label ^ ": sibling routing") autonomic (p.p_sibling_wins > 0);
      check_bool (label ^ ": autonomic controllers") autonomic p.p_controllers)
    [
      ("none", None, false, false);
      ("Hedged", Some Service.Hedged, true, false);
      ("Autonomic", Some Service.Autonomic, true, true);
    ]

(* ------------------------------------------------------------------ *)
(* Only idempotent calls race a backup. With the naming node browned out
   on every message, each round trip to it outlasts the hedge delay, so
   every hedged call launches its backup copy. Plain reads must hedge;
   the action's bind and update must not: a backup copy rides below the
   duplicate guard with a fresh request id and would stage a second
   Increment or Decrement. *)

let test_only_idempotent_calls_hedge () =
  let w = Service.create ~seed:13L ~gray_failure:Service.Hedged topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  let net = Service.network w and m = Service.metrics w in
  let gvd = Service.gvd w in
  Net.Fault.brownout_for net ~at:2.0 ~duration:1.0e9 ~prob:1.0 ~lo:10.0
    ~hi:12.0 "ns";
  let rounds = 3 in
  let binds = Sim.Metrics.counter m "rpc.op.gvd.bind"
  and updates = Sim.Metrics.counter m "rpc.op.gvd.update" in
  (* Healthy round trips between the naming calls keep the fleet's
     latency, and so the hedge delay, far below the naming node's. *)
  let healthy_traffic () =
    for _ = 1 to 12 do
      ignore
        (Action.Store_host.probe (Service.store_host w) ~from:"c1"
           ~store:"t1")
    done
  in
  let read_hedges = ref 0 and committed = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      Sim.Engine.sleep (Service.engine w) 2.0;
      for _ = 1 to rounds do
        healthy_traffic ();
        ignore (Gvd.lookup gvd ~from:"c1" "obj");
        healthy_traffic ();
        ignore (Gvd.snapshot gvd ~from:"c1" uid)
      done;
      read_hedges := Sim.Metrics.counter m "rpc.hedges";
      (* A counted bind carries the shard's vote, so it is its action's
         only request there: the Decrement runs in an action of its own. *)
      for _ = 1 to rounds do
        healthy_traffic ();
        match
          Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
              healthy_traffic ();
              match Gvd.bind gvd ~act ~uid (Gvd.Counted { replicas = 1; credits = [] }) with
              | Ok (Gvd.Granted bv) -> bv.Gvd.bv_servers
              | _ -> raise (Action.Atomic.Abort "bind refused"))
        with
        | Error _ -> ()
        | Ok servers -> (
            match
              Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
                  healthy_traffic ();
                  ignore (Gvd.update gvd ~act uid (Gvd.Decrement { client = "c1"; servers })))
            with
            | Ok () -> incr committed
            | Error _ -> ())
      done);
  Service.run w;
  check_bool "plain reads hedged" true (!read_hedges > 0);
  check_int "every action committed" rounds !committed;
  check_int "one gvd.bind per bind issued" rounds
    (Sim.Metrics.counter m "rpc.op.gvd.bind" - binds);
  check_int "one gvd.update per update issued" rounds
    (Sim.Metrics.counter m "rpc.op.gvd.update" - updates);
  check_int "use lists back at zero" 0
    (List.fold_left
       (fun acc (_, ul) -> acc + Use_list.total ul)
       0 (Gvd.current_uses gvd uid))

(* ------------------------------------------------------------------ *)
(* Property: hedged duplicates stay exactly-once under dup=1.0 links
   and random brownout schedules *)

let prop_hedged_dup_exactly_once =
  QCheck.Test.make ~count:12
    ~name:"hedged + dup=1.0 + random brownout keeps commits exactly-once"
    QCheck.(
      triple (int_range 1 1000) (float_range 0.0 0.3) (float_range 5.0 15.0))
    (fun (seed, prob, lo) ->
      let w =
        Service.create ~seed:(Int64.of_int seed) ~gray_failure:Service.Hedged
          topo
      in
      let uid =
        Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
          ~st:[ "t1"; "t2" ] ()
      in
      Service.run ~until:1.0 w;
      (* Every server->store message arrives twice, on top of whatever
         duplication hedging itself produces; t1 is browned out. *)
      Net.Network.set_link_fault (Service.network w) ~dup:1.0 ~src:"alpha"
        ~dst:"t1" ();
      if prob > 0.0 then
        Net.Fault.brownout_for (Service.network w) ~at:2.0 ~duration:1.0e9
          ~prob ~lo ~hi:(lo +. 10.0) "t1";
      let commits = ref 0 in
      Service.spawn_client w "c1" (fun () ->
          for _ = 1 to 3 do
            match
              Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
                ~policy:Replica.Policy.Single_copy_passive ~uid
                (fun act group -> ignore (Service.invoke w group ~act "add 1"))
            with
            | Ok () -> incr commits
            | Error _ -> ()
          done);
      Service.run w;
      let payload st =
        match
          Store.Object_store.read
            (Action.Store_host.objects (Service.store_host w) st)
            uid
        with
        | Some s -> s.Store.Object_state.payload
        | None -> "<missing>"
      in
      !commits = 3
      && payload "t1" = "3"
      && payload "t2" = "3"
      && Workload.Audit.chaos w = [])

let suite =
  [
    ( "brownout",
      [
        Alcotest.test_case "health ewma tracks latency" `Quick
          test_health_ewma_tracks_latency;
        Alcotest.test_case "health slow indicator decays" `Quick
          test_health_slow_indicator_decays;
        Alcotest.test_case "one bad sample is not sustained slowness" `Quick
          test_health_one_bad_sample_is_not_sustained;
        Alcotest.test_case "rank sinks the sick destination" `Quick
          test_health_rank_prefers_healthy;
        Alcotest.test_case "hedge delay floors until warmed" `Quick
          test_health_hedge_delay_floor;
        Alcotest.test_case "shedding refuses expired work" `Quick
          test_shed_expired_refuses_work;
        Alcotest.test_case "deadline metadata inert with shedding off" `Quick
          test_shed_off_deadline_is_inert;
        Alcotest.test_case "forced half-open probe beats the deadline" `Quick
          test_forced_probe_under_deadline;
        Alcotest.test_case "autonomic daemons never block the drain"
          `Quick test_autonomic_daemons_drain;
        Alcotest.test_case "pin: hedged p99 >= 2x under brownout" `Quick
          test_brownout_p99_pin;
        Alcotest.test_case "prob 0: hedged run identical to unhedged" `Quick
          test_brownout_off_path_identical;
        Alcotest.test_case "late losing hedge cannot wedge later rounds"
          `Quick test_hedge_cancellation_keeps_rounds_sound;
        Alcotest.test_case "profiles switch exactly their planes" `Quick
          test_profiles_switch_their_planes;
        Alcotest.test_case "only idempotent calls race a backup" `Quick
          test_only_idempotent_calls_hedge;
        Test_util.qcheck prop_hedged_dup_exactly_once;
      ] );
  ]
