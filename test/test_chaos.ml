(* The chaos plumbing: message-level fault primitives, the unified
   Net.Retry policy engine, and duplicate-delivery idempotence of the
   naming protocols. *)

open Naming

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Net.Retry *)

(* A bare world big enough to run retry loops in a fiber. *)
let retry_world ?(seed = 5L) () =
  let eng = Sim.Engine.create ~seed () in
  let net = Net.Network.create eng in
  List.iter (Net.Network.add_node net) [ "a"; "b" ];
  (eng, net, Net.Retry.create net)

let test_retry_deadline () =
  let eng, net, r = retry_world () in
  let calls = ref 0 in
  let finished_at = ref nan in
  Net.Network.spawn_on net "a" (fun () ->
      let deadline_at = Sim.Engine.now eng +. 5.0 in
      let out =
        Net.Retry.run r ~deadline_at ~op:"test.deadline"
          (Net.Retry.policy ~attempts:50 ~base:1.0 ~factor:2.0
             ~max_delay:16.0 ())
          (fun () ->
            incr calls;
            Error "never")
      in
      check_bool "gives up" true (Result.is_error out);
      finished_at := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_bool "stopped before the deadline" true (!finished_at < 5.0);
  check_bool "made progress first" true (!calls > 1);
  check_bool "counted as deadline exhaustion" true
    (Sim.Metrics.counter (Net.Network.metrics net) "retry.deadline_exhausted"
    >= 1)

(* The backoff schedule (jitter included) is a pure function of the world
   seed: two worlds with the same seed retry at identical virtual times;
   a different seed jitters differently. *)
let backoff_schedule ~seed =
  let eng, net, r = retry_world ~seed () in
  let stamps = ref [] in
  Net.Network.spawn_on net "a" (fun () ->
      ignore
        (Net.Retry.run r ~op:"test.jitter"
           (Net.Retry.policy ~attempts:8 ~base:1.0 ~factor:1.7
              ~max_delay:16.0 ())
           (fun () ->
             stamps := Sim.Engine.now eng :: !stamps;
             Error "never")));
  Sim.Engine.run eng;
  List.rev !stamps

let test_retry_jitter_deterministic () =
  let a = backoff_schedule ~seed:42L in
  let b = backoff_schedule ~seed:42L in
  let c = backoff_schedule ~seed:43L in
  check_bool "same seed, same schedule" true (a = b);
  check_bool "schedule actually jitters" true
    (List.exists (fun t -> Float.rem t 1.0 <> 0.0) a);
  check_bool "different seed, different schedule" true (a <> c)

let test_retry_sheds_down_node () =
  let eng, net, r = retry_world () in
  Net.Network.crash net "b";
  Net.Network.spawn_on net "a" (fun () ->
      let invocations = ref 0 in
      ignore
        (Net.Retry.run r ~dst:"b" ~op:"test.shed"
           (Net.Retry.policy ~attempts:4 ~base:1.0 ~factor:2.0
              ~max_delay:16.0 ())
           (fun () ->
             incr invocations;
             Error "unreachable"));
      check_int "never sends into a known-dead node" 0 !invocations;
      check_int "all attempts shed" 4
        (Sim.Metrics.counter (Net.Network.metrics net) "retry.sheds"));
  Sim.Engine.run eng

(* ------------------------------------------------------------------ *)
(* Message-level fault primitives *)

(* Fire [n] one-way RPCs across a faulty link; return (answered, metrics). *)
let rpc_burst ~seed ~faults n =
  let eng = Sim.Engine.create ~seed () in
  let net = Net.Network.create eng in
  List.iter (Net.Network.add_node net) [ "src"; "dst" ];
  let rpc = Net.Rpc.create net in
  let ep : (int, int) Net.Rpc.endpoint = Net.Rpc.endpoint "burst" in
  let served = ref 0 in
  Net.Rpc.serve rpc ~node:"dst" ep (fun v ->
      incr served;
      v * 2);
  faults net;
  let answered = ref 0 in
  Net.Network.spawn_on net "src" (fun () ->
      for i = 1 to n do
        match Net.Rpc.call rpc ~from:"src" ~dst:"dst" ep i with
        | Ok _ -> incr answered
        | Error _ -> ()
      done);
  Sim.Engine.run eng;
  (!answered, !served, Net.Network.metrics net)

let test_fault_drop_deterministic () =
  let run seed =
    rpc_burst ~seed 60 ~faults:(fun net ->
        Net.Network.set_link_fault net ~drop:0.3 ~src:"src" ~dst:"dst" ())
  in
  let a1, s1, m1 = run 7L in
  let a2, s2, m2 = run 7L in
  let drops seed_metrics = Sim.Metrics.counter seed_metrics "fault.drop" in
  check_bool "some requests dropped" true (drops m1 > 0);
  check_bool "some requests survived" true (a1 > 0);
  check_int "same seed, same answered" a1 a2;
  check_int "same seed, same served" s1 s2;
  check_int "same seed, same drop count" (drops m1) (drops m2);
  let a3, _, m3 = run 8L in
  check_bool "different seed, different outcome" true
    (a3 <> a1 || drops m3 <> drops m1)

let test_fault_dup_suppressed () =
  let answered, served, m =
    rpc_burst ~seed:7L 40 ~faults:(fun net ->
        Net.Network.set_link_fault net ~dup:0.5 ~src:"src" ~dst:"dst" ())
  in
  check_int "duplicates never reach the handler twice" answered served;
  check_bool "duplicates were injected" true
    (Sim.Metrics.counter m "fault.dup" > 0);
  check_bool "and suppressed by the rpc dedup" true
    (Sim.Metrics.counter m "rpc.dup_suppressed" > 0)

let test_fault_oneway_cut () =
  let eng = Sim.Engine.create ~seed:3L () in
  let net = Net.Network.create eng in
  List.iter (Net.Network.add_node net) [ "src"; "dst" ];
  Net.Network.set_oneway_cut net ~src:"src" ~dst:"dst" true;
  check_bool "forward direction cut" false (Net.Network.reachable net "src" "dst");
  check_bool "reverse direction healthy" true (Net.Network.reachable net "dst" "src");
  Net.Network.clear_all_faults net;
  check_bool "heal restores the link" true (Net.Network.reachable net "src" "dst")

let test_fault_spike_delays () =
  let eng = Sim.Engine.create ~seed:11L () in
  let net = Net.Network.create eng in
  List.iter (Net.Network.add_node net) [ "src"; "dst" ];
  let rpc = Net.Rpc.create net in
  let ep : (unit, unit) Net.Rpc.endpoint = Net.Rpc.endpoint "ping" in
  Net.Rpc.serve rpc ~node:"dst" ep (fun () -> ());
  Net.Network.set_link_fault net ~spike_prob:1.0 ~spike:50.0 ~src:"src"
    ~dst:"dst" ();
  let rtt = ref 0.0 in
  Net.Network.spawn_on net "src" (fun () ->
      let t0 = Sim.Engine.now eng in
      ignore (Net.Rpc.call rpc ~from:"src" ~dst:"dst" ep ());
      rtt := Sim.Engine.now eng -. t0);
  Sim.Engine.run eng;
  check_bool "spike visibly delays the request" true (!rtt >= 50.0);
  check_bool "spikes counted" true
    (Sim.Metrics.counter (Net.Network.metrics net) "fault.delay" > 0)

(* ------------------------------------------------------------------ *)
(* Duplicate-delivery idempotence of the naming protocols: with the
   client->gvd link duplicating every message, counted binds' increments and
   the merged Decrement flush must still apply exactly once. *)

let dup_world () =
  let w =
    Service.create ~seed:17L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "s1"; "s2" ];
        store_nodes = [ "t1" ];
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "s1"; "s2" ]
      ~st:[ "t1" ] ()
  in
  Service.run ~until:1.0 w;
  (* Everything the client says to the database arrives twice. *)
  Net.Network.set_link_fault (Service.network w) ~dup:1.0 ~src:"c1" ~dst:"ns" ();
  (w, uid)

let test_dup_bind_idempotent () =
  let w, uid = dup_world () in
  let commits = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 3 do
        match
          Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
            ~policy:(Replica.Policy.Active 2) ~uid (fun act group ->
              ignore (Service.invoke w group ~act "add 5"))
        with
        | Ok () -> incr commits
        | Error _ -> ()
      done);
  Service.run w;
  let m = Service.metrics w in
  check_int "all actions committed" 3 !commits;
  check_bool "duplicates were delivered" true
    (Sim.Metrics.counter m "rpc.dup_suppressed" > 0);
  (* Idempotence, externally observed: every duplicated increment and
     merged decrement netted out — the use list is quiescent and the
     consolidated audit finds nothing. *)
  check_bool "use list quiescent" true (Gvd.quiescent (Service.gvd w) uid);
  Alcotest.(check (list string)) "audit clean" [] (Workload.Audit.chaos w);
  let payload =
    match
      Store.Object_store.read
        (Action.Store_host.objects (Service.store_host w) "t1")
        uid
    with
    | Some s -> s.Store.Object_state.payload
    | None -> "<missing>"
  in
  Alcotest.(check string) "adds applied exactly once each" "15" payload

let test_dup_decrement_flush_idempotent () =
  let w, uid = dup_world () in
  (* Two quick binds inside one flush window, so their Use_delta credits
     coalesce into a single merged Decrement — which the link then
     duplicates. *)
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 2 do
        ignore
          (Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
             ~policy:Replica.Policy.Single_copy_passive ~uid
             (fun act group -> ignore (Service.invoke w group ~act "add 1")))
      done);
  Service.run w;
  let m = Service.metrics w in
  check_bool "flush ran" true (Sim.Metrics.counter m "bind.flushes" > 0);
  check_bool "duplicates were delivered" true
    (Sim.Metrics.counter m "rpc.dup_suppressed" > 0);
  check_bool "use list quiescent after merged decrement" true
    (Gvd.quiescent (Service.gvd w) uid);
  Alcotest.(check (list string)) "audit clean" [] (Workload.Audit.chaos w)

(* Duplicate delivery on the commit path: a link that duplicates every
   client<->store message, reorders some and drops a few while full
   states are copied back. Rpc dedup plus the store's per-action prepare
   replacement and idempotent phase 2 must land each acknowledged commit
   exactly once. *)

let test_dup_copy_back_exact () =
  let w =
    Service.create ~seed:21L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "t1"; "t2" ];
        client_nodes = [ "c1"; "c2" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  let net = Service.network w in
  List.iter
    (fun (src, dst) ->
      Net.Fault.link_faults_for net ~at:1.0 ~duration:600.0 ~drop:0.1
        ~dup:1.0 ~reorder:0.3 ~spike_prob:0.0 ~spike:0.0 ~src ~dst ())
    [ ("c1", "t1"); ("c1", "t2"); ("t1", "c1"); ("t2", "c1") ];
  let committed = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 8 do
        (match
           Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
             ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
               ignore (Service.invoke w group ~act "add 1"))
         with
        | Ok () -> incr committed
        | Error _ -> ());
        Sim.Engine.sleep (Service.engine w) 5.0
      done);
  Service.run w;
  (* Same janitor pass as the chaos harness: re-pull any phase-2
     decision a dropped message left in doubt. *)
  List.iter
    (fun node ->
      Net.Network.spawn_on net node ~name:(node ^ ".resolve") (fun () ->
          Action.Termination.resolve_in_doubt (Service.atomic w) ~node))
    [ "t1"; "t2" ];
  Service.run w;
  check_bool "committed something" true (!committed > 0);
  check_bool "duplicates were injected" true
    (Sim.Metrics.counter (Service.metrics w) "fault.dup" > 0);
  (* The newest store state equals the acknowledged commit count: every
     duplicated or reordered copy-back applied exactly once. *)
  let newest =
    List.fold_left
      (fun best node ->
        match
          Store.Object_store.read
            (Action.Store_host.objects (Service.store_host w) node)
            uid
        with
        | Some s -> (
            match best with
            | Some b when not (Store.Object_state.newer_than s b) -> Some b
            | _ -> Some s)
        | None -> best)
      None [ "t1"; "t2" ]
  in
  (match newest with
  | Some s ->
      Alcotest.(check string)
        "exact count" (string_of_int !committed) s.Store.Object_state.payload
  | None -> Alcotest.fail "no committed state");
  Alcotest.(check (list string)) "audit clean" [] (Workload.Audit.chaos w)

(* ------------------------------------------------------------------ *)
(* The chaos harness itself *)

let test_chaos_schedule_deterministic () =
  let show events =
    String.concat "; "
      (List.map (Format.asprintf "%a" Workload.Exp_chaos.pp_event) events)
  in
  let a = Workload.Exp_chaos.gen_events ~seed:99L () in
  let b = Workload.Exp_chaos.gen_events ~seed:99L () in
  let c = Workload.Exp_chaos.gen_events ~seed:100L () in
  Alcotest.(check string) "same seed, same schedule" (show a) (show b);
  check_bool "different seed, different schedule" true (show a <> show c)

let test_chaos_outcome_replayable () =
  let seed = 53L in
  let events = Workload.Exp_chaos.gen_events ~seed () in
  let o1 = Workload.Exp_chaos.run_world ~seed ~events () in
  let o2 = Workload.Exp_chaos.run_world ~seed ~events () in
  check_int "same commits" o1.Workload.Exp_chaos.oc_commits
    o2.Workload.Exp_chaos.oc_commits;
  check_int "same retries" o1.Workload.Exp_chaos.oc_retries
    o2.Workload.Exp_chaos.oc_retries;
  check_int "same faults" o1.Workload.Exp_chaos.oc_faults
    o2.Workload.Exp_chaos.oc_faults;
  Alcotest.(check (list string))
    "same violations" o1.Workload.Exp_chaos.oc_violations
    o2.Workload.Exp_chaos.oc_violations

(* The shedding coverage check belongs to the default seed set: a replay
   of another seed whose brownout world sheds nothing (seed 22) passes on
   its audit and reports the total in a note. *)
let test_replay_outside_default_set () =
  let table, clean = Workload.Exp_chaos.run_check ~seeds:[ 22L ] () in
  check_bool "clean" true clean;
  check_bool "shed total reported" true
    (List.exists
       (Astring.String.is_prefix ~affix:"retry.shed_expired = 0 across")
       table.Workload.Table.notes);
  check_bool "every world ok" true
    (List.for_all (fun row -> List.nth row 7 = "ok") table.Workload.Table.rows)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "chaos.retry",
      [
        tc "deadline exhaustion" `Quick test_retry_deadline;
        tc "jitter deterministic per seed" `Quick test_retry_jitter_deterministic;
        tc "sheds to down nodes" `Quick test_retry_sheds_down_node;
      ] );
    ( "chaos.faults",
      [
        tc "drop deterministic per seed" `Quick test_fault_drop_deterministic;
        tc "dup suppressed by rpc dedup" `Quick test_fault_dup_suppressed;
        tc "one-way cut is asymmetric" `Quick test_fault_oneway_cut;
        tc "delay spikes" `Quick test_fault_spike_delays;
      ] );
    ( "chaos.idempotence",
      [
        tc "bind_batch under duplication" `Quick test_dup_bind_idempotent;
        tc "merged decrement under duplication" `Quick
          test_dup_decrement_flush_idempotent;
        tc "full-state copy-back under a duplicating link" `Quick
          test_dup_copy_back_exact;
      ] );
    ( "chaos.harness",
      [
        tc "schedule deterministic" `Quick test_chaos_schedule_deterministic;
        tc "outcome replayable" `Quick test_chaos_outcome_replayable;
        tc "a replay outside the default seeds" `Quick
          test_replay_outside_default_set;
      ] );
  ]
