(* Regression tests for defects found while building the experiments.
   Each test documents the failure mode it pins down. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let topo =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = [ "alpha" ];
    store_nodes = [ "beta1"; "beta2" ];
    client_nodes = [ "c1"; "c2" ];
  }

let store_payload w node uid =
  match
    Store.Object_store.read
      (Action.Store_host.objects (Service.store_host w) node)
      uid
  with
  | Some s -> Some s.Store.Object_state.payload
  | None -> None

(* Defect: two objects committed in one action overwrote each other's
   prepare record at the shared store node — the first object's write was
   silently lost (money creation in the bank example). Prepares for one
   action must merge. *)
let test_multi_object_action_commits_both () =
  let w = Service.create ~seed:1L topo in
  let a =
    Service.create_object w ~name:"a" ~impl:"account" ~initial:"100"
      ~sv:[ "alpha" ] ~st:[ "beta1"; "beta2" ] ()
  in
  let b =
    Service.create_object w ~name:"b" ~impl:"account" ~initial:"0"
      ~sv:[ "alpha" ] ~st:[ "beta1"; "beta2" ] ()
  in
  Service.spawn_client w "c1" (fun () ->
      match
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            let bind uid =
              match
                Binder.bind (Service.binder w) ~act ~scheme:Scheme.Standard
                  ~uid ~policy:Replica.Policy.Single_copy_passive
              with
              | Ok bd -> bd.Binder.bd_group
              | Error e ->
                  raise (Action.Atomic.Abort (Binder.bind_error_to_string e))
            in
            let ga = bind a and gb = bind b in
            ignore (Service.invoke w ga ~act "withdraw 30");
            ignore (Service.invoke w gb ~act "deposit 30"))
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
  Service.run w;
  Alcotest.(check (option string)) "a debited" (Some "70") (store_payload w "beta1" a);
  Alcotest.(check (option string)) "b credited" (Some "30") (store_payload w "beta1" b);
  Alcotest.(check (option string)) "a on beta2 too" (Some "70") (store_payload w "beta2" a)

(* Defect: a client crash mid-action left its database locks held forever
   (the coordinator never runs the action-end protocol), wedging the entry
   for every later client. Termination must abort the dead client's
   unvoted action at the database. *)
let test_orphan_guard_releases_dead_clients_locks () =
  let w = Service.create ~seed:2L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  (* c1 takes the sv read lock inside its action and then dies. *)
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (match Gvd.get_server (Service.gvd w) ~act uid with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "get_server");
             Sim.Engine.sleep eng 1000.0)));
  Net.Fault.crash_at net ~at:10.0 "c1";
  (* After the failure detector fires, c2's Insert (write lock) succeeds. *)
  let inserted = ref false in
  Sim.Engine.schedule eng ~delay:20.0 (fun () ->
      Net.Network.spawn_on net "c2" (fun () ->
          ignore
            (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
                 match Gvd.update (Service.gvd w) ~act uid (Gvd.Insert "alpha") with
                 | Ok (Gvd.Granted _) -> inserted := true
                 | _ -> ()))));
  Sim.Engine.run ~until:100.0 eng;
  check_bool "insert went through after cleanup" true !inserted;
  check_bool "orphan abort counted" true
    (Sim.Metrics.counter (Service.metrics w) "gvd.orphan_aborts" >= 1)

(* Defect: a client crash mid-action left the server instance's locks and
   staged state behind, blocking later writers. *)
let test_orphan_guard_releases_server_instance () =
  let w = Service.create ~seed:3L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
           ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
             ignore (Service.invoke w group ~act "add 5");
             Sim.Engine.sleep eng 1000.0)));
  Net.Fault.crash_at net ~at:10.0 "c1";
  let outcome = ref "none" in
  Sim.Engine.schedule eng ~delay:30.0 (fun () ->
      Net.Network.spawn_on net "c2" (fun () ->
          match
            Service.with_bound w ~client:"c2" ~scheme:Scheme.Standard
              ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
                Service.invoke w group ~act "add 7")
          with
          | Ok reply -> outcome := reply
          | Error e -> outcome := "error: " ^ e));
  Sim.Engine.run ~until:200.0 eng;
  (* c1's staged +5 must be gone; c2 sees 0 + 7. *)
  check_string "writer got clean state" "7" !outcome

(* Defect: under schemes B/C the bind read-then-promote pattern made two
   concurrent binders refuse each other's write promotion. The bind action
   must take the write lock up front (get_server_update). *)
let test_concurrent_independent_binds_both_succeed () =
  let w = Service.create ~seed:4L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let ok = ref 0 in
  List.iter
    (fun client ->
      Service.spawn_client w client (fun () ->
          match
            Binder.bind_independent (Service.binder w) ~client ~uid
              ~policy:Replica.Policy.Single_copy_passive
          with
          | Ok pb ->
              incr ok;
              Binder.release_independent (Service.binder w) pb
          | Error _ -> ()))
    [ "c1"; "c2" ];
  Service.run w;
  check_int "both binds succeeded" 2 !ok;
  check_bool "quiescent after releases" true (Gvd.quiescent (Service.gvd w) uid)

(* Defect: a bind that incremented use lists but failed activation leaked
   the counters (decrement used the activated member list, not the
   incremented one), poisoning quiescence forever. *)
let test_failed_activation_does_not_leak_counters () =
  let w = Service.create ~seed:5L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let net = Service.network w in
  (* Make the store unreadable so activation fails after the increments
     committed: alpha can't load the state. *)
  Net.Network.crash net "beta1";
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:Replica.Policy.Single_copy_passive
      with
      | Ok _ -> Alcotest.fail "activation unexpectedly succeeded"
      | Error _ -> ());
  Service.run w;
  check_bool "no leaked counters" true (Gvd.quiescent (Service.gvd w) uid)

(* Defect: counters on servers no longer in Sv were invisible to
   introspection and to the cleanup daemon. *)
let test_cleanup_sees_counters_on_removed_servers () =
  let w =
    Service.create ~seed:6L ~cleanup_period:10.0
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha"; "alpha2" ];
        store_nodes = [ "beta1" ];
        client_nodes = [ "c1"; "c2" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter"
      ~sv:[ "alpha"; "alpha2" ] ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  (* c1 binds (counters on alpha+alpha2), then crashes; later alpha is
     removed from Sv by another bind while down. The cleanup daemon must
     still find c1's counter on the removed alpha. *)
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:(Replica.Policy.Active 2)
      with
      | Ok _ -> Net.Network.crash net "c1"
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e))
    ;
  Sim.Engine.schedule eng ~delay:20.0 (fun () -> Net.Network.crash net "alpha");
  Sim.Engine.schedule eng ~delay:30.0 (fun () ->
      Net.Network.spawn_on net "c2" (fun () ->
          match
            Binder.bind_independent (Service.binder w) ~client:"c2" ~uid
              ~policy:Replica.Policy.Single_copy_passive
          with
          | Ok pb -> Binder.release_independent (Service.binder w) pb
          | Error _ -> ()));
  Sim.Engine.run ~until:200.0 eng;
  check_bool "daemon cleaned the hidden counter" true
    (Gvd.quiescent (Service.gvd w) uid)

(* Defect: a stale (freshly recovered, instance-less) replica's Not_active
   reply could outrace a live replica's real reply under active
   replication. *)
let test_stale_replica_does_not_outrace_live_one () =
  let w =
    Service.create ~seed:7L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "a1"; "a2" ];
        store_nodes = [ "beta1" ];
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "a1"; "a2" ]
      ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  let outcome = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () ->
      outcome :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:(Replica.Policy.Active 2) ~uid (fun act group ->
            ignore (Service.invoke w group ~act "incr");
            (* a1 bounces: it comes back up with no instance, and will
               answer Not_active to the next multicast invocation. *)
            Net.Network.crash net "a1";
            Sim.Engine.sleep eng 2.0;
            Net.Network.recover net "a1";
            Sim.Engine.sleep eng 5.0;
            Service.invoke w group ~act "incr"));
  Sim.Engine.run eng;
  check_bool "live replica answered" true (!outcome = Ok "2")

(* Defect: before-images were whole-entry snapshots while the server and
   state lists are locked independently (§4.1): an action mutating the sv
   side could snapshot another action's in-flight st mutation, and its
   later abort would resurrect the other action's rolled-back change.
   Interleaving: A includes t2 (st write lock) -> B increments (sv write
   lock, snapshots entry WITH t2) -> A aborts (St back to [t1]) -> B
   aborts -> with whole-entry undo St would be [t1; t2] again. *)
let test_split_undo_no_resurrection () =
  let w = Service.create ~seed:9L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let eng = Service.engine w in
  let gvd = Service.gvd w in
  (* A: include beta2, hold, then abort at t=30. *)
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (match Gvd.update gvd ~act uid (Gvd.Include "beta2") with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "include");
             Sim.Engine.sleep eng 30.0;
             raise (Action.Atomic.Abort "A aborts"))));
  (* B: a bit later, increment (sv side), hold past A's abort, abort. *)
  Service.spawn_client w "c2" (fun () ->
      Sim.Engine.sleep eng 10.0;
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
             (match Gvd.update gvd ~act uid (Gvd.Increment { client = "c2"; servers = [ "alpha" ] }) with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "increment");
             Sim.Engine.sleep eng 40.0;
             raise (Action.Atomic.Abort "B aborts"))));
  Service.run w;
  Alcotest.(check (list string))
    "A's aborted include stays aborted" [ "beta1" ]
    (Gvd.current_st gvd uid);
  check_bool "B's counters rolled back too" true (Gvd.quiescent gvd uid)

(* Defect: a participant that had voted yes learnt its fate from the
   orphan guard, which aborted blindly once the client (the coordinator)
   crashed, even when the client had already recorded Commit and only its
   phase 2 was cut short. The server instance then served the pre-commit
   state while both stores applied the commit after the client's
   recovery, and a naming-database Exclude was undone after its action
   committed, leaving a stale store in [St]. A yes-voted participant must
   settle from the coordinator's decision record. *)
let voted_world ~partition =
  let w = Service.create ~seed:7L topo in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  if partition then
    Net.Fault.partition_for (Service.network w) ~at:0.0 ~duration:100.0 "c1"
      "beta2";
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
           ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
             ignore (Service.invoke w group ~act "add 5"))));
  (w, uid)

(* The client's decision instant, from a first, crash-free run. *)
let decision_time ~partition =
  let w, _ = voted_world ~partition in
  Sim.Trace.set_enabled (Service.trace w) true;
  Service.run w;
  match
    List.find_opt
      (fun e -> String.ends_with ~suffix:" commit" e.Sim.Trace.detail)
      (Sim.Trace.with_tag (Service.trace w) "action")
  with
  | Some e -> e.Sim.Trace.at
  | None -> Alcotest.fail "the crash-free run never committed"

(* The same world, with the client crashed for 20s half a time unit
   after its decision: past the decision record, before phase 2 reached
   every participant. *)
let crashed_after_decision ~partition =
  let at = decision_time ~partition +. 0.5 in
  let w, uid = voted_world ~partition in
  Net.Fault.crash_for (Service.network w) ~at ~duration:20.0 "c1";
  (w, uid)

let test_voted_instance_settles_from_decision () =
  let w, uid = crashed_after_decision ~partition:false in
  let read = ref "never ran" in
  Sim.Engine.schedule (Service.engine w) ~delay:200.0 (fun () ->
      Service.spawn_client w "c2" (fun () ->
          match
            Service.with_bound w ~client:"c2" ~scheme:Scheme.Standard
              ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
                Service.invoke w group ~act ~write:false "get")
          with
          | Ok v -> read := v
          | Error e -> read := "error: " ^ e));
  Service.run w;
  check_string "the committed add is visible" "5" !read

let test_voted_exclude_survives_coordinator_crash () =
  let w, uid = crashed_after_decision ~partition:true in
  Service.run w;
  Alcotest.(check (list string))
    "the commit-time Exclude stays committed" [ "beta1" ]
    (Gvd.current_st (Service.gvd w) uid);
  match Workload.Audit.mutual_consistency w uid with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  let tc = Alcotest.test_case in
  [
    ( "regressions",
      [
        tc "multi-object action commits both" `Quick
          test_multi_object_action_commits_both;
        tc "orphan guard releases db locks" `Quick
          test_orphan_guard_releases_dead_clients_locks;
        tc "orphan guard releases server instance" `Quick
          test_orphan_guard_releases_server_instance;
        tc "concurrent independent binds" `Quick
          test_concurrent_independent_binds_both_succeed;
        tc "failed activation does not leak counters" `Quick
          test_failed_activation_does_not_leak_counters;
        tc "cleanup sees counters on removed servers" `Quick
          test_cleanup_sees_counters_on_removed_servers;
        tc "stale replica does not outrace live one" `Quick
          test_stale_replica_does_not_outrace_live_one;
        tc "split undo: no cross-lock resurrection" `Quick
          test_split_undo_no_resurrection;
        tc "voted instance settles from the decision" `Quick
          test_voted_instance_settles_from_decision;
        tc "voted exclude survives a coordinator crash" `Quick
          test_voted_exclude_survives_coordinator_crash;
      ] );
  ]
