(* Tests for the extension features: administrative replication-degree
   changes, automatic passivation, the richer stock object
   implementations, and lazy-checkpoint failover semantics. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let slist = Alcotest.(list string)

let topo ~servers ~stores ~clients =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = servers;
    store_nodes = stores;
    client_nodes = clients;
  }

let store_payload w node uid =
  match
    Store.Object_store.read
      (Action.Store_host.objects (Service.store_host w) node)
      uid
  with
  | Some s -> Some s.Store.Object_state.payload
  | None -> None

(* ------------------------------------------------------------------ *)
(* Object implementations *)

let apply impl payload op = impl.Replica.Object_impl.apply payload op

let test_queue_impl () =
  let q = Replica.Object_impl.fifo_queue in
  let p, r = apply q "" "push a" in
  check_string "push" "ok" r;
  let p, _ = apply q p "push b" in
  let _, r = apply q p "peek" in
  check_string "peek" "a" r;
  let _, r = apply q p "length" in
  check_string "length" "2" r;
  let p, r = apply q p "pop" in
  check_string "pop a" "a" r;
  let p, r = apply q p "pop" in
  check_string "pop b" "b" r;
  let _, r = apply q p "pop" in
  check_string "empty" "empty" r

let test_set_impl () =
  let s = Replica.Object_impl.string_set in
  let p, r = apply s "" "add x" in
  check_string "added" "added" r;
  let p, r = apply s p "add x" in
  check_string "present" "present" r;
  let _, r = apply s p "mem x" in
  check_string "mem" "true" r;
  let p, r = apply s p "remove x" in
  check_string "removed" "removed" r;
  let _, r = apply s p "remove x" in
  check_string "absent" "absent" r

let test_set_sorted_canonical () =
  (* Canonical (sorted) payloads: the same set built in different orders
     is byte-identical — required for the mutual-consistency check. *)
  let s = Replica.Object_impl.string_set in
  let build ops = List.fold_left (fun p op -> fst (apply s p op)) "" ops in
  check_string "order independent"
    (build [ "add b"; "add a"; "add c" ])
    (build [ "add c"; "add a"; "add b" ])

let test_kvmap_impl () =
  let m = Replica.Object_impl.kv_map in
  let p, _ = apply m "" "put colour blue" in
  let p, _ = apply m p "put size large" in
  let _, r = apply m p "get colour" in
  check_string "get" "blue" r;
  let _, r = apply m p "get missing" in
  check_string "missing" "(none)" r;
  let p, _ = apply m p "put colour red" in
  let _, r = apply m p "get colour" in
  check_string "overwrite" "red" r;
  let p, _ = apply m p "del size" in
  let _, r = apply m p "size" in
  check_string "size" "1" r;
  ignore p

let prop_queue_fifo =
  QCheck.Test.make ~name:"queue pops in push order" ~count:200
    QCheck.(small_list (int_range 0 999))
    (fun xs ->
      let q = Replica.Object_impl.fifo_queue in
      let items = List.map string_of_int xs in
      let payload =
        List.fold_left (fun p x -> fst (apply q p ("push " ^ x))) "" items
      in
      let rec drain p acc =
        let p', r = apply q p "pop" in
        if String.equal r "empty" then List.rev acc else drain p' (r :: acc)
      in
      drain payload [] = items)

(* ------------------------------------------------------------------ *)
(* Admin: changing the degree of replication *)

let admin_world () =
  let w =
    Service.create ~seed:11L
      (topo
         ~servers:[ "alpha"; "alpha2" ]
         ~stores:[ "beta1"; "beta2"; "beta3" ]
         ~clients:[ "c1"; "ops" ])
  in
  (* beta3 starts outside StA; alpha2 outside SvA. *)
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  (w, uid)

let test_admin_add_server () =
  let w, uid = admin_world () in
  Service.spawn_client w "ops" (fun () ->
      match Admin.add_server (Service.binder w) ~from:"ops" ~uid "alpha2" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
  Service.run w;
  Alcotest.check slist "sv grown" [ "alpha"; "alpha2" ]
    (Gvd.current_sv (Service.gvd w) uid)

let test_admin_add_server_busy_while_used () =
  let w, uid = admin_world () in
  let eng = Service.engine w in
  (* c1 keeps the use list non-empty via a scheme-B binding. *)
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:Replica.Policy.Single_copy_passive
      with
      | Ok pb ->
          Sim.Engine.sleep eng 60.0;
          Binder.release_independent (Service.binder w) pb
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e));
  let outcome = ref (Ok ()) in
  Sim.Engine.schedule eng ~delay:20.0 (fun () ->
      Net.Network.spawn_on (Service.network w) "ops" (fun () ->
          outcome := Admin.add_server (Service.binder w) ~from:"ops" ~uid "alpha2"));
  Service.run w;
  (match !outcome with
  | Error (Admin.Busy _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Admin.error_to_string e)
  | Ok () -> Alcotest.fail "expected Busy")

let test_admin_retire_server_gone_for_good () =
  let w, uid = admin_world () in
  let net = Service.network w in
  Service.spawn_client w "ops" (fun () ->
      (match Admin.retire_server (Service.binder w) ~from:"ops" ~uid "alpha" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
      (* A bounce of alpha must NOT re-insert it: it is out of sv_home. *)
      Net.Network.crash net "alpha";
      Sim.Engine.sleep (Service.engine w) 2.0;
      Net.Network.recover net "alpha");
  Service.run w;
  Alcotest.check slist "sv empty" [] (Gvd.current_sv (Service.gvd w) uid)

let test_admin_add_store_copies_latest () =
  let w, uid = admin_world () in
  (* Commit an update first so the copied state is non-initial. *)
  Service.spawn_client w "c1" (fun () ->
      (match
         Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
           ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
             Service.invoke w group ~act "add 9")
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      match
        Admin.add_store (Service.binder w) ~from:"c1" ~uid "beta3"
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
  Service.run w;
  Alcotest.check slist "st grown" [ "beta1"; "beta2"; "beta3" ]
    (List.sort String.compare (Gvd.current_st (Service.gvd w) uid));
  Alcotest.(check (option string))
    "state copied" (Some "9") (store_payload w "beta3" uid)

let test_admin_retire_store_not_reincluded () =
  let w, uid = admin_world () in
  let net = Service.network w in
  Service.spawn_client w "ops" (fun () ->
      (match Admin.retire_store (Service.binder w) ~from:"ops" ~uid "beta2" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
      (* A bounce of beta2 must not re-include it. *)
      Net.Network.crash net "beta2";
      Sim.Engine.sleep (Service.engine w) 2.0;
      Net.Network.recover net "beta2");
  Service.run w;
  Alcotest.check slist "st shrunk for good" [ "beta1" ]
    (Gvd.current_st (Service.gvd w) uid)

let test_admin_grown_store_used_by_next_commit () =
  let w, uid = admin_world () in
  Service.spawn_client w "c1" (fun () ->
      (match
         Admin.add_store (Service.binder w) ~from:"c1" ~uid "beta3"
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
      match
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
            Service.invoke w group ~act "add 4")
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  Service.run w;
  Alcotest.(check (option string))
    "new store receives commits" (Some "4") (store_payload w "beta3" uid)

(* With every St home down there is no state to copy: the administrative
   action aborts with the error kind its body raised, not a refusal. *)
let test_admin_add_store_no_source_unavailable () =
  let w, uid = admin_world () in
  let net = Service.network w in
  List.iter (Net.Network.crash net) [ "beta1"; "beta2" ];
  let outcome = ref (Ok ()) in
  Service.spawn_client w "ops" (fun () ->
      outcome := Admin.add_store (Service.binder w) ~from:"ops" ~uid "beta3");
  Service.run w;
  match !outcome with
  | Error (Admin.Unavailable _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Admin.error_to_string e)
  | Ok () -> Alcotest.fail "expected Unavailable"

(* ------------------------------------------------------------------ *)
(* Passivator *)

let test_passivator_reclaims_idle_instance () =
  let w =
    Service.create ~seed:12L
      (topo ~servers:[ "alpha" ] ~stores:[ "beta1" ] ~clients:[ "c1" ])
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  ignore
    (Replica.Passivator.start (Service.server_runtime w) ~node:"alpha"
       ~period:10.0 ~idle_after:25.0 ());
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
           ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
             ignore (Service.invoke w group ~act "incr"))));
  Service.run ~until:15.0 w;
  check_bool "active after use" true
    (Replica.Server.instance_exists (Service.server_runtime w) ~node:"alpha" ~uid);
  Service.run ~until:100.0 w;
  check_bool "passivated when idle" false
    (Replica.Server.instance_exists (Service.server_runtime w) ~node:"alpha" ~uid);
  check_bool "counted" true
    (Sim.Metrics.counter (Service.metrics w) "server.auto_passivations" >= 1)

let test_passivator_spares_busy_instance () =
  let w =
    Service.create ~seed:13L
      (topo ~servers:[ "alpha" ] ~stores:[ "beta1" ] ~clients:[ "c1" ])
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  ignore
    (Replica.Passivator.start (Service.server_runtime w) ~node:"alpha"
       ~period:10.0 ~idle_after:20.0 ());
  let eng = Service.engine w in
  (* A long-running action holds its lock across several sweeps. *)
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
           ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
             ignore (Service.invoke w group ~act "incr");
             Sim.Engine.sleep eng 80.0)));
  Service.run ~until:70.0 w;
  check_bool "still active while locked" true
    (Replica.Server.instance_exists (Service.server_runtime w) ~node:"alpha" ~uid)

let test_reactivation_after_passivation () =
  let w =
    Service.create ~seed:14L
      (topo ~servers:[ "alpha" ] ~stores:[ "beta1" ] ~clients:[ "c1" ])
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let run_incr () =
    Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
      ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
        Service.invoke w group ~act "incr")
  in
  let eng = Service.engine w in
  let second = ref (Ok "") in
  Service.spawn_client w "c1" (fun () ->
      ignore (run_incr ());
      (* Passivate by hand, then use the object again: a fresh bind must
         re-activate from the store with the committed state. *)
      Sim.Engine.sleep eng 5.0;
      check_int "passivated" 1
        (Replica.Passivator.sweep_now (Service.server_runtime w) ~node:"alpha"
           ~idle_after:0.0);
      second := run_incr ());
  Service.run w;
  check_bool "state survived passivation" true (!second = Ok "2")

(* ------------------------------------------------------------------ *)
(* Lazy checkpointing: failover semantics *)

let cc_failover_world ~eager =
  let w =
    Service.create ~seed:15L
      (topo ~servers:[ "k1"; "k2" ] ~stores:[ "t1" ] ~clients:[ "c1" ])
  in
  Replica.Server.set_eager_checkpoints (Service.server_runtime w) eager;
  let uid =
    Service.create_object w ~name:"obj" ~impl:"account" ~sv:[ "k1"; "k2" ]
      ~st:[ "t1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  let outcome = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () ->
      outcome :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:(Replica.Policy.Coordinator_cohort 2) ~uid (fun act group ->
            ignore (Service.invoke w group ~act "deposit 30");
            Net.Network.crash net "k1";
            Sim.Engine.sleep eng 5.0;
            Service.invoke w group ~act "deposit 12"));
  Service.run w;
  (w, uid, !outcome)

let test_eager_checkpoint_failover_continues () =
  let w, uid, outcome = cc_failover_world ~eager:true in
  check_bool "continued" true (outcome = Ok "42");
  Alcotest.(check (option string)) "committed" (Some "42") (store_payload w "t1" uid)

let test_lazy_checkpoint_failover_aborts_loudly () =
  let w, uid, outcome = cc_failover_world ~eager:false in
  (match outcome with
  | Error reason ->
      check_bool "reported as staged-state loss" true
        (Astring.String.is_infix ~affix:"staged state lost" reason)
  | Ok r -> Alcotest.fail ("unexpected commit: " ^ r));
  (* Crucially: no silent data loss — the store still has the initial
     state, not a half-applied action. *)
  Alcotest.(check (option string)) "untouched" (Some "0") (store_payload w "t1" uid)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "ext.impls",
      [
        tc "queue" `Quick test_queue_impl;
        tc "set" `Quick test_set_impl;
        tc "set canonical" `Quick test_set_sorted_canonical;
        tc "kvmap" `Quick test_kvmap_impl;
        Test_util.qcheck prop_queue_fifo;
      ] );
    ( "ext.admin",
      [
        tc "add server" `Quick test_admin_add_server;
        tc "add server busy while used" `Quick test_admin_add_server_busy_while_used;
        tc "retire server gone for good" `Quick test_admin_retire_server_gone_for_good;
        tc "add store copies latest" `Quick test_admin_add_store_copies_latest;
        tc "retire store not re-included" `Quick test_admin_retire_store_not_reincluded;
        tc "grown store used by next commit" `Quick
          test_admin_grown_store_used_by_next_commit;
        tc "add store with no source is unavailable" `Quick
          test_admin_add_store_no_source_unavailable;
      ] );
    ( "ext.passivator",
      [
        tc "reclaims idle instance" `Quick test_passivator_reclaims_idle_instance;
        tc "spares busy instance" `Quick test_passivator_spares_busy_instance;
        tc "reactivation after passivation" `Quick test_reactivation_after_passivation;
      ] );
    ( "ext.checkpointing",
      [
        tc "eager failover continues" `Quick test_eager_checkpoint_failover_continues;
        tc "lazy failover aborts loudly" `Quick
          test_lazy_checkpoint_failover_aborts_loudly;
      ] );
  ]
