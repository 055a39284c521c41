(* Tests for the replication layer: object implementations, server
   activation and invocation, the three replication policies (§2.3),
   commit-time state copy-back with exclusion (§2.3(3)). *)

open Store
open Replica

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

type world = {
  eng : Sim.Engine.t;
  net : Net.Network.t;
  sh : Action.Store_host.t;
  art : Action.Atomic.runtime;
  srv : Server.runtime;
  grt : Group.runtime;
  sup : Uid.supply;
}

(* A world with a naming/sequencer node "ns", clients and servers/stores. *)
let make_world ?seed ~servers ~stores ~clients () =
  let eng = Sim.Engine.create ?seed () in
  let net = Net.Network.create eng in
  let rpc = Net.Rpc.create net in
  let sh = Action.Store_host.create rpc in
  let rh = Action.Resource_host.create rpc in
  let art = Action.Atomic.make_runtime sh rh in
  let impls = Object_impl.registry () in
  List.iter (Object_impl.register impls) Object_impl.stock_all;
  let srv = Server.create art impls in
  let all = ("ns" :: servers) @ stores @ clients in
  List.iter
    (fun n ->
      Net.Network.add_node net n;
      Action.Store_host.add sh n;
      Action.Termination.attach art ~node:n)
    (List.sort_uniq String.compare all);
  List.iter (fun n -> Server.install_host srv n) servers;
  let grt = Group.create srv ~sequencer:"ns" in
  { eng; net; sh; art; srv; grt; sup = Uid.supply () }

let new_object w ~label ~payload ~stores =
  let uid = Uid.fresh w.sup ~label in
  List.iter
    (fun s -> Action.Store_host.seed w.sh s uid (Object_state.initial payload))
    stores;
  uid

(* Commit processing with trivial naming-tier stubs: the snapshot is the
   bind-time store set and every validation passes. *)
let attach_commit w act g ~exclude =
  Commit.attach w.grt act g
    ~snapshot_stores:(fun () -> Ok (g.Group.g_stores, 0))
    ~validate:(fun _ ~version:_ ~rev:_ ~vote:_ -> `Validated)
    ~exclude

let store_payload w node uid =
  match Object_store.read (Action.Store_host.objects w.sh node) uid with
  | Some s -> Some s.Object_state.payload
  | None -> None

(* ------------------------------------------------------------------ *)
(* Object_impl *)

let test_impl_counter () =
  let p, r = Object_impl.counter.Object_impl.apply "4" "incr" in
  check_string "payload" "5" p;
  check_string "reply" "5" r;
  let p, r = Object_impl.counter.Object_impl.apply "5" "add 10" in
  check_string "payload" "15" p;
  check_string "reply" "15" r;
  let p, r = Object_impl.counter.Object_impl.apply "15" "get" in
  check_string "unchanged" "15" p;
  check_string "read" "15" r

let test_impl_account_overdraft () =
  let p, r = Object_impl.account.Object_impl.apply "10" "withdraw 20" in
  check_string "unchanged" "10" p;
  check_string "refused" "insufficient" r;
  let p, r = Object_impl.account.Object_impl.apply "10" "withdraw 10" in
  check_string "drained" "0" p;
  check_string "ok" "0" r

let test_impl_register () =
  let p, _ = Object_impl.register_cell.Object_impl.apply "" "write hello" in
  check_string "written" "hello" p;
  let _, r = Object_impl.register_cell.Object_impl.apply "hello" "read" in
  check_string "read" "hello" r

(* ------------------------------------------------------------------ *)
(* Single-copy passive (figure 2 / figure 3 mechanics) *)

let test_single_copy_commit_writes_all_stores () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta1"; "beta2" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta1"; "beta2" ] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                ~stores:[ "beta1"; "beta2" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "incr" with
                | Ok r -> check_string "reply" "1" r
                | Error e ->
                    raise (Action.Atomic.Abort (Format.asprintf "%a" Group.pp_invoke_error e)))));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "beta1" (Some "1") (store_payload w "beta1" uid);
  Alcotest.(check (option string)) "beta2" (Some "1") (store_payload w "beta2" uid)

(* A parent, its nested child and the parent again invoke through one
   binding. Each request carries the last serial answered to its own
   action: a serial kept per binding would send the child's to the
   parent's third call, which the server has never applied for the
   parent, and it would refuse the call as [State_lost]. The child starts
   from its parent's stage and its commit hands the parent its own, so
   each increment sees the one before it. *)
let test_nested_invocations_share_a_binding () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  let replies = ref [] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ] ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                let incr act =
                  replies :=
                    (match Group.invoke w.grt g ~act "incr" with
                    | Ok r -> r
                    | Error e -> Format.asprintf "%a" Group.pp_invoke_error e)
                    :: !replies
                in
                incr act;
                ignore (Action.Atomic.atomically_nested act (fun child -> incr child));
                incr act));
  Sim.Engine.run w.eng;
  Alcotest.(check (list string)) "each increment sees the last" [ "1"; "2"; "3" ]
    (List.rev !replies);
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "committed 3" (Some "3") (store_payload w "beta" uid)

let counter w name = Sim.Metrics.counter (Net.Network.metrics w.net) name

(* The reply to the invocation carries the commit view, so a fault-free
   commit asks no replica for it: it sends no [server.commit_view] round
   trip, two messages fewer than when every commit asked. *)
let test_commit_view_rides_the_reply () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta1"; "beta2" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta1"; "beta2" ] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                ~stores:[ "beta1"; "beta2" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g -> (
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                match Group.invoke w.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"))));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "beta1" (Some "1") (store_payload w "beta1" uid);
  Alcotest.(check (option string)) "beta2" (Some "1") (store_payload w "beta2" uid);
  check_int "no commit-view round trip" 0 (counter w "rpc.op.server.commit_view");
  check_int "messages" 18 (counter w "net.msgs")

(* A nested action activates, attaches commit processing and increments;
   the top level commits. The copy-back hook runs at the top level's
   commit, after the nested commit handed the child's stage up, so it
   must act for the top level: asked under the child's id, the view reads
   clean and the write is read-optimised away. *)
let test_nested_bind_copies_back () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta1"; "beta2" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta1"; "beta2" ] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun top ->
            match
              Action.Atomic.atomically_nested top (fun act ->
                  match
                    Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                      ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                      ~stores:[ "beta1"; "beta2" ]
                  with
                  | Error e -> raise (Action.Atomic.Abort e)
                  | Ok g -> (
                      attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                      match Group.invoke w.grt g ~act "incr" with
                      | Ok r -> r
                      | Error _ -> raise (Action.Atomic.Abort "invoke failed")))
            with
            | Ok r -> check_string "reply" "1" r
            | Error e -> raise (Action.Atomic.Abort e)));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  check_int "not read-optimised" 0 (counter w "commit.read_optimised");
  Alcotest.(check (option string)) "beta1" (Some "1") (store_payload w "beta1" uid);
  Alcotest.(check (option string)) "beta2" (Some "1") (store_payload w "beta2" uid)

(* The server releases an object at its writer's decision, so the next
   writer's prepare can reach a store before the previous writer's phase 2
   does. Here beta2 still holds the predecessor's v1 reservation when the
   writer's v2 arrives: the store votes blocked, the predecessor's phase 2
   lands, and the writer's one re-prepare against the same St commits —
   no conflict, no passivation, no second activation. *)
let test_blocked_prepare_commits_after_one_reprepare () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta1"; "beta2" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta2" ] in
  let v1 = Object_state.make ~payload:"1" ~version:{ Version.counter = 1; committed_by = "pred" } in
  Action.Store_host.seed w.sh "beta1" uid v1;
  let hooks = Action.Store_host.hooks w.sh "beta2" in
  let blocked = ref 0 in
  Action.Store_host.set_hooks w.sh "beta2"
    {
      hooks with
      blocked =
        (fun holders ->
          hooks.blocked holders;
          incr blocked;
          (* The predecessor's phase 2 reaches beta2 just after the
             writer's first prepare. *)
          if !blocked = 1 then
            Net.Network.spawn_on w.net "beta2" (fun () ->
                ignore
                  (Action.Store_host.commit w.sh ~from:"beta2" ~store:"beta2"
                     ~action:"pred")));
    };
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      (match
         Action.Store_host.prepare w.sh ~from:"c" ~store:"beta2" ~action:"pred"
           ~coordinator:"c" [ (uid, v1) ]
       with
      | Ok Action.Store_host.Vote_yes -> ()
      | _ -> Alcotest.fail "the predecessor's prepare");
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                ~stores:[ "beta1"; "beta2" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g -> (
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                match Group.invoke w.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"))));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  check_int "one blocked vote" 1 !blocked;
  check_int "one re-prepare" 1 (counter w "commit.blocked");
  check_int "no conflict" 0 (counter w "commit.conflicts");
  check_int "one activation" 1 (counter w "server.activations");
  check_int "no passivation" 0 (counter w "rpc.op.server.passivate");
  Alcotest.(check (option string)) "beta1" (Some "2") (store_payload w "beta1" uid);
  Alcotest.(check (option string)) "beta2" (Some "2") (store_payload w "beta2" uid)

(* A parent invokes, then its nested child invokes through the same
   binding and commits. The binding's last reply is the child's, so the
   top-level commit asks the server for the parent's view: the parent's
   own first reply is stale, and the child's names the child. *)
let test_child_view_is_not_the_parent's () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  let parent = ref "" in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            parent := Action.Atomic.owner act;
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ] ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                let incr act =
                  match Group.invoke w.grt g ~act "incr" with
                  | Ok _ -> ()
                  | Error _ -> raise (Action.Atomic.Abort "invoke failed")
                in
                incr act;
                match Action.Atomic.atomically_nested act incr with
                | Ok () -> ()
                | Error why -> raise (Action.Atomic.Abort why)));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "the stores read 2" (Some "2") (store_payload w "beta" uid);
  (match Object_store.read (Action.Store_host.objects w.sh "beta") uid with
  | Some st ->
      check_string "committed by the parent" !parent
        st.Object_state.version.Version.committed_by
  | None -> Alcotest.fail "beta holds no state");
  check_int "the commit asked for the view" 1 (counter w "rpc.op.server.commit_view")

let test_single_copy_server_crash_aborts () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Ok ()) in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"));
                (* Server dies before commit; commit view must fail. *)
                Net.Network.crash w.net "alpha";
                Sim.Engine.sleep w.eng 2.0));
  Sim.Engine.run w.eng;
  check_bool "aborted" true (Result.is_error !outcome);
  Alcotest.(check (option string)) "store unchanged" (Some "0") (store_payload w "beta" uid)

(* The server crashes and recovers before commit: its old instance is
   dead (its manager would vote read-only), but the commit view finds no
   live copy of the action's state, so the action still aborts. *)
let test_single_copy_server_recovered_aborts () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Ok ()) in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"));
                Net.Network.crash w.net "alpha";
                Sim.Engine.sleep w.eng 2.0;
                Net.Network.recover w.net "alpha"));
  Sim.Engine.run w.eng;
  check_bool "aborted" true (Result.is_error !outcome);
  Alcotest.(check (option string)) "store unchanged" (Some "0") (store_payload w "beta" uid)

let test_read_only_skips_copy () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"7" ~stores:[ "beta" ] in
  Net.Network.spawn_on w.net "c" (fun () ->
      ignore
        (Action.Atomic.atomically w.art ~node:"c" (fun act ->
             match
               Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                 ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                 ~stores:[ "beta" ]
             with
             | Error e -> raise (Action.Atomic.Abort e)
             | Ok g -> (
                 attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                 match Group.invoke w.grt g ~act ~write:false "get" with
                 | Ok r -> check_string "read" "7" r
                 | Error _ -> raise (Action.Atomic.Abort "invoke failed")))));
  Sim.Engine.run w.eng;
  check_int "read optimised" 1
    (Sim.Metrics.counter (Net.Network.metrics w.net) "commit.read_optimised")

let test_commit_excludes_crashed_store () =
  let w =
    make_world ~servers:[ "alpha" ] ~stores:[ "beta1"; "beta2" ] ~clients:[ "c" ] ()
  in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta1"; "beta2" ] in
  let excluded = ref [] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                ~stores:[ "beta1"; "beta2" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ failed ->
                    excluded := failed;
                    `Excluded);
                (match Group.invoke w.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"));
                (* beta2 dies before commit: the copy must fail there and
                   trigger exclusion, but the action still commits. *)
                Net.Network.crash w.net "beta2";
                Sim.Engine.sleep w.eng 2.0));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (list string)) "excluded beta2" [ "beta2" ] !excluded;
  Alcotest.(check (option string)) "beta1 updated" (Some "1") (store_payload w "beta1" uid)

let test_withdraw_prepares_mixed_votes () =
  (* The parallel prepare scatter returns a mixed vote set: one store is
     stale (backward validation fails), one voted yes, one is crashed.
     The abort path must withdraw the prepare records of the yes-voters —
     a leaked record is a write reservation that blocks every future
     writer of the object. *)
  let w =
    make_world ~servers:[ "alpha" ] ~stores:[ "s1"; "s2"; "s3" ]
      ~clients:[ "c" ] ()
  in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "s1"; "s3" ] in
  (* s2 already holds a newer committed version: activation picks it as
     the freshest state, so the commit-time prepare is its direct
     successor at s2 (Vote_yes) but a version skip at s1 (Vote_stale). *)
  Action.Store_host.seed w.sh "s2" uid
    (Object_state.make ~payload:"7"
       ~version:{ Version.counter = 2; committed_by = "elsewhere" });
  let outcome = ref (Ok ()) in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                ~stores:[ "s1"; "s2"; "s3" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"));
                (* s3 dies before commit: its vote is unreachable. *)
                Net.Network.crash w.net "s3";
                Sim.Engine.sleep w.eng 2.0));
  Sim.Engine.run w.eng;
  (match !outcome with
  | Error why ->
      check_bool
        ("aborted on the stale vote: " ^ why)
        true
        (Astring.String.is_infix ~affix:"stale" why)
  | Ok () -> Alcotest.fail "expected the stale vote to abort the action");
  (* No reservation leaked anywhere: every surviving store's intent log
     is clean again. *)
  List.iter
    (fun s ->
      Alcotest.(check (list string))
        (s ^ " intent log clean") []
        (Intent_log.in_doubt (Action.Store_host.log w.sh s)))
    [ "s1"; "s2" ];
  (* And the committed states are untouched. *)
  Alcotest.(check (option string)) "s1 unchanged" (Some "0")
    (store_payload w "s1" uid);
  Alcotest.(check (option string)) "s2 unchanged" (Some "7")
    (store_payload w "s2" uid)

let test_commit_aborts_when_all_stores_down () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Ok ()) in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"));
                Net.Network.crash w.net "beta";
                Sim.Engine.sleep w.eng 2.0));
  Sim.Engine.run w.eng;
  check_bool "aborted" true (Result.is_error !outcome)

(* ------------------------------------------------------------------ *)
(* Isolation between actions *)

let test_actions_isolated_by_locks () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c1"; "c2" ] () in
  let uid = new_object w ~label:"acct" ~payload:"100" ~stores:[ "beta" ] in
  let order = ref [] in
  let run_client client amount =
    Net.Network.spawn_on w.net client (fun () ->
        ignore
          (Action.Atomic.atomically w.art ~node:client (fun act ->
               match
                 Group.activate w.grt ~client ~uid ~impl:"account"
                   ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                   ~stores:[ "beta" ]
               with
               | Error e -> raise (Action.Atomic.Abort e)
               | Ok g -> (
                   attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                   match Group.invoke w.grt g ~act ("deposit " ^ string_of_int amount) with
                   | Ok r ->
                       order := (client, r) :: !order;
                       Sim.Engine.sleep w.eng 5.0
                   | Error _ -> raise (Action.Atomic.Abort "invoke failed")))))
  in
  run_client "c1" 10;
  run_client "c2" 20;
  Sim.Engine.run w.eng;
  (* Both deposits must be serialised: final balance 130 at the store. *)
  Alcotest.(check (option string)) "serialised" (Some "130") (store_payload w "beta" uid);
  check_int "both ran" 2 (List.length !order)

(* Two objects served by one node share its lock table, but an action
   ends object by object: phase 2 at x must not release the action's lock
   on y. A second writer of y waits until y's own phase 2 has installed
   the first write, so it reads it (reply "2"). An owner-wide release at
   x's phase 2 would grant it at once, on y's old state (reply "1"). *)
let test_node_lock_table_ends_actions_per_instance () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let x = new_object w ~label:"x" ~payload:"0" ~stores:[ "beta" ] in
  let y = new_object w ~label:"y" ~payload:"0" ~stores:[ "beta" ] in
  let rh = Action.Atomic.resource_host w.art in
  let invoke uid action serial =
    match
      Server.invoke w.srv ~from:"c" ~server:"alpha" ~uid ~action ~serial
        ~last_acked:0 ~write:true ~op:"incr"
    with
    | Ok (Server.Reply (r, _)) -> r
    | Ok _ | Error _ -> Alcotest.fail "unexpected invoke result"
  in
  let commit uid =
    match
      Action.Resource_host.commit rh ~from:"c" ~node:"alpha"
        ~kind:Server.resource_kind ~scope:(Uid.to_string uid) ~action:"c:1"
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "phase 2 rpc failed"
  in
  let second = ref None and waiting_after_x = ref None in
  Net.Network.spawn_on w.net "c" (fun () ->
      List.iter
        (fun uid ->
          match
            Server.activate w.srv ~from:"c" ~server:"alpha" ~uid ~impl:"counter"
              ~stores:[ "beta" ] ~role:Server.Plain ~members:[ "alpha" ]
          with
          | Ok (Server.Activated _) -> ()
          | _ -> Alcotest.fail "activation failed")
        [ x; y ];
      ignore (invoke x "c:1" 1);
      ignore (invoke y "c:1" 2);
      Net.Network.spawn_on w.net "c" (fun () -> second := Some (invoke y "c:2" 1));
      Sim.Engine.sleep w.eng 5.0;
      commit x;
      Sim.Engine.sleep w.eng 5.0;
      waiting_after_x := Some (!second = None);
      commit y);
  Sim.Engine.run w.eng;
  check_bool "the second writer still waits after x's phase 2" true
    (!waiting_after_x = Some true);
  Alcotest.(check (option string))
    "it read y's committed write" (Some "2") !second;
  Alcotest.(check (option string))
    "x installed" (Some "1") (Server.instance_payload w.srv ~node:"alpha" ~uid:x)

let test_abort_discards_staged_write () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"acct" ~payload:"100" ~stores:[ "beta" ] in
  Net.Network.spawn_on w.net "c" (fun () ->
      ignore
        (Action.Atomic.atomically w.art ~node:"c" (fun act ->
             match
               Group.activate w.grt ~client:"c" ~uid ~impl:"account"
                 ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                 ~stores:[ "beta" ]
             with
             | Error e -> raise (Action.Atomic.Abort e)
             | Ok g ->
                 attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                 ignore (Group.invoke w.grt g ~act "deposit 50");
                 raise (Action.Atomic.Abort "rollback"))));
  Sim.Engine.run w.eng;
  Alcotest.(check (option string)) "store unchanged" (Some "100") (store_payload w "beta" uid);
  Alcotest.(check (option string))
    "server state rolled back" (Some "100")
    (Server.instance_payload w.srv ~node:"alpha" ~uid)

(* ------------------------------------------------------------------ *)
(* Active replication (figure 4 mechanics) *)

let active_deposit w uid ~client ~servers ~stores amount =
  Action.Atomic.atomically w.art ~node:client (fun act ->
      match
        Group.activate w.grt ~client ~uid ~impl:"account"
          ~policy:(Policy.Active (List.length servers)) ~servers ~stores
      with
      | Error e -> raise (Action.Atomic.Abort e)
      | Ok g -> (
          attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
          match Group.invoke w.grt g ~act ("deposit " ^ string_of_int amount) with
          | Ok r -> (g, r)
          | Error e ->
              raise
                (Action.Atomic.Abort (Format.asprintf "%a" Group.pp_invoke_error e))))

let test_active_replicas_stay_consistent () =
  let w =
    make_world ~servers:[ "a1"; "a2"; "a3" ] ~stores:[ "beta" ] ~clients:[ "c" ] ()
  in
  let uid = new_object w ~label:"acct" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Result.map (fun (_, r) -> r)
          (active_deposit w uid ~client:"c" ~servers:[ "a1"; "a2"; "a3" ]
             ~stores:[ "beta" ] 25));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok "25");
  List.iter
    (fun node ->
      Alcotest.(check (option string))
        (node ^ " consistent") (Some "25")
        (Server.instance_payload w.srv ~node ~uid))
    [ "a1"; "a2"; "a3" ];
  Alcotest.(check (option string)) "store" (Some "25") (store_payload w "beta" uid)

let test_active_masks_replica_crash () =
  let w = make_world ~servers:[ "a1"; "a2" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"acct" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"account"
                ~policy:(Policy.Active 2) ~servers:[ "a1"; "a2" ] ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "deposit 5" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "first invoke failed"));
                (* One replica dies mid-action: the group must keep going. *)
                Net.Network.crash w.net "a1";
                Sim.Engine.sleep w.eng 2.0;
                (match Group.invoke w.grt g ~act "deposit 7" with
                | Ok r -> check_string "survivor answered" "12" r
                | Error _ -> raise (Action.Atomic.Abort "second invoke failed"))));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "store has both" (Some "12") (store_payload w "beta" uid)

(* a2 is browned out, so a1 answers the deposit first; a1 then crashes
   before the commit. Its reply's view is of no use any more, and the
   commit asks a2, which holds the same state once the ordered stream
   reaches it. *)
let test_active_answerer_crash_falls_back () =
  let w = make_world ~servers:[ "a1"; "a2" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"acct" ~payload:"0" ~stores:[ "beta" ] in
  Net.Network.set_brownout w.net ~prob:1.0 ~lo:5.0 ~hi:5.0 "a2";
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"account"
                ~policy:(Policy.Active 2) ~servers:[ "a1"; "a2" ] ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "deposit 5" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"));
                check_int "a1 alone has run the deposit" 1
                  (counter w "server.invocations");
                Net.Network.crash w.net "a1"));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  check_bool "asked a2 for the view" true (counter w "rpc.op.server.commit_view" >= 1);
  Alcotest.(check (option string)) "store" (Some "5") (store_payload w "beta" uid);
  Alcotest.(check (option string))
    "a2 committed" (Some "5")
    (Server.instance_payload w.srv ~node:"a2" ~uid)

let test_active_all_replicas_down_fails () =
  let w = make_world ~servers:[ "a1"; "a2" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"acct" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Ok ()) in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"account"
                ~policy:(Policy.Active 2) ~servers:[ "a1"; "a2" ] ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g -> (
                Net.Network.crash w.net "a1";
                Net.Network.crash w.net "a2";
                Sim.Engine.sleep w.eng 2.0;
                match Group.invoke w.grt g ~act "deposit 5" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "no replica"))));
  Sim.Engine.run w.eng;
  check_bool "aborted" true (Result.is_error !outcome)

(* ------------------------------------------------------------------ *)
(* Coordinator-cohort (figure 4 mechanics, passive variant) *)

let test_cc_normal_operation_checkpoints () =
  let w = make_world ~servers:[ "k1"; "k2" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"acct" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"account"
                ~policy:(Policy.Coordinator_cohort 2) ~servers:[ "k1"; "k2" ]
                ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g -> (
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                match Group.invoke w.grt g ~act "deposit 30" with
                | Ok r -> check_string "reply" "30" r
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"))));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  check_bool "checkpoints happened" true
    (Sim.Metrics.counter (Net.Network.metrics w.net) "server.checkpoints" > 0);
  (* The cohort received the committed state via checkpoint. *)
  Alcotest.(check (option string))
    "cohort state" (Some "30")
    (Server.instance_payload w.srv ~node:"k2" ~uid)

let test_cc_failover_continues_action () =
  let w = make_world ~servers:[ "k1"; "k2" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"acct" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"account"
                ~policy:(Policy.Coordinator_cohort 2) ~servers:[ "k1"; "k2" ]
                ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "deposit 30" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "first invoke failed"));
                (* Kill the coordinator; the cohort must take over with the
                   checkpointed staged state. *)
                Net.Network.crash w.net "k1";
                Sim.Engine.sleep w.eng 5.0;
                (match Group.invoke w.grt g ~act "deposit 12" with
                | Ok r -> check_string "continued on cohort" "42" r
                | Error e ->
                    raise
                      (Action.Atomic.Abort
                         (Format.asprintf "%a" Group.pp_invoke_error e)))));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  check_int "one promotion" 1
    (Sim.Metrics.counter (Net.Network.metrics w.net) "server.promotions");
  Alcotest.(check (option string)) "store final" (Some "42") (store_payload w "beta" uid)

(* The coordinator crashes between the deposit's reply and the commit.
   The reply's view died with it, so the commit asks the promoted cohort:
   with lazy checkpoints k2 never saw the deposit and the action aborts,
   with eager ones k2 holds it and the action commits. *)
let cc_crash_before_commit ~eager =
  let w = make_world ~servers:[ "k1"; "k2" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  Server.set_eager_checkpoints w.srv eager;
  let uid = new_object w ~label:"acct" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"account"
                ~policy:(Policy.Coordinator_cohort 2) ~servers:[ "k1"; "k2" ]
                ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "deposit 30" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"));
                Net.Network.crash w.net "k1"));
  Sim.Engine.run w.eng;
  check_bool "asked the cohort for the view" true
    (counter w "rpc.op.server.commit_view" >= 1);
  (w, uid, !outcome)

let test_cc_crash_before_commit () =
  let w, uid, outcome = cc_crash_before_commit ~eager:false in
  check_bool "lazy: aborted" true (Result.is_error outcome);
  Alcotest.(check (option string)) "lazy: store unchanged" (Some "0") (store_payload w "beta" uid);
  let w, uid, outcome = cc_crash_before_commit ~eager:true in
  check_bool "eager: committed" true (outcome = Ok ());
  Alcotest.(check (option string)) "eager: store" (Some "30") (store_payload w "beta" uid);
  Alcotest.(check (option string))
    "eager: promoted cohort" (Some "30")
    (Server.instance_payload w.srv ~node:"k2" ~uid)

(* The crashed coordinator's instance stays registered as the resource
   manager on its node until the object is activated there again. When
   the node recovers before the action ends, that dead instance must not
   take part in phase 2: installing its pre-crash stage and checkpointing
   it to the promoted coordinator would roll the object back. *)
let test_cc_dead_instance_ignores_phase2 () =
  let w = make_world ~servers:[ "k1"; "k2" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"acct" ~payload:"0" ~stores:[ "beta" ] in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.art ~node:"c" (fun act ->
            match
              Group.activate w.grt ~client:"c" ~uid ~impl:"account"
                ~policy:(Policy.Coordinator_cohort 2) ~servers:[ "k1"; "k2" ]
                ~stores:[ "beta" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                (match Group.invoke w.grt g ~act "deposit 30" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "first invoke failed"));
                Net.Network.crash w.net "k1";
                Sim.Engine.sleep w.eng 5.0;
                (match Group.invoke w.grt g ~act "deposit 12" with
                | Ok r -> check_string "continued on cohort" "42" r
                | Error e ->
                    raise
                      (Action.Atomic.Abort
                         (Format.asprintf "%a" Group.pp_invoke_error e)));
                (* k1 is back, its old instance still registered. *)
                Net.Network.recover w.net "k1"));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "store final" (Some "42") (store_payload w "beta" uid);
  Alcotest.(check (option string))
    "promoted coordinator keeps the commit" (Some "42")
    (Server.instance_payload w.srv ~node:"k2" ~uid)

(* A read-only vote pushes no checkpoint, so a checkpoint the
   coordinator sent earlier can still name the reader as a lock holder
   after the reader ended at the cohort. The cohort tombstoned it there:
   on promotion it must not take the reader's lock back, or every later
   writer would wait on an action that is over. *)
let test_cc_promotion_skips_ended_holders () =
  let w = make_world ~servers:[ "k1"; "k2" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"acct" ~payload:"0" ~stores:[ "beta" ] in
  let members = [ "k1"; "k2" ] in
  let holders = ref [ "never ran" ] in
  Net.Network.spawn_on w.net "c" (fun () ->
      let activate server role =
        match
          Server.activate w.srv ~from:"c" ~server ~uid ~impl:"account"
            ~stores:[ "beta" ] ~role ~members
        with
        | Ok (Server.Activated _) -> ()
        | _ -> Alcotest.fail "activation failed"
      in
      activate "k1" Server.Coordinator;
      activate "k2" Server.Cohort;
      let get action =
        match
          Server.invoke w.srv ~from:"c" ~server:"k1" ~uid ~action ~serial:1
            ~last_acked:0 ~write:false ~op:"balance"
        with
        | Ok (Server.Reply _) -> ()
        | _ -> Alcotest.fail "invoke failed"
      in
      get "c:1";
      (* c:1 ends at the cohort first: its read-only vote there. *)
      (match
         Action.Resource_host.prepare (Action.Atomic.resource_host w.art)
           ~from:"c" ~node:"k2" ~kind:Server.resource_kind
           ~scope:(Uid.to_string uid) ~action:"c:1"
       with
      | Ok Action.Resource_host.Vote_read_only -> ()
      | _ -> Alcotest.fail "cohort did not vote read-only");
      (* The coordinator has not seen c:1's prepare yet: c:2's eager
         checkpoint still lists c:1 as a holder. *)
      get "c:2";
      Net.Network.crash w.net "k1";
      Sim.Engine.sleep w.eng 5.0;
      holders :=
        List.concat_map
          (fun (_, hs, _) -> hs)
          (Server.instance_residue w.srv ~node:"k2"));
  Sim.Engine.run w.eng;
  check_int "k2 promoted" 1
    (Sim.Metrics.counter (Net.Network.metrics w.net) "server.promotions");
  Alcotest.(check (list string)) "only the live reader holds" [ "c:2" ] !holders

(* ------------------------------------------------------------------ *)
(* Passivation *)

let test_passivation_after_quiescence () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  Net.Network.spawn_on w.net "c" (fun () ->
      let g = ref None in
      ignore
        (Action.Atomic.atomically w.art ~node:"c" (fun act ->
             match
               Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                 ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                 ~stores:[ "beta" ]
             with
             | Error e -> raise (Action.Atomic.Abort e)
             | Ok grp ->
                 g := Some grp;
                 attach_commit w act grp ~exclude:(fun _ _ -> `Excluded);
                 ignore (Group.invoke w.grt grp ~act "incr")));
      (* After commit the instance is quiescent; passivation succeeds. *)
      match !g with
      | Some grp ->
          check_bool "instance exists" true
            (Server.instance_exists w.srv ~node:"alpha" ~uid);
          Group.passivate w.grt grp ~from:"c";
          check_bool "instance gone" false
            (Server.instance_exists w.srv ~node:"alpha" ~uid)
      | None -> Alcotest.fail "no group");
  Sim.Engine.run w.eng

let test_passivation_refused_while_in_use () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  Net.Network.spawn_on w.net "c" (fun () ->
      ignore
        (Action.Atomic.atomically w.art ~node:"c" (fun act ->
             match
               Group.activate w.grt ~client:"c" ~uid ~impl:"counter"
                 ~policy:Policy.Single_copy_passive ~servers:[ "alpha" ]
                 ~stores:[ "beta" ]
             with
             | Error e -> raise (Action.Atomic.Abort e)
             | Ok g -> (
                 attach_commit w act g ~exclude:(fun _ _ -> `Excluded);
                 ignore (Group.invoke w.grt g ~act "incr");
                 (* Mid-action: locks held, passivation must refuse. *)
                 match Server.passivate w.srv ~from:"c" ~server:"alpha" ~uid with
                 | Ok refused ->
                     check_bool "refused while in use" false refused
                 | Error _ -> Alcotest.fail "passivate rpc failed"))));
  Sim.Engine.run w.eng

let activate_plain w uid =
  match
    Server.activate w.srv ~from:"c" ~server:"alpha" ~uid ~impl:"counter"
      ~stores:[ "beta" ] ~role:Server.Plain ~members:[ "alpha" ]
  with
  | Ok (Server.Activated _) -> ()
  | _ -> Alcotest.fail "activation failed"

(* Passivation frees its instance: a world whose objects were each
   activated and passivated holds about as many words as one whose
   objects were never activated. *)
let test_passivation_frees_instance () =
  let n = 200 in
  let words ~cycle =
    let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
    let uids =
      List.init n (fun i ->
          new_object w ~label:(Printf.sprintf "o%d" i) ~payload:"0" ~stores:[ "beta" ])
    in
    if cycle then
      Net.Network.spawn_on w.net "c" (fun () ->
          List.iter
            (fun uid ->
              activate_plain w uid;
              match Server.passivate w.srv ~from:"c" ~server:"alpha" ~uid with
              | Ok true -> ()
              | _ -> Alcotest.fail "passivation failed")
            uids);
    Sim.Engine.run w.eng;
    check_int "no live instance" 0 (List.length (Server.local_instances w.srv ~node:"alpha"));
    Obj.reachable_words (Obj.repr w)
  in
  let per_object = (words ~cycle:true - words ~cycle:false) / n in
  check_bool (Printf.sprintf "%d words per object, at most 8" per_object) true
    (per_object <= 8)

(* A phase 2 that reaches a node whose instance died in a crash ends the
   action there, crash watch included. A watch left behind would outlive
   the instance, and the coordinator's later crash would abort the old
   action as an orphan on the object's next instance there. *)
let test_phase2_at_empty_node_forgets_watch () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  Net.Network.spawn_on w.net "c" (fun () ->
      activate_plain w uid;
      (match
         Server.invoke w.srv ~from:"c" ~server:"alpha" ~uid ~action:"c:1" ~serial:1
           ~last_acked:0 ~write:true ~op:"incr"
       with
      | Ok (Server.Reply _) -> ()
      | _ -> Alcotest.fail "invoke failed");
      Net.Network.crash w.net "alpha";
      Net.Network.recover w.net "alpha";
      Sim.Engine.sleep w.eng 5.0;
      (match
         Action.Resource_host.abort (Action.Atomic.resource_host w.art) ~from:"c"
           ~node:"alpha" ~kind:Server.resource_kind ~scope:(Uid.to_string uid)
           ~action:"c:1"
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "abort rpc failed");
      activate_plain w uid);
  Sim.Engine.run w.eng;
  Net.Network.crash w.net "c";
  Sim.Engine.run w.eng;
  check_int "no orphan abort" 0
    (Sim.Metrics.counter (Net.Network.metrics w.net) "server.orphan_aborts")

(* A phase 2 sent while the node is down is lost, and nobody sends it
   again: the crash itself must forget the dead instance's watch, or the
   coordinator's later crash aborts the old action as an orphan on the
   object's next instance there. *)
let test_phase2_while_down_forgets_watch () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  Net.Network.spawn_on w.net "c" (fun () ->
      activate_plain w uid;
      (match
         Server.invoke w.srv ~from:"c" ~server:"alpha" ~uid ~action:"c:1" ~serial:1
           ~last_acked:0 ~write:true ~op:"incr"
       with
      | Ok (Server.Reply _) -> ()
      | _ -> Alcotest.fail "invoke failed");
      Net.Network.crash w.net "alpha";
      (match
         Action.Resource_host.abort (Action.Atomic.resource_host w.art) ~from:"c"
           ~node:"alpha" ~kind:Server.resource_kind ~scope:(Uid.to_string uid)
           ~action:"c:1"
       with
      | Ok () -> Alcotest.fail "a down node answered the abort"
      | Error _ -> ());
      Net.Network.recover w.net "alpha";
      Sim.Engine.sleep w.eng 5.0;
      activate_plain w uid);
  Sim.Engine.run w.eng;
  Net.Network.crash w.net "c";
  Sim.Engine.run w.eng;
  check_int "no orphan abort" 0
    (Sim.Metrics.counter (Net.Network.metrics w.net) "server.orphan_aborts")

(* ------------------------------------------------------------------ *)
(* Settled tombstones *)

(* An instance remembers the 64 newest distinct actions that ended on it
   and refuses their stragglers. Actions end here through the resource
   manager's abort, driven directly by action-id string. *)
let test_settled_tombstones () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  let refusals () =
    Sim.Metrics.counter (Net.Network.metrics w.net) "server.settled_refusals"
  in
  let name i = Printf.sprintf "c:%d" i in
  let settle i =
    match
      Action.Resource_host.abort (Action.Atomic.resource_host w.art) ~from:"c"
        ~node:"alpha" ~kind:Server.resource_kind ~scope:(Uid.to_string uid)
        ~action:(name i)
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "abort rpc failed"
  in
  let serial = ref 0 in
  let invoke i =
    incr serial;
    match
      Server.invoke w.srv ~from:"c" ~server:"alpha" ~uid ~action:(name i)
        ~serial:!serial ~last_acked:0 ~write:false ~op:"get"
    with
    | Ok (Server.Reply _) -> `Ran
    | Ok Server.Settled -> `Settled
    | Ok _ | Error _ -> Alcotest.fail "unexpected invoke result"
  in
  let check_invoke msg expected i =
    check_bool msg true (invoke i = expected)
  in
  let finished = ref false in
  Net.Network.spawn_on w.net "c" (fun () ->
      (match
         Server.activate w.srv ~from:"c" ~server:"alpha" ~uid ~impl:"counter"
           ~stores:[ "beta" ] ~role:Server.Plain ~members:[ "alpha" ]
       with
      | Ok (Server.Activated _) -> ()
      | _ -> Alcotest.fail "activation failed");
      check_invoke "a live action runs" `Ran 0;
      settle 0;
      check_invoke "a settled action is refused" `Settled 0;
      check_int "refusal counted" 1 (refusals ());
      (* Settling a settled action again adds no tombstone and does not
         make it newer: 63 more fill the 64. *)
      settle 1;
      settle 0;
      for i = 2 to 63 do
        settle i
      done;
      check_invoke "64 distinct: the oldest is kept" `Settled 0;
      settle 64;
      check_invoke "the 65th forgets the oldest" `Ran 0;
      for i = 1 to 64 do
        check_invoke (Printf.sprintf "%s still refused" (name i)) `Settled i
      done;
      check_int "every refusal counted" 66 (refusals ());
      finished := true);
  Sim.Engine.run w.eng;
  check_bool "ran to the end" true !finished

(* A straggler can outlive the instance it was cast to: the object is
   passivated after its action ended, or its action ends while no
   instance is there, and the straggler reaches the object's next
   activation. That activation takes over the tombstones, so it refuses
   the straggler as the passivated instance would have. *)
let test_tombstones_survive_passivation () =
  let w = make_world ~servers:[ "alpha" ] ~stores:[ "beta" ] ~clients:[ "c" ] () in
  let uid = new_object w ~label:"ctr" ~payload:"0" ~stores:[ "beta" ] in
  let abort action =
    match
      Action.Resource_host.abort (Action.Atomic.resource_host w.art) ~from:"c"
        ~node:"alpha" ~kind:Server.resource_kind ~scope:(Uid.to_string uid) ~action
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "abort rpc failed"
  in
  let passivate () =
    match Server.passivate w.srv ~from:"c" ~server:"alpha" ~uid with
    | Ok true -> ()
    | _ -> Alcotest.fail "passivation failed"
  in
  let invoke action =
    match
      Server.invoke w.srv ~from:"c" ~server:"alpha" ~uid ~action ~serial:1
        ~last_acked:0 ~write:true ~op:"incr"
    with
    | Ok (Server.Reply _) -> `Ran
    | Ok Server.Settled -> `Settled
    | Ok _ | Error _ -> Alcotest.fail "unexpected invoke result"
  in
  let finished = ref false in
  Net.Network.spawn_on w.net "c" (fun () ->
      activate_plain w uid;
      (* c:1 ends on the instance, which is then passivated. *)
      check_bool "c:1 runs" true (invoke "c:1" = `Ran);
      abort "c:1";
      passivate ();
      (* c:2 ends while the object has no instance here. *)
      abort "c:2";
      activate_plain w uid;
      check_bool "c:1's straggler is refused" true (invoke "c:1" = `Settled);
      check_bool "c:2's straggler is refused" true (invoke "c:2" = `Settled);
      check_bool "a live action runs" true (invoke "c:3" = `Ran);
      abort "c:3";
      finished := true);
  Sim.Engine.run w.eng;
  check_bool "ran to the end" true !finished;
  check_bool "no residue" true (Server.instance_residue w.srv ~node:"alpha" = [])

let suite =
  let tc = Alcotest.test_case in
  [
    ( "replica.impl",
      [
        tc "counter" `Quick test_impl_counter;
        tc "account overdraft" `Quick test_impl_account_overdraft;
        tc "register" `Quick test_impl_register;
      ] );
    ( "replica.single_copy",
      [
        tc "commit writes all stores" `Quick test_single_copy_commit_writes_all_stores;
        tc "parent, child and parent share a binding" `Quick
          test_nested_invocations_share_a_binding;
        tc "the commit view rides the reply" `Quick test_commit_view_rides_the_reply;
        tc "a nested bind copies back at the top-level commit" `Quick
          test_nested_bind_copies_back;
        tc "a blocked prepare commits after one re-prepare" `Quick
          test_blocked_prepare_commits_after_one_reprepare;
        tc "a child's view is not the parent's" `Quick
          test_child_view_is_not_the_parent's;
        tc "server crash aborts" `Quick test_single_copy_server_crash_aborts;
        tc "server crash and recovery aborts" `Quick
          test_single_copy_server_recovered_aborts;
        tc "read only skips copy" `Quick test_read_only_skips_copy;
        tc "commit excludes crashed store" `Quick test_commit_excludes_crashed_store;
        tc "withdraws prepares on mixed votes" `Quick test_withdraw_prepares_mixed_votes;
        tc "aborts when all stores down" `Quick test_commit_aborts_when_all_stores_down;
      ] );
    ( "replica.isolation",
      [
        tc "actions isolated by locks" `Quick test_actions_isolated_by_locks;
        tc "abort discards staged write" `Quick test_abort_discards_staged_write;
        tc "a node's lock table ends an action per instance" `Quick
          test_node_lock_table_ends_actions_per_instance;
      ] );
    ( "replica.active",
      [
        tc "replicas stay consistent" `Quick test_active_replicas_stay_consistent;
        tc "masks replica crash" `Quick test_active_masks_replica_crash;
        tc "a crashed answerer's view falls back" `Quick
          test_active_answerer_crash_falls_back;
        tc "all replicas down fails" `Quick test_active_all_replicas_down_fails;
      ] );
    ( "replica.coordinator_cohort",
      [
        tc "normal operation checkpoints" `Quick test_cc_normal_operation_checkpoints;
        tc "failover continues action" `Quick test_cc_failover_continues_action;
        tc "a coordinator crash before commit" `Quick test_cc_crash_before_commit;
        tc "dead instance ignores phase 2" `Quick test_cc_dead_instance_ignores_phase2;
        tc "promotion skips ended holders" `Quick
          test_cc_promotion_skips_ended_holders;
      ] );
    ( "replica.passivation",
      [
        tc "after quiescence" `Quick test_passivation_after_quiescence;
        tc "refused while in use" `Quick test_passivation_refused_while_in_use;
        tc "frees its instance" `Quick test_passivation_frees_instance;
        tc "a phase 2 at an empty node forgets the watch" `Quick
          test_phase2_at_empty_node_forgets_watch;
        tc "a phase 2 sent while the server is down forgets the watch" `Quick
          test_phase2_while_down_forgets_watch;
      ] );
    ( "replica.settled",
      [
        tc "tombstones refuse and forget oldest" `Quick test_settled_tombstones;
        tc "tombstones survive passivation" `Quick
          test_tombstones_survive_passivation;
      ] );
  ]
