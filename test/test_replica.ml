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
    ~validate:(fun _ ~version:_ ~rev:_ -> `Validated)
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
                attach_commit w act g ~exclude:(fun _ _ -> Ok ());
                (match Group.invoke w.grt g ~act "incr" with
                | Ok r -> check_string "reply" "1" r
                | Error e ->
                    raise (Action.Atomic.Abort (Format.asprintf "%a" Group.pp_invoke_error e)))));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "beta1" (Some "1") (store_payload w "beta1" uid);
  Alcotest.(check (option string)) "beta2" (Some "1") (store_payload w "beta2" uid)

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
                attach_commit w act g ~exclude:(fun _ _ -> Ok ());
                (match Group.invoke w.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"));
                (* Server dies before commit; commit view must fail. *)
                Net.Network.crash w.net "alpha";
                Sim.Engine.sleep w.eng 2.0));
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
                 attach_commit w act g ~exclude:(fun _ _ -> Ok ());
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
                    Ok ());
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
                attach_commit w act g ~exclude:(fun _ _ -> Ok ());
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
                attach_commit w act g ~exclude:(fun _ _ -> Ok ());
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
                   attach_commit w act g ~exclude:(fun _ _ -> Ok ());
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
                 attach_commit w act g ~exclude:(fun _ _ -> Ok ());
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
          attach_commit w act g ~exclude:(fun _ _ -> Ok ());
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
                attach_commit w act g ~exclude:(fun _ _ -> Ok ());
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
                attach_commit w act g ~exclude:(fun _ _ -> Ok ());
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
                attach_commit w act g ~exclude:(fun _ _ -> Ok ());
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
                 attach_commit w act grp ~exclude:(fun _ _ -> Ok ());
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
                 attach_commit w act g ~exclude:(fun _ _ -> Ok ());
                 ignore (Group.invoke w.grt g ~act "incr");
                 (* Mid-action: locks held, passivation must refuse. *)
                 match Server.passivate w.srv ~from:"c" ~server:"alpha" ~uid with
                 | Ok refused ->
                     check_bool "refused while in use" false refused
                 | Error _ -> Alcotest.fail "passivate rpc failed"))));
  Sim.Engine.run w.eng

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
        ~node:"alpha" ~resource:(Server.resource_name uid) ~action:(name i)
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
        tc "server crash aborts" `Quick test_single_copy_server_crash_aborts;
        tc "read only skips copy" `Quick test_read_only_skips_copy;
        tc "commit excludes crashed store" `Quick test_commit_excludes_crashed_store;
        tc "withdraws prepares on mixed votes" `Quick test_withdraw_prepares_mixed_votes;
        tc "aborts when all stores down" `Quick test_commit_aborts_when_all_stores_down;
      ] );
    ( "replica.isolation",
      [
        tc "actions isolated by locks" `Quick test_actions_isolated_by_locks;
        tc "abort discards staged write" `Quick test_abort_discards_staged_write;
      ] );
    ( "replica.active",
      [
        tc "replicas stay consistent" `Quick test_active_replicas_stay_consistent;
        tc "masks replica crash" `Quick test_active_masks_replica_crash;
        tc "all replicas down fails" `Quick test_active_all_replicas_down_fails;
      ] );
    ( "replica.coordinator_cohort",
      [
        tc "normal operation checkpoints" `Quick test_cc_normal_operation_checkpoints;
        tc "failover continues action" `Quick test_cc_failover_continues_action;
      ] );
    ( "replica.passivation",
      [
        tc "after quiescence" `Quick test_passivation_after_quiescence;
        tc "refused while in use" `Quick test_passivation_refused_while_in_use;
      ] );
    ( "replica.settled",
      [ tc "tombstones refuse and forget oldest" `Quick test_settled_tombstones ] );
  ]
