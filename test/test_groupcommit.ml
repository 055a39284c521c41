(* Tests for the group-commit plane (Replica.Groupcommit): batch window
   close and quiescence-pull, batches of one paying a lone commit's rounds
   with the action deadline, per-action vote peel-out, the shared floor's
   re-learning from votes and acks after a store crash, the tier-1
   round-reduction pin, and a QCheck property that batched commits under
   random interleavings leave every store exactly where a sequential run
   would. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let stores = [ "t1"; "t2" ]

let topo clients =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = [ "alpha" ];
    store_nodes = stores;
    client_nodes = clients;
  }

let mk_world ?(seed = 13L) clients = Service.create ~seed (topo clients)

let new_counter w name =
  Service.create_object w ~name ~impl:"counter" ~sv:[ "alpha" ] ~st:stores ()

let commit_add w ~client ~uid =
  Service.with_bound w ~client ~scheme:Scheme.Independent
    ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
      ignore (Service.invoke w group ~act "add 1"))

let payload w store uid =
  let os = Action.Store_host.objects (Service.store_host w) store in
  Option.map
    (fun s -> s.Store.Object_state.payload)
    (Store.Object_store.read os uid)

let counter m name = Sim.Metrics.counter m name

(* ------------------------------------------------------------------ *)
(* Quiescence-pull: a lone commit must not wait out the window — once no
   other commit is approaching, the batch closes immediately and the
   commit lands at solo speed. *)

let test_quiescence_pull () =
  let w = mk_world [ "c1" ] in
  let uid = new_counter w "obj" in
  Service.run ~until:1.0 w;
  let r = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () -> r := commit_add w ~client:"c1" ~uid);
  Service.run w;
  check_bool "committed" true (!r = Ok ());
  Alcotest.(check (option string)) "t1" (Some "1") (payload w "t1" uid);
  Alcotest.(check (option string)) "t2" (Some "1") (payload w "t2" uid);
  let m = Service.metrics w in
  check_bool "quiescence pulled the close" true
    (counter m "groupcommit.pulled_closes" >= 1);
  check_int "no window expiries" 0 (counter m "groupcommit.window_closes")

(* Window expiry: with a commit token permanently outstanding (entered,
   never left), the phase-1 batch cannot quiesce and must hold the full
   window before scattering — and the commit still lands. *)

let test_window_expiry () =
  let w = mk_world [ "c1" ] in
  let uid = new_counter w "obj" in
  Service.run ~until:1.0 w;
  let gc = Replica.Server.groupcommit (Service.server_runtime w) in
  (* A commit that is forever "approaching": open batches hold for it. *)
  ignore (Replica.Groupcommit.enter gc ~client:"c1");
  let r = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () -> r := commit_add w ~client:"c1" ~uid);
  Service.run w;
  check_bool "committed" true (!r = Ok ());
  Alcotest.(check (option string)) "t1" (Some "1") (payload w "t1" uid);
  check_bool "waited out the window" true
    (Sim.Engine.now (Service.engine w) >= Replica.Groupcommit.window);
  check_bool "window expired at least once" true
    (counter (Service.metrics w) "groupcommit.window_closes" >= 1)

(* ------------------------------------------------------------------ *)
(* A batch of one pays exactly a lone commit's rounds: one store.prepare
   and one store.commit RPC per store, and no other store endpoint fires
   (store.read aside: activation reads the state). *)

let test_singleton_matches_solo () =
  let w = mk_world ~seed:17L [ "c1" ] in
  let uid = new_counter w "obj" in
  Service.run ~until:1.0 w;
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 3 do
        match commit_add w ~client:"c1" ~uid with
        | Ok () -> ()
        | Error e -> Alcotest.failf "commit failed: %s" e
      done);
  Service.run w;
  let m = Service.metrics w in
  Alcotest.(check (option string)) "t1 counted to 3" (Some "3")
    (payload w "t1" uid);
  Alcotest.(check (option string)) "t2 counted to 3" (Some "3")
    (payload w "t2" uid);
  let rounds = 3 * List.length stores in
  Alcotest.(check (list (pair string int)))
    "store rounds"
    [ ("rpc.op.store.commit", rounds); ("rpc.op.store.prepare", rounds) ]
    (List.filter
       (fun (name, _) ->
         String.starts_with ~prefix:"rpc.op.store." name
         && name <> "rpc.op.store.read")
       (Sim.Metrics.counters m))

(* The singleton scatter carries the action deadline: under a gray-failure
   profile servers shed expired work, so a lone commit whose prepares reach the
   stores after its deadline is refused there. Fixed unit latency makes the
   timing exact: the commit starts 1.5 before the deadline, its commit-view
   request lands 0.5 before it, and the prepares land 3.5 after it, behind
   the commit-view and St-snapshot round trips. *)

let test_singleton_prepare_carries_deadline () =
  let w =
    Service.create ~seed:19L ~latency:(fun _ -> 1.0)
      ~gray_failure:Service.Hedged (topo [ "c1" ])
  in
  let uid = new_counter w "obj" in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let budget = 20.0 in
  let r = ref (Ok ()) in
  Service.spawn_client w "c1" (fun () ->
      let deadline = Sim.Engine.now eng +. budget in
      r :=
        Service.with_bound ~deadline:budget w ~client:"c1"
          ~scheme:Scheme.Independent ~policy:Replica.Policy.Single_copy_passive
          ~uid (fun act group ->
            ignore (Service.invoke w group ~act "add 1");
            Sim.Engine.sleep eng (deadline -. 1.5 -. Sim.Engine.now eng)));
  Service.run w;
  check_bool "expired commit refused" true (Result.is_error !r);
  check_bool "store prepares shed" true
    (counter (Service.metrics w) "retry.shed_expired" >= 1);
  Alcotest.(check (option string)) "t1 untouched" (Some "0")
    (payload w "t1" uid)

(* ------------------------------------------------------------------ *)
(* Two commits synchronised into one batch. [sabotage] optionally bumps
   the second object's version at store t1 behind the bound instance's
   back, so that member votes Vote_stale while its batchmate is all-yes. *)

let paired_world ?(seed = 21L) ~sabotage () =
  let w = mk_world ~seed [ "c1"; "c2" ] in
  let uid1 = new_counter w "obj-1" in
  let uid2 = new_counter w "obj-2" in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  if sabotage then
    Sim.Engine.schedule eng ~delay:99.0 (fun () ->
        let os = Action.Store_host.objects (Service.store_host w) "t1" in
        match Store.Object_store.read os uid2 with
        | None -> Alcotest.fail "obj-2 missing at t1"
        | Some st ->
            Action.Store_host.seed (Service.store_host w) "t1" uid2
              (Store.Object_state.make ~payload:st.Store.Object_state.payload
                 ~version:
                   (Store.Version.next st.Store.Object_state.version
                      ~committed_by:"saboteur")));
  let results = Hashtbl.create 2 in
  List.iter
    (fun (client, uid) ->
      Service.spawn_client w client (fun () ->
          let r =
            Service.with_bound w ~client ~scheme:Scheme.Independent
              ~policy:Replica.Policy.Single_copy_passive ~uid
              (fun act group ->
                ignore (Service.invoke w group ~act "add 1");
                (* Sync point: both bodies exit — and so both commits
                   approach their prepare — at the same instant. *)
                Sim.Engine.sleep eng
                  (Float.max 0.0 (150.0 -. Sim.Engine.now eng)))
          in
          Hashtbl.replace results client r))
    [ ("c1", uid1); ("c2", uid2) ];
  Service.run w;
  (w, uid1, uid2, results)

let test_peel_out () =
  let w, uid1, uid2, results = paired_world ~sabotage:true () in
  let m = Service.metrics w in
  check_bool "batchmate committed" true (Hashtbl.find results "c1" = Ok ());
  check_bool "stale member aborted honestly" true
    (match Hashtbl.find results "c2" with Error _ -> true | Ok () -> false);
  check_int "one two-member batch formed" 1 (counter m "groupcommit.batches");
  check_int "exactly one peel-out" 1 (counter m "groupcommit.peels");
  Alcotest.(check (option string)) "obj-1 landed" (Some "1") (payload w "t1" uid1);
  Alcotest.(check (option string)) "obj-1 landed" (Some "1") (payload w "t2" uid1);
  (* The peeled member's write never applied anywhere. *)
  Alcotest.(check (option string)) "obj-2 untouched" (Some "0")
    (payload w "t1" uid2);
  Alcotest.(check (option string)) "obj-2 untouched" (Some "0")
    (payload w "t2" uid2)

(* ------------------------------------------------------------------ *)
(* A client that crashes during its commit takes the commit's fiber with
   it, so neither its phase-1 token nor its phase-2 token is settled by
   the commit itself. The plane must release them at the crash: a
   leaked token keeps every later batch waiting out the full window,
   so the surviving client's lone commits stop closing on quiescence.
   c2 commits in a loop and crashes at [crash_at]; c1 then commits alone
   five times. *)

let lone_window_closes_after_crash ~crash_at =
  let w = mk_world [ "c1"; "c2" ] in
  let uid1 = new_counter w "obj-1" in
  let uid2 = new_counter w "obj-2" in
  Service.run ~until:1.0 w;
  let eng = Service.engine w and m = Service.metrics w in
  Service.spawn_client w "c2" (fun () ->
      while true do
        ignore (commit_add w ~client:"c2" ~uid:uid2)
      done);
  Sim.Engine.schedule eng ~delay:(crash_at -. Sim.Engine.now eng) (fun () ->
      Net.Network.crash (Service.network w) "c2");
  let closes = ref (-1) and commits = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      Sim.Engine.sleep eng (crash_at +. 1.0 -. Sim.Engine.now eng);
      let before = counter m "groupcommit.window_closes" in
      for _ = 1 to 5 do
        if commit_add w ~client:"c1" ~uid:uid1 = Ok () then incr commits
      done;
      closes := counter m "groupcommit.window_closes" - before);
  Service.run w;
  check_int "c1's commits landed" 5 !commits;
  !closes

let test_crashed_client_releases_tokens () =
  List.iter
    (fun crash_at ->
      check_int
        (Printf.sprintf "crash at %.0f: lone commits never hold the window"
           crash_at)
        0
        (lone_window_closes_after_crash ~crash_at))
    [ 8.0; 10.0; 12.0; 13.0; 14.0; 16.0; 18.0; 20.0; 22.0 ]

(* ------------------------------------------------------------------ *)
(* The acceptance pin: at 8 synchronised clients, group commit cuts
   store RPC rounds per commit by at least 1.5x against a lone client's
   singleton batches (measured: well above), without losing a single
   commit. *)

let test_round_reduction_pin () =
  let reduction, solo, grouped = Workload.Exp_groupcommit.round_reduction () in
  check_int "no commit lost to batching"
    (8 * solo.Workload.Exp_groupcommit.g_commits)
    grouped.Workload.Exp_groupcommit.g_commits;
  check_bool
    (Printf.sprintf ">= 1.5x store-round reduction (got %.2fx)" reduction)
    true (reduction >= 1.5);
  check_bool "batches actually formed" true
    (grouped.Workload.Exp_groupcommit.g_batches > 0)

(* ------------------------------------------------------------------ *)
(* Property: batched commits reach exactly the sequential outcome.
   Random client counts and per-client offsets spread commits within and
   across the window, mixing multi-member batches, singletons and lone
   stretches. Each client adds 1 to its own object, so the sequential
   oracle per object is simple: every St member holds the same state,
   the counter equals the object's committed adds, and so does the
   version counter. *)

let prop_grouped_matches_sequential =
  QCheck.Test.make ~name:"batched commits match the sequential oracle"
    ~count:20
    QCheck.(pair int64 (list_of_size (Gen.int_range 2 5) (int_range 0 120)))
    (fun (seed, offsets) ->
      let clients =
        List.mapi (fun i _ -> Printf.sprintf "c%d" (i + 1)) offsets
      in
      let w = Service.create ~seed (topo clients) in
      let uids = List.map (fun c -> new_counter w ("obj-" ^ c)) clients in
      Service.run ~until:1.0 w;
      let eng = Service.engine w in
      let commits = Array.make (List.length clients) 0 in
      List.iteri
        (fun i client ->
          let uid = List.nth uids i in
          let k = List.nth offsets i in
          Service.spawn_client w client (fun () ->
              List.iter
                (fun t ->
                  Sim.Engine.sleep eng (Float.max 0.0 (t -. Sim.Engine.now eng));
                  match commit_add w ~client ~uid with
                  | Ok () -> commits.(i) <- commits.(i) + 1
                  | Error _ -> ())
                [
                  10.0 +. float_of_int (k mod 17) +. (0.013 *. float_of_int i);
                  60.0 +. float_of_int (k mod 23) +. (0.013 *. float_of_int i);
                ]))
        clients;
      Service.run w;
      let sh = Service.store_host w in
      List.for_all2
        (fun uid n ->
          match
            List.map
              (fun s -> Store.Object_store.read (Action.Store_host.objects sh s) uid)
              stores
          with
          | Some first :: rest ->
              List.for_all
                (function
                  | Some s -> Store.Object_state.equal s first | None -> false)
                rest
              && first.Store.Object_state.payload = string_of_int n
              && first.Store.Object_state.version.Store.Version.counter = n
          | _ -> false)
        uids (Array.to_list commits))

let suite =
  [
    ( "group commit",
      [
        Alcotest.test_case "quiescence pulls the window closed" `Quick
          test_quiescence_pull;
        Alcotest.test_case "held-open batch expires at the window" `Quick
          test_window_expiry;
        Alcotest.test_case "singleton batch matches the solo scatter" `Quick
          test_singleton_matches_solo;
        Alcotest.test_case "singleton prepare carries the deadline" `Quick
          test_singleton_prepare_carries_deadline;
        Alcotest.test_case "stale member peels out, batchmate commits" `Quick
          test_peel_out;
        Alcotest.test_case "a crashed client's tokens are released" `Quick
          test_crashed_client_releases_tokens;
        Alcotest.test_case "pin: >= 1.5x round reduction at 8 clients" `Quick
          test_round_reduction_pin;
        Test_util.qcheck prop_grouped_matches_sequential;
      ] );
  ]
