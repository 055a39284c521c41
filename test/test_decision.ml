(* Tests for the lifetime of a coordinator's decision record under
   presumed abort: the record goes once every participant has confirmed
   its phase 2, and stays for a participant that may hold the action's
   stage without a confirmed leg, so that it hears "commit" when it asks
   on recovery. *)

open Store
open Action

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let decision_t =
  Alcotest.testable
    (fun ppf d ->
      Format.pp_print_string ppf
        (match d with Intent_log.Commit -> "commit" | Intent_log.Abort -> "abort"))
    ( = )

let decision sh ~coordinator ~action =
  Intent_log.decision_of (Store_host.log sh coordinator) ~action

(* One top-level write of [payload] to s1 and s2 from "client", each
   store's state the successor of s1's; [extra] adds before-commit hooks,
   which run after both stores have prepared. *)
let write (w : Test_action.world) ?(extra = fun _ -> ()) uid payload =
  let action = ref "" in
  let outcome =
    Atomic.atomically w.rt ~node:"client" (fun act ->
        action := Atomic.owner act;
        let prev =
          match Object_store.read (Store_host.objects w.sh "s1") uid with
          | Some st -> st.Object_state.version
          | None -> Version.initial
        in
        let state =
          Object_state.make ~payload
            ~version:(Version.next prev ~committed_by:(Atomic.owner act))
        in
        Store_participant.add act ~store:"s1" ~writes:(fun () -> [ (uid, state) ]);
        Store_participant.add act ~store:"s2" ~writes:(fun () -> [ (uid, state) ]);
        extra act)
  in
  (!action, outcome)

let in_doubt (w : Test_action.world) store =
  Intent_log.in_doubt (Store_host.log w.sh store)

(* A fault-free world: every phase 2 lands inline, so no record outlives
   its action. *)
let test_acknowledged_decisions_are_forgotten () =
  let w = Test_action.make_world [ "client"; "s1"; "s2" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  let k = 5 in
  let actions = ref [] in
  Net.Network.spawn_on w.net "client" (fun () ->
      for i = 1 to k do
        let action, outcome = write w uid (string_of_int i) in
        check_bool (action ^ " committed") true (outcome = Ok ());
        actions := action :: !actions
      done);
  Sim.Engine.run w.eng;
  check_int "k actions" k (List.length !actions);
  List.iter
    (fun action ->
      Alcotest.(check (option decision_t))
        (action ^ " forgotten") None
        (decision w.sh ~coordinator:"client" ~action))
    !actions;
  Alcotest.(check (option string))
    "s1" (Some (string_of_int k)) (Test_action.payload_on w "s1" uid)

(* s1 votes yes, then crashes before phase 2 reaches it: its leg finds
   the node down, so the record stays, and s1 commits on recovery by
   asking for it. *)
let test_record_kept_for_a_crashed_voter () =
  let w = Test_action.make_world [ "client"; "s1"; "s2" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  let result = ref ("", Error "never ran") in
  Net.Network.spawn_on w.net "client" (fun () ->
      result :=
        write w uid "one" ~extra:(fun act ->
            Atomic.before_commit act (fun () ->
                Sim.Engine.sleep w.eng 10.0;
                Net.Fault.crash_for w.net ~at:(Sim.Engine.now w.eng)
                  ~duration:30.0 "s1";
                Sim.Engine.sleep w.eng 1.0;
                Ok ())));
  Sim.Engine.run w.eng;
  let action, outcome = !result in
  check_bool "committed" true (outcome = Ok ());
  Alcotest.(check (option decision_t))
    "record kept" (Some Intent_log.Commit)
    (decision w.sh ~coordinator:"client" ~action);
  Alcotest.(check (option string))
    "s1 committed on recovery" (Some "one") (Test_action.payload_on w "s1" uid);
  Alcotest.(check (list string)) "s1 settled" [] (in_doubt w "s1")

(* A one-way cut s1 -> client drops the reply to s1's phase 2, so the
   leg is retried in the background. The record stays while the retry
   is pending and goes once it lands. *)
let test_record_outlives_a_lost_phase2_reply () =
  let w = Test_action.make_world [ "client"; "s1"; "s2" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  let result = ref ("", Error "never ran") in
  let at_return = ref None in
  Net.Network.spawn_on w.net "client" (fun () ->
      let ((action, _) as r) =
        write w uid "one" ~extra:(fun act ->
            Atomic.before_commit act (fun () ->
                Sim.Engine.sleep w.eng 10.0;
                Net.Network.set_oneway_cut w.net ~src:"s1" ~dst:"client" true;
                Sim.Engine.schedule w.eng ~delay:5.0 (fun () ->
                    Net.Network.set_oneway_cut w.net ~src:"s1" ~dst:"client" false);
                Ok ()))
      in
      at_return := decision w.sh ~coordinator:"client" ~action;
      result := r);
  Sim.Engine.run w.eng;
  let action, outcome = !result in
  check_bool "committed" true (outcome = Ok ());
  check_bool "phase 2 to s1 deferred" true
    (Sim.Metrics.counter (Net.Network.metrics w.net) "action.release_deferred" >= 1);
  Alcotest.(check (option decision_t))
    "kept while the retry is pending" (Some Intent_log.Commit) !at_return;
  Alcotest.(check (option decision_t))
    "forgotten once it landed" None
    (decision w.sh ~coordinator:"client" ~action);
  Alcotest.(check (option string))
    "s1 applied" (Some "one") (Test_action.payload_on w "s1" uid);
  Alcotest.(check (list string)) "s1 settled" [] (in_doubt w "s1")

(* beta2 crashes after staging the copy-back's prepare but before its
   vote gets back (its replies to c are cut until then), so the vote
   ends [Crashed] and the commit goes ahead on beta1 alone. beta2's
   intent log survives the crash; it gets no phase-2 leg, so the record
   is pinned, and on recovery beta2 hears "commit". The crash comes 1.5
   (the longest one-way latency) after the poll first sees the prepare
   staged, so the vote has met the cut by then whatever the poll's phase
   against the commit. *)
let test_crashed_prepare_pins_the_record () =
  let crash_mid_prepare (w : Test_replica.world) =
    let log = Store_host.log w.sh "beta2" in
    Net.Network.set_oneway_cut w.net ~src:"beta2" ~dst:"c" true;
    let rec poll () =
      if Intent_log.in_doubt log <> [] then
        Sim.Engine.schedule w.eng ~delay:1.5 (fun () ->
            Net.Network.set_oneway_cut w.net ~src:"beta2" ~dst:"c" false;
            Net.Fault.crash_for w.net ~at:(Sim.Engine.now w.eng) ~duration:20.0
              "beta2")
      else if Sim.Engine.now w.eng < 100.0 then
        Sim.Engine.schedule w.eng ~delay:0.5 poll
    in
    Sim.Engine.schedule w.eng ~delay:0.5 poll
  in
  let w, uid, outcome =
    Test_optimistic.run_attach ~setup:crash_mid_prepare
      ~snapshot_stores:(fun () -> Ok ([ "beta1"; "beta2" ], 7))
      ~validate:(fun _ ~version:_ ~rev:_ ~vote:_ -> `Validated)
      ()
  in
  check_bool "committed" true (outcome = Ok ());
  check_bool "beta2's vote was lost to its crash" true
    (Sim.Metrics.counter (Net.Network.metrics w.net) "rpc.crashed" >= 1);
  let action =
    match Object_store.read (Store_host.objects w.sh "beta1") uid with
    | Some st -> st.Object_state.version.Version.committed_by
    | None -> Alcotest.fail "beta1 holds no state"
  in
  Alcotest.(check (option decision_t))
    "record pinned" (Some Intent_log.Commit)
    (decision w.sh ~coordinator:"c" ~action);
  Alcotest.(check (option string))
    "beta2 learned commit" (Some "1") (Test_replica.store_payload w "beta2" uid);
  Alcotest.(check (list string))
    "beta2 settled" [] (Intent_log.in_doubt (Store_host.log w.sh "beta2"))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "action.decision",
      [
        tc "acknowledged decisions are forgotten" `Quick
          test_acknowledged_decisions_are_forgotten;
        tc "a crashed yes voter keeps the record" `Quick
          test_record_kept_for_a_crashed_voter;
        tc "a lost phase-2 reply keeps it until the retry lands" `Quick
          test_record_outlives_a_lost_phase2_reply;
        tc "a crashed prepare pins the record" `Quick
          test_crashed_prepare_pins_the_record;
      ] );
  ]
