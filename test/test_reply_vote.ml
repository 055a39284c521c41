(* Tests for the vote in the reply: a counted bind that asks for it
   prepares its top-level action in the same handler, the client stub
   enlists the shard as already voted, and commit sends it no prepare —
   only phase 2. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let topo =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = [ "alpha" ];
    store_nodes = [ "beta1" ];
    client_nodes = [ "c1"; "c2" ];
  }

let counter_of w name = Sim.Metrics.counter (Service.metrics w) name

let counter w = Service.create_object w ~name:"x" ~impl:"counter" ~sv:[ "alpha" ] ~st:[ "beta1" ] ()

(* The client's count in alpha's use list. *)
let uses w uid =
  match List.assoc_opt "alpha" (Gvd.current_uses (Service.gvd w) uid) with
  | Some ul -> Use_list.count ul ~client:"c1"
  | None -> 0

let shard_clean w =
  check_int "no residual naming locks" 0
    (List.length (Gvd.residual_locks (Service.gvd w)));
  Alcotest.(check (list string))
    "no shard record" [] (Gvd.residual_actions (Service.gvd w))

(* A scheme-B bind and a scheme-C bind: each bind action's 2PC sends the
   shard one phase-2 commit and no prepare. *)
let test_bind_sends_no_prepare () =
  List.iter
    (fun scheme ->
      let w = Service.create topo in
      let uid = counter w in
      let prepares = ref (-1) and commits = ref (-1) in
      Service.spawn_client w "c1" (fun () ->
          ignore
            (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
                 let p0 = counter_of w "rpc.op.resource.prepare"
                 and c0 = counter_of w "rpc.op.resource.commit" in
                 (match
                    Binder.bind (Service.binder w) ~act ~scheme ~uid
                      ~policy:Replica.Policy.Single_copy_passive
                  with
                 | Ok _ -> ()
                 | Error e -> Alcotest.fail (Binder.bind_error_to_string e));
                 prepares := counter_of w "rpc.op.resource.prepare" - p0;
                 commits := counter_of w "rpc.op.resource.commit" - c0)));
      Service.run w;
      let name = Scheme.to_string scheme in
      check_int (name ^ ": no resource.prepare") 0 !prepares;
      check_int (name ^ ": one resource.commit") 1 !commits)
    [ Scheme.Independent; Scheme.Nested_toplevel ]

(* The shard's replies to c1 are cut while the bind runs: the handler
   prepares the action, the reply is lost, the bind fails and its action
   aborts. The abort reaches the shard (c1 -> ns still delivers), so the
   Increment is dropped and no lock or record stays. *)
let test_lost_reply_aborts () =
  let w = Service.create topo in
  let uid = counter w in
  Net.Fault.cut_oneway_for (Service.network w) ~at:0.5 ~duration:100.0
    ~src:"ns" ~dst:"c1";
  let r = ref (Ok ()) in
  Service.spawn_client w "c1" (fun () ->
      Sim.Engine.sleep (Service.engine w) 1.0;
      r :=
        Result.map ignore
          (Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
             ~policy:Replica.Policy.Single_copy_passive));
  Service.run w;
  check_bool "the bind failed" true (Result.is_error !r);
  check_int "the handler ran" 1 (counter_of w "gvd.batch_binds");
  check_int "no prepare sent" 0 (counter_of w "rpc.op.resource.prepare");
  check_int "Increment dropped" 0 (uses w uid);
  shard_clean w

(* A durable shard that crashes once it has voted in the bind's reply and
   before phase 2 arrives keeps the prepared stage; on recovery,
   termination reads the decision record and installs the Increment. *)
let test_durable_shard_installs_from_decision () =
  let w = Service.create ~durable_naming:true ~latency:(fun _ -> 0.1) topo in
  let uid = counter w in
  let net = Service.network w and eng = Service.engine w in
  Sim.Trace.set_enabled (Service.trace w) true;
  let r = ref (Error Binder.(No_server "never ran")) in
  Service.spawn_client w "c1" (fun () ->
      r :=
        Result.map ignore
          (Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
             ~policy:Replica.Policy.Single_copy_passive));
  (* Crash the shard the moment the bind action commits: its phase 2 is
     on the wire for 0.1 and finds the shard down. *)
  Service.spawn_client w "c2" (fun () ->
      while counter_of w "action.commits" = 0 do
        Sim.Engine.sleep eng 0.001
      done;
      Net.Fault.crash_for net ~at:(Sim.Engine.now eng) ~duration:5.0 "ns");
  Service.run w;
  check_bool "the bind committed" true (!r = Ok ());
  check_int "no prepare sent" 0 (counter_of w "rpc.op.resource.prepare");
  check_bool "termination committed it from the decision" true
    (Sim.Trace.find (Service.trace w) ~tag:"termination" ~substring:"ns: gvd"
     |> List.exists (fun e ->
            Astring.String.is_suffix ~affix:"-> commit" e.Sim.Trace.detail));
  check_int "Increment installed" 1 (uses w uid);
  shard_clean w

(* A request after the vote is refused. Its refusal re-enlists the shard
   without a vote, so the action's commit asks the shard after all, and
   only the bind's Increment commits. *)
let test_request_after_vote_refused () =
  let w = Service.create topo in
  let uid = counter w in
  let gvd = Service.gvd w in
  let update = ref "" and read = ref "" in
  let r = ref (Error "never ran") in
  let describe = function
    | Ok (Gvd.Refused why) -> why
    | Ok (Gvd.Granted _) -> "granted"
    | Ok (Gvd.Busy why) -> "busy: " ^ why
    | Ok (Gvd.Moved _) -> "moved"
    | Error e -> Net.Rpc.error_to_string e
  in
  Service.spawn_client w "c1" (fun () ->
      r :=
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            (match
               Gvd.bind gvd ~act ~uid
                 (Gvd.Counted { replicas = 1; credits = [] })
             with
            | Ok (Gvd.Granted _) -> ()
            | _ -> Alcotest.fail "bind not granted");
            update :=
              describe
                (Gvd.update gvd ~act
                   uid (Gvd.Decrement { client = "c1"; servers = [ "alpha" ] }));
            read := describe (Gvd.read gvd ~act uid Gvd.Servers)));
  Service.run w;
  Alcotest.(check string) "update refused" "action already prepared" !update;
  Alcotest.(check string) "locked read refused" "action already prepared" !read;
  check_bool "committed" true (!r = Ok ());
  check_int "the re-enlisted shard was asked" 1
    (counter_of w "rpc.op.resource.prepare");
  check_int "only the Increment committed" 1 (uses w uid);
  shard_clean w

(* -- the validate's vote -- *)

let store_payload w node uid =
  let os = Action.Store_host.objects (Service.store_host w) node in
  Option.map (fun s -> s.Store.Object_state.payload) (Store.Object_store.read os uid)

(* The number of resources [action]'s phase 1 asked, from its trace. *)
let phase1_prepares w action =
  let prefix = action ^ " phase 1: " in
  match
    List.filter_map
      (fun e ->
        let d = e.Sim.Trace.detail in
        if String.starts_with ~prefix d then
          Scanf.sscanf
            (String.sub d (String.length prefix) (String.length d - String.length prefix))
            "%d prepares" Option.some
        else None)
      (Sim.Trace.find (Service.trace w) ~tag:"action" ~substring:prefix)
  with
  | [ n ] -> n
  | _ -> Alcotest.failf "no single phase-1 trace entry for %s" action

(* One scheme-B write of [uid] from c1 at unit latency; [body] runs after
   the invocation, inside the action. Returns the action's name and
   outcome. *)
let scheme_b_write w uid ?(body = fun _ -> ()) () =
  let action = ref "" and r = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () ->
      r :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
            action := Action.Atomic.owner act;
            ignore (Service.invoke w group ~act "add 1");
            body act));
  Service.run w;
  (!action, !r)

(* The write's commit has no phase-1 round: the shard votes in the
   validate's reply and the server instance votes beside it, so phase 1
   asks nobody. The one Resource_host prepare its commit sends is the
   server's vote; phase 1 used to ask the server and the shard. *)
let test_write_sends_no_phase1_prepare () =
  let w = Service.create ~latency:(fun _ -> 1.0) topo in
  let uid = counter w in
  Sim.Trace.set_enabled (Service.trace w) true;
  let prepares = ref (-1) in
  let body act =
    let p0 = counter_of w "rpc.op.resource.prepare" in
    Action.Atomic.after_commit act (fun () ->
        prepares := counter_of w "rpc.op.resource.prepare" - p0)
  in
  let action, r = scheme_b_write w uid ~body () in
  check_bool "committed" true (r = Ok ());
  check_int "no phase-1 prepare" 0 (phase1_prepares w action);
  check_int "one Resource_host prepare: the server's vote" 1 !prepares;
  Alcotest.(check (option string)) "beta1" (Some "1") (store_payload w "beta1" uid);
  shard_clean w

(* The shard's replies to c1 are cut from just after the store prepare
   is answered: the validate reaches the shard, which notes the version
   and votes, but its reply is lost. The server's vote beside it is
   answered. The commit aborts ("validate refused"), and the abort
   reaches the shard (c1 -> ns still delivers), so the note is undone
   and no lock or record stays. *)
let test_lost_validate_reply_aborts () =
  let w = Service.create ~latency:(fun _ -> 1.0) topo in
  let uid = counter w in
  let eng = Service.engine w in
  let version = Gvd.committed_version (Service.gvd w) uid in
  Sim.Trace.set_enabled (Service.trace w) true;
  (* Commit processing starts when the body ends: the store prepare is
     answered 2.0 later, and the validate's reply leaves the shard 1.0
     after that. *)
  let prepares = ref (-1) in
  let body act =
    let p0 = counter_of w "rpc.op.resource.prepare" in
    Action.Atomic.after_abort act (fun () ->
        prepares := counter_of w "rpc.op.resource.prepare" - p0);
    Net.Fault.cut_oneway_for (Service.network w)
      ~at:(Sim.Engine.now eng +. 2.5) ~duration:100.0 ~src:"ns" ~dst:"c1"
  in
  let action, r = scheme_b_write w uid ~body () in
  (match r with
  | Error why ->
      check_bool "the validate failed" true
        (Astring.String.is_prefix ~affix:"validate refused" why)
  | Ok () -> Alcotest.fail "committed");
  check_bool "the shard voted in the lost reply" true
    (Sim.Trace.find (Service.trace w) ~tag:"gvd"
       ~substring:(action ^ " votes in the validate's reply")
    <> []);
  check_int "one Resource_host prepare: the server's vote" 1 !prepares;
  check_bool "the version note was undone" true
    (Store.Version.equal version (Gvd.committed_version (Service.gvd w) uid));
  Alcotest.(check (option string)) "beta1 untouched" (Some "0")
    (store_payload w "beta1" uid);
  shard_clean w

(* Two objects on one shard written in one action: each bind attaches a
   before-commit hook, and only the last one's validate votes. Had the
   first voted, the shard would refuse the second validate. Phase 1 asks
   only the first object's server instance. *)
let test_two_objects_last_hook_votes () =
  let w = Service.create ~latency:(fun _ -> 1.0) topo in
  let a = counter w in
  let b =
    Service.create_object w ~name:"y" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  Sim.Trace.set_enabled (Service.trace w) true;
  let action = ref "" and r = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () ->
      r :=
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            action := Action.Atomic.owner act;
            List.iter
              (fun uid ->
                match
                  Binder.bind (Service.binder w) ~act ~scheme:Scheme.Independent
                    ~uid ~policy:Replica.Policy.Single_copy_passive
                with
                | Ok bd -> ignore (Service.invoke w bd.Binder.bd_group ~act "add 1")
                | Error e ->
                    raise (Action.Atomic.Abort (Binder.bind_error_to_string e)))
              [ a; b ]));
  Service.run w;
  check_bool "committed" true (!r = Ok ());
  Alcotest.(check (option string)) "x written" (Some "1") (store_payload w "beta1" a);
  Alcotest.(check (option string)) "y written" (Some "1") (store_payload w "beta1" b);
  check_int "one validate voted" 1
    (List.length
       (Sim.Trace.find (Service.trace w) ~tag:"gvd"
          ~substring:(!action ^ " votes in the validate's reply")));
  check_int "phase 1 asks the first object's instance" 1
    (phase1_prepares w !action);
  check_int "no validate conflict" 0 (counter_of w "commit.validate_conflict");
  shard_clean w

(* Only a top-level action may hold a vote. *)
let test_nested_cannot_hold_vote () =
  let w = Service.create topo in
  let raised = ref false in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             let nested = Action.Atomic.begin_nested act in
             (try Action.Atomic.enlist nested ~voted:true ~node:"ns" ~kind:"gvd" ~scope:"" ()
              with Invalid_argument _ -> raised := true);
             Action.Atomic.abort nested ~reason:"done")));
  Service.run w;
  check_bool "refused" true !raised

let suite =
  let tc = Alcotest.test_case in
  [
    ( "action.reply_vote",
      [
        tc "B and C binds send the shard no prepare" `Quick
          test_bind_sends_no_prepare;
        tc "a lost bind reply aborts, leaving the shard clean" `Quick
          test_lost_reply_aborts;
        tc "a durable shard installs the voted bind from the decision" `Quick
          test_durable_shard_installs_from_decision;
        tc "a request after the vote is refused" `Quick
          test_request_after_vote_refused;
        tc "a nested action cannot hold a vote" `Quick
          test_nested_cannot_hold_vote;
        tc "a single-object scheme-B write sends no phase-1 prepare" `Quick
          test_write_sends_no_phase1_prepare;
        tc "a lost validate reply aborts and leaves the shard clean" `Quick
          test_lost_validate_reply_aborts;
        tc "two objects on one shard: only the last hook's validate votes"
          `Quick test_two_objects_last_hook_votes;
      ] );
  ]
