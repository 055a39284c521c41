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
  let voted = ref false and update = ref "" and read = ref "" in
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
            | Ok (Gvd.Granted bv) -> voted := bv.Gvd.bv_voted
            | _ -> Alcotest.fail "bind not granted");
            update :=
              describe
                (Gvd.update gvd ~act
                   uid (Gvd.Decrement { client = "c1"; servers = [ "alpha" ] }));
            read := describe (Gvd.read gvd ~act uid Gvd.Servers)));
  Service.run w;
  check_bool "the bind reply carried the vote" true !voted;
  Alcotest.(check string) "update refused" "action already prepared" !update;
  Alcotest.(check string) "locked read refused" "action already prepared" !read;
  check_bool "committed" true (!r = Ok ());
  check_int "the re-enlisted shard was asked" 1
    (counter_of w "rpc.op.resource.prepare");
  check_int "only the Increment committed" 1 (uses w uid);
  shard_clean w

(* Only a top-level action may hold a vote. *)
let test_nested_cannot_hold_vote () =
  let w = Service.create topo in
  let raised = ref false in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             let nested = Action.Atomic.begin_nested act in
             (try Action.Atomic.enlist nested ~voted:true ~node:"ns" ~resource:"gvd" ()
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
      ] );
  ]
