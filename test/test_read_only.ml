(* Tests for the presumed-abort read-only vote: a resource that staged
   nothing for an action ends the action at prepare, and the coordinator
   leaves it out of phase 2 and of the abort fan-out. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let topo =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = [ "alpha"; "alpha2" ];
    store_nodes = [ "beta1" ];
    client_nodes = [ "c1"; "c2" ];
  }

let counter w name ~sv =
  Service.create_object w ~name ~impl:"counter" ~sv:[ sv ] ~st:[ "beta1" ] ()

let counter_of w name = Sim.Metrics.counter (Service.metrics w) name

let decision w ~action =
  Store.Intent_log.decision_of
    (Action.Store_host.log (Service.store_host w) "c1")
    ~action

let store_payload w uid =
  Option.map
    (fun s -> s.Store.Object_state.payload)
    (Store.Object_store.read
       (Action.Store_host.objects (Service.store_host w) "beta1")
       uid)

let bind w act uid =
  match
    Binder.bind (Service.binder w) ~act ~scheme:Scheme.Standard ~uid
      ~policy:Replica.Policy.Single_copy_passive
  with
  | Ok b -> b.Binder.bd_group
  | Error e -> raise (Action.Atomic.Abort (Binder.bind_error_to_string e))

let holders w node =
  List.concat_map
    (fun (_, holders, _) -> holders)
    (Replica.Server.instance_residue (Service.server_runtime w) ~node)

(* A scheme-A get: the shard holds only read locks and the server staged
   nothing, so both vote read-only. Nobody gets phase 2 and the
   coordinator records no decision. *)
let test_get_ends_at_prepare () =
  let w = Service.create topo in
  let uid = counter w "x" ~sv:"alpha" in
  let action = ref "" in
  let r = ref (Error "never ran") in
  let locks_at_return = ref (-1) in
  Service.spawn_client w "c1" (fun () ->
      r :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act g ->
            action := Action.Atomic.owner act;
            Service.invoke w g ~act ~write:false "get");
      locks_at_return :=
        List.length (Gvd.residual_locks (Service.gvd w))
        + List.length (holders w "alpha"));
  Service.run w;
  check_bool "committed" true (!r = Ok "0");
  check_int "two prepares" 2 (counter_of w "rpc.op.resource.prepare");
  check_int "no phase 2" 0 (counter_of w "rpc.op.resource.commit");
  check_bool "no decision record" true (decision w ~action:!action = None);
  check_int "no lock at either resource" 0 !locks_at_return;
  Alcotest.(check (list string))
    "no shard record" [] (Gvd.residual_actions (Service.gvd w))

(* A writer queued behind a reader's instance Read lock is granted when
   the read-only vote releases it: by the time the reader's phase 2
   starts (a probe participant's commit runs first), the writer holds
   the lock. *)
let test_writer_granted_at_reader_prepare () =
  let w = Service.create topo in
  let uid = counter w "x" ~sv:"alpha" in
  let eng = Service.engine w in
  let reader = ref (Error "never ran") and writer = ref (Error "never ran") in
  let writer_owner = ref "" in
  let writer_held_at_decision = ref false in
  Service.spawn_client w "c1" (fun () ->
      reader :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act g ->
            let v = Service.invoke w g ~act ~write:false "get" in
            (* The writer queues on the instance lock meanwhile. *)
            Sim.Engine.sleep eng 20.0;
            Action.Atomic.add_participant act
              ~commit:(fun () ->
                writer_held_at_decision :=
                  List.mem !writer_owner (holders w "alpha"))
              ~abort:ignore;
            v));
  Sim.Engine.schedule eng ~delay:5.0 (fun () ->
      Service.spawn_client w "c2" (fun () ->
          writer :=
            Service.with_bound w ~client:"c2" ~scheme:Scheme.Standard
              ~policy:Replica.Policy.Single_copy_passive ~uid (fun act g ->
                writer_owner := Action.Atomic.owner act;
                Service.invoke w g ~act "incr")));
  Service.run w;
  check_bool "reader committed" true (!reader = Ok "0");
  check_bool "writer committed" true (!writer = Ok "1");
  check_bool "writer granted before the reader's phase 2" true
    !writer_held_at_decision;
  Alcotest.(check (option string)) "store" (Some "1") (store_payload w uid)

(* Reading X and writing Y on different servers: X's server votes
   read-only and gets no phase 2; Y's server and the shard (which holds
   Y's version note) vote yes and get theirs; the decision is recorded,
   and forgotten once every phase 2 has been acknowledged. A probe
   participant's commit, which runs in phase 2, reads the record. *)
let test_mixed_action_skips_reader_phase2 () =
  let w = Service.create topo in
  let x = counter w "x" ~sv:"alpha" and y = counter w "y" ~sv:"alpha2" in
  Sim.Trace.set_enabled (Service.trace w) true;
  let action = ref "" in
  let r = ref (Error "never ran") in
  let at_phase2 = ref None in
  Service.spawn_client w "c1" (fun () ->
      r :=
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            action := Action.Atomic.owner act;
            let gx = bind w act x and gy = bind w act y in
            ignore (Service.invoke w gx ~act ~write:false "get");
            ignore (Service.invoke w gy ~act "incr");
            Action.Atomic.add_participant act
              ~commit:(fun () -> at_phase2 := decision w ~action:!action)
              ~abort:ignore));
  Service.run w;
  check_bool "committed" true (!r = Ok ());
  let installs node =
    List.length
      (List.filter
         (fun e -> String.starts_with ~prefix:(node ^ ": ") e.Sim.Trace.detail)
         (Sim.Trace.find (Service.trace w) ~tag:"server"
            ~substring:"instance-commit"))
  in
  check_int "no phase 2 at X's server" 0 (installs "alpha");
  check_int "phase 2 at Y's server" 1 (installs "alpha2");
  check_int "phase 2 at Y's server and the shard" 2
    (counter_of w "rpc.op.resource.commit");
  check_bool "decision recorded" true
    (!at_phase2 = Some Store.Intent_log.Commit);
  check_bool "decision forgotten once phase 2 was acknowledged" true
    (decision w ~action:!action = None);
  Alcotest.(check (option string)) "Y copied back" (Some "1") (store_payload w y)

(* A durable shard that lost a reader's record (and its read locks) in a
   crash cannot vote read-only: it votes no and the action aborts. *)
let test_durable_shard_lost_action_votes_no () =
  let w = Service.create ~durable_naming:true topo in
  let uid = counter w "x" ~sv:"alpha" in
  let eng = Service.engine w in
  let r = ref (Ok "") in
  Service.spawn_client w "c1" (fun () ->
      r :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act g ->
            let v = Service.invoke w g ~act ~write:false "get" in
            Net.Fault.crash_for (Service.network w)
              ~at:(Sim.Engine.now eng +. 1.0) ~duration:5.0 "ns";
            Sim.Engine.sleep eng 20.0;
            v));
  Service.run w;
  (match !r with
  | Error reason ->
      check_bool "the shard voted no" true
        (Astring.String.is_infix ~affix:"gvd@ns voted no" reason)
  | Ok _ -> Alcotest.fail "a reader whose shard lost its locks committed");
  check_int "no residual naming locks" 0
    (List.length (Gvd.residual_locks (Service.gvd w)));
  Alcotest.(check (list string))
    "no instance lock left" [] (holders w "alpha")

(* A resource that voted read-only has already ended the action: when
   another resource votes no, the abort fan-out skips it. *)
let test_abort_skips_read_only_voter () =
  let eng = Sim.Engine.create () in
  let net = Net.Network.create eng in
  let rpc = Net.Rpc.create net in
  let sh = Action.Store_host.create rpc in
  let rh = Action.Resource_host.create rpc in
  let rt = Action.Atomic.make_runtime sh rh in
  List.iter
    (fun n ->
      Net.Network.add_node net n;
      Action.Store_host.add sh n)
    [ "client"; "r1"; "r2" ];
  let calls = Hashtbl.create 8 in
  let log node op = Hashtbl.replace calls (node, op) () in
  let manager node vote =
    {
      Action.Resource_host.m_prepare =
        (fun ~scope:_ ~action:_ ->
          log node "prepare";
          vote);
      m_commit = (fun ~scope:_ ~action:_ -> log node "commit");
      m_abort = (fun ~scope:_ ~action:_ -> log node "abort");
      m_transfer = (fun ~scope:_ ~action:_ ~parent:_ -> log node "transfer");
    }
  in
  Action.Resource_host.register rh ~node:"r1" ~kind:"res"
    (manager "r1" Action.Resource_host.Vote_read_only);
  Action.Resource_host.register rh ~node:"r2" ~kind:"res"
    (manager "r2" Action.Resource_host.Vote_no);
  let r = ref (Ok ()) in
  Net.Network.spawn_on net "client" (fun () ->
      r :=
        Action.Atomic.atomically rt ~node:"client" (fun act ->
            Action.Atomic.enlist act ~node:"r1" ~kind:"res" ~scope:"" ();
            Action.Atomic.enlist act ~node:"r2" ~kind:"res" ~scope:"" ()));
  Sim.Engine.run eng;
  check_bool "aborted" true (!r = Error "resource res@r2 voted no");
  let called node op = Hashtbl.mem calls (node, op) in
  check_bool "read-only voter prepared" true (called "r1" "prepare");
  check_bool "no abort to the read-only voter" false (called "r1" "abort");
  check_bool "no-voter aborted" true (called "r2" "abort");
  check_int "one abort sent" 1
    (Sim.Metrics.counter (Net.Network.metrics net) "rpc.op.resource.abort")

let suite =
  let tc = Alcotest.test_case in
  [
    ( "action.read_only_vote",
      [
        tc "a scheme-A get ends at prepare" `Quick test_get_ends_at_prepare;
        tc "a queued writer is granted at the reader's prepare" `Quick
          test_writer_granted_at_reader_prepare;
        tc "a mixed action skips the reader's phase 2" `Quick
          test_mixed_action_skips_reader_phase2;
        tc "a durable shard that lost the action votes no" `Quick
          test_durable_shard_lost_action_votes_no;
        tc "an abort skips the read-only voter" `Quick
          test_abort_skips_read_only_voter;
      ] );
  ]
