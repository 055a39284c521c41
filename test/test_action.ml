(* Tests for the atomic action layer: action identifiers, nesting, 2PC
   over store nodes and resources, crash recovery of in-doubt
   participants. *)

open Store
open Action

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

type world = {
  eng : Sim.Engine.t;
  net : Net.Network.t;
  sh : Store_host.t;
  rh : Resource_host.t;
  rt : Atomic.runtime;
  sup : Uid.supply;
}

let make_world ?seed nodes =
  let eng = Sim.Engine.create ?seed () in
  let net = Net.Network.create eng in
  let rpc = Net.Rpc.create net in
  let sh = Store_host.create rpc in
  let rh = Resource_host.create rpc in
  let rt = Atomic.make_runtime sh rh in
  List.iter
    (fun n ->
      Net.Network.add_node net n;
      Store_host.add sh n;
      Termination.attach rt ~node:n)
    nodes;
  { eng; net; sh; rh; rt; sup = Uid.supply () }

let payload_on w node uid =
  match Object_store.read (Store_host.objects w.sh node) uid with
  | Some s -> Some s.Object_state.payload
  | None -> None

(* ------------------------------------------------------------------ *)
(* Action_id *)

let test_action_id_structure () =
  let top = Action_id.top ~origin:"c1" ~serial:3 in
  check_string "top" "c1:3" (Action_id.to_string top);
  check_bool "is top" true (Action_id.is_top top);
  let kid = Action_id.child top ~serial:1 in
  let grandkid = Action_id.child kid ~serial:2 in
  check_string "grandkid" "c1:3.1.2" (Action_id.to_string grandkid);
  check_int "depth" 3 (Action_id.depth grandkid);
  check_bool "not top" false (Action_id.is_top kid);
  (match Action_id.parent grandkid with
  | Some p -> check_bool "parent" true (Action_id.equal p kid)
  | None -> Alcotest.fail "no parent");
  check_bool "top has no parent" true (Action_id.parent top = None)

(* The renderings are lock-owner keys, decision-record keys and trace
   text: whatever builds them must give the canonical "org:s1.s2..." and
   "label#serial" forms, byte for byte. *)
let prop_identifier_renderings =
  let canonical org path =
    org ^ ":" ^ String.concat "." (List.map string_of_int path)
  in
  QCheck.Test.make ~name:"action id and uid renderings are canonical" ~count:300
    QCheck.(
      triple
        (string_gen_of_size (Gen.int_range 0 6) Gen.printable)
        (list_of_size (Gen.int_range 1 6) (int_bound 100_000))
        (int_range 0 8))
    (fun (org, path, skip) ->
      let renders id rev_path =
        String.equal (Action_id.to_string id) (canonical org (List.rev rev_path))
      in
      (* Every id of the chain, deepest first, with its path reversed. *)
      let chain =
        List.fold_left
          (fun ids serial ->
            let id, rev_path = List.hd ids in
            (Action_id.child id ~serial, serial :: rev_path) :: ids)
          [ (Action_id.top ~origin:org ~serial:(List.hd path), [ List.hd path ]) ]
          (List.tl path)
      in
      let chain_ok =
        List.for_all
          (fun (id, rev_path) ->
            renders id rev_path
            &&
            match (Action_id.parent id, rev_path) with
            | None, [ _ ] -> true
            | Some up, _ :: (_ :: _ as rev_up) -> renders up rev_up
            | _ -> false)
          chain
      in
      let deepest = fst (List.hd chain) in
      let kid = Action_id.child deepest ~serial:skip in
      let round_trip =
        match Action_id.parent kid with
        | Some p ->
            Action_id.equal p deepest
            && Action_id.compare p deepest = 0
            && String.equal (Action_id.to_string p) (Action_id.to_string deepest)
        | None -> false
      in
      let sup = Uid.supply () in
      for _ = 1 to skip do
        ignore (Uid.fresh sup ~label:"pad")
      done;
      let uid = Uid.fresh sup ~label:org in
      chain_ok && round_trip
      && Action_id.depth kid = List.length path + 1
      && String.equal (Uid.to_string uid) (org ^ "#" ^ string_of_int skip)
      && Uid.serial uid = skip)

(* ------------------------------------------------------------------ *)
(* Commit and abort basics *)

let test_commit_applies_to_stores () =
  let w = make_world [ "client"; "s1"; "s2" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "client" (fun () ->
      outcome :=
        Atomic.atomically w.rt ~node:"client" (fun act ->
            let state =
              Object_state.make ~payload:"new"
                ~version:(Version.next Version.initial ~committed_by:(Atomic.owner act))
            in
            Store_participant.add act ~store:"s1" ~writes:(fun () -> [ (uid, state) ]);
            Store_participant.add act ~store:"s2" ~writes:(fun () -> [ (uid, state) ])));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "s1" (Some "new") (payload_on w "s1" uid);
  Alcotest.(check (option string)) "s2" (Some "new") (payload_on w "s2" uid)

let test_abort_leaves_stores_untouched () =
  let w = make_world [ "client"; "s1" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  Store_host.seed w.sh "s1" uid (Object_state.initial "old");
  let outcome = ref (Ok ()) in
  Net.Network.spawn_on w.net "client" (fun () ->
      outcome :=
        Atomic.atomically w.rt ~node:"client" (fun act ->
            Store_participant.add act ~store:"s1" ~writes:(fun () ->
                [ (uid, Object_state.make ~payload:"new"
                     ~version:(Version.next Version.initial ~committed_by:"x")) ]);
            raise (Atomic.Abort "changed my mind")));
  Sim.Engine.run w.eng;
  check_bool "aborted" true (!outcome = Error "changed my mind");
  Alcotest.(check (option string)) "unchanged" (Some "old") (payload_on w "s1" uid);
  check_int "no in-doubt left" 0
    (List.length (Intent_log.in_doubt (Store_host.log w.sh "s1")))

let test_participant_vote_no_aborts () =
  let w = make_world [ "client"; "s1" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  let outcome = ref (Ok ()) in
  Net.Network.spawn_on w.net "client" (fun () ->
      outcome :=
        Atomic.atomically w.rt ~node:"client" (fun act ->
            Store_participant.add act ~store:"s1" ~writes:(fun () ->
                [ (uid, Object_state.initial "x") ]);
            Atomic.before_commit act (fun () -> Error "naysayer voted no")));
  Sim.Engine.run w.eng;
  check_bool "aborted" true (Result.is_error !outcome);
  Alcotest.(check (option string)) "not applied" None (payload_on w "s1" uid)

let test_store_down_votes_no () =
  let w = make_world [ "client"; "s1" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  Net.Network.crash w.net "s1";
  let outcome = ref (Ok ()) in
  Net.Network.spawn_on w.net "client" (fun () ->
      outcome :=
        Atomic.atomically w.rt ~node:"client" (fun act ->
            Store_participant.add act ~store:"s1" ~writes:(fun () ->
                [ (uid, Object_state.initial "x") ])));
  Sim.Engine.run w.eng;
  check_bool "aborted" true (Result.is_error !outcome)

(* A store's phase-2 commit lost to a one-way cut client->s1 is retried
   by Atomic's release rule until it lands. A last before-commit hook sets
   the cut once both stores have prepared, so only phase 2 meets it; the cut
   heals 5.0 later. Without the retry s1 would keep the first write's
   reservation, and the second write would abort. *)
let test_lost_store_phase2_is_retried () =
  let w = make_world [ "client"; "s1"; "s2" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  let write payload ~cut =
    let outcome = ref (Error "never ran") in
    Net.Network.spawn_on w.net "client" (fun () ->
        outcome :=
          Atomic.atomically w.rt ~node:"client" (fun act ->
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
              if cut then
                Atomic.before_commit act (fun () ->
                    Sim.Engine.sleep w.eng 10.0;
                    Net.Network.set_oneway_cut w.net ~src:"client" ~dst:"s1" true;
                    Sim.Engine.schedule w.eng ~delay:5.0 (fun () ->
                        Net.Network.set_oneway_cut w.net ~src:"client" ~dst:"s1" false);
                    Ok ())));
    Sim.Engine.run w.eng;
    !outcome
  in
  check_bool "first committed" true (write "one" ~cut:true = Ok ());
  check_bool "phase 2 to s1 deferred" true
    (Sim.Metrics.counter (Net.Network.metrics w.net) "action.release_deferred" >= 1);
  Alcotest.(check (option string)) "s1 applied" (Some "one") (payload_on w "s1" uid);
  check_int "s1 holds no intent" 0
    (List.length (Intent_log.in_doubt (Store_host.log w.sh "s1")));
  check_bool "second committed" true (write "two" ~cut:false = Ok ());
  Alcotest.(check (option string)) "s1" (Some "two") (payload_on w "s1" uid);
  Alcotest.(check (option string)) "s2" (Some "two") (payload_on w "s2" uid)

let test_before_commit_error_aborts () =
  let w = make_world [ "client" ] in
  let undone = ref false in
  let outcome = ref (Ok ()) in
  Net.Network.spawn_on w.net "client" (fun () ->
      outcome :=
        Atomic.atomically w.rt ~node:"client" (fun act ->
            Atomic.on_abort act (fun () -> undone := true);
            Atomic.before_commit act (fun () -> Error "pre-commit check failed")));
  Sim.Engine.run w.eng;
  check_bool "aborted" true (!outcome = Error "pre-commit check failed");
  check_bool "undo ran" true !undone

let test_after_commit_only_on_commit () =
  let w = make_world [ "client" ] in
  let ran = ref 0 in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun act ->
             Atomic.after_commit act (fun () -> incr ran)));
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun act ->
             Atomic.after_commit act (fun () -> incr ran);
             raise (Atomic.Abort "no"))));
  Sim.Engine.run w.eng;
  check_int "once" 1 !ran

let test_abort_undo_reverse_order () =
  let w = make_world [ "client" ] in
  let order = ref [] in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun act ->
             Atomic.on_abort act (fun () -> order := 1 :: !order);
             Atomic.on_abort act (fun () -> order := 2 :: !order);
             raise (Atomic.Abort "x"))));
  Sim.Engine.run w.eng;
  (* Newest-first: undo 2 runs before undo 1; with :: accumulation the
     final list is [1; 2]. *)
  Alcotest.(check (list int)) "reverse order" [ 1; 2 ] !order

let test_status_transitions () =
  let w = make_world [ "client" ] in
  let statuses = ref [] in
  Net.Network.spawn_on w.net "client" (fun () ->
      let act = Atomic.begin_top w.rt ~node:"client" in
      statuses := Atomic.status act :: !statuses;
      (match Atomic.commit act with Ok () -> () | Error _ -> ());
      statuses := Atomic.status act :: !statuses;
      (* Committing again is an error, not a crash. *)
      match Atomic.commit act with
      | Ok () -> Alcotest.fail "double commit"
      | Error _ -> ());
  Sim.Engine.run w.eng;
  check_bool "running then committed" true
    (!statuses = [ Atomic.Committed; Atomic.Running ])

(* ------------------------------------------------------------------ *)
(* Nesting *)

let test_nested_commit_folds_into_parent () =
  let w = make_world [ "client"; "s1" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun parent ->
             let r =
               Atomic.atomically_nested parent (fun child ->
                   Store_participant.add child ~store:"s1" ~writes:(fun () ->
                       [ (uid, Object_state.initial "from-child") ]))
             in
             check_bool "child committed" true (r = Ok ());
             (* Child committed but parent still running: nothing durable
                yet. *)
             Alcotest.(check (option string))
               "not yet durable" None (payload_on w "s1" uid))));
  Sim.Engine.run w.eng;
  Alcotest.(check (option string))
    "durable after parent commit" (Some "from-child") (payload_on w "s1" uid)

let test_parent_abort_discards_child_effects () =
  let w = make_world [ "client"; "s1" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun parent ->
             ignore
               (Atomic.atomically_nested parent (fun child ->
                    Store_participant.add child ~store:"s1" ~writes:(fun () ->
                        [ (uid, Object_state.initial "x") ])));
             raise (Atomic.Abort "parent gives up"))));
  Sim.Engine.run w.eng;
  Alcotest.(check (option string)) "discarded" None (payload_on w "s1" uid)

let test_nested_abort_spares_parent () =
  let w = make_world [ "client"; "s1" ] in
  let uid_child = Uid.fresh w.sup ~label:"child" in
  let uid_parent = Uid.fresh w.sup ~label:"parent" in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "client" (fun () ->
      outcome :=
        Atomic.atomically w.rt ~node:"client" (fun parent ->
            let r =
              Atomic.atomically_nested parent (fun child ->
                  Store_participant.add child ~store:"s1" ~writes:(fun () ->
                      [ (uid_child, Object_state.initial "x") ]);
                  raise (Atomic.Abort "child fails"))
            in
            check_bool "child aborted" true (Result.is_error r);
            Store_participant.add parent ~store:"s1" ~writes:(fun () ->
                [ (uid_parent, Object_state.initial "y") ])));
  Sim.Engine.run w.eng;
  check_bool "parent committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "child write gone" None (payload_on w "s1" uid_child);
  Alcotest.(check (option string))
    "parent write applied" (Some "y") (payload_on w "s1" uid_parent)

let test_nested_top_level_survives_enclosing_abort () =
  let w = make_world [ "client"; "s1" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun enclosing ->
             let r =
               Atomic.atomically_nested_top enclosing (fun indep ->
                   Store_participant.add indep ~store:"s1" ~writes:(fun () ->
                       [ (uid, Object_state.initial "durable") ]))
             in
             check_bool "independent committed" true (r = Ok ());
             raise (Atomic.Abort "enclosing aborts"))));
  Sim.Engine.run w.eng;
  Alcotest.(check (option string))
    "survived" (Some "durable") (payload_on w "s1" uid)

(* ------------------------------------------------------------------ *)
(* Resource enlistment *)

(* A miniature recoverable resource: a register with staged per-action
   values and lock-manager-backed concurrency, as the group view database
   will be. *)
let make_register w node =
  let mgr = Lockmgr.Manager.create w.eng in
  let committed = ref "initial" in
  let staged : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let manager =
    {
      Resource_host.m_prepare = (fun ~scope:_ ~action:_ -> Resource_host.Vote_yes);
      m_commit =
        (fun ~scope:_ ~action ->
          (match Hashtbl.find_opt staged action with
          | Some v ->
              committed := v;
              Hashtbl.remove staged action
          | None -> ());
          Lockmgr.Manager.release mgr ~owner:action "reg");
      m_abort =
        (fun ~scope:_ ~action ->
          Hashtbl.remove staged action;
          Lockmgr.Manager.release mgr ~owner:action "reg");
      m_transfer =
        (fun ~scope:_ ~action ~parent ->
          (match Hashtbl.find_opt staged action with
          | Some v ->
              Hashtbl.replace staged parent v;
              Hashtbl.remove staged action
          | None -> ());
          Lockmgr.Manager.transfer mgr ~from_owner:action ~to_owner:parent "reg");
    }
  in
  Resource_host.register w.rh ~node ~kind:"register" manager;
  let write act v =
    (* Emulates an RPC handler: lock under the action, stage the value. *)
    let owner = Atomic.owner act in
    match Lockmgr.Manager.acquire mgr ~owner ~mode:Lockmgr.Mode.Write "reg" with
    | Ok () ->
        Hashtbl.replace staged owner v;
        Atomic.enlist act ~node ~kind:"register" ~scope:"" ();
        true
    | Error `Timeout -> false
  in
  (committed, mgr, write)

let test_resource_commit_applies_and_releases () =
  let w = make_world [ "client"; "svc" ] in
  let committed, mgr, write = make_register w "svc" in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun act ->
             check_bool "write ok" true (write act "updated"))));
  Sim.Engine.run w.eng;
  check_string "applied" "updated" !committed;
  check_bool "locks released" true (Lockmgr.Manager.holders mgr "reg" = [])

let test_resource_abort_discards_and_releases () =
  let w = make_world [ "client"; "svc" ] in
  let committed, mgr, write = make_register w "svc" in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun act ->
             ignore (write act "doomed");
             raise (Atomic.Abort "no"))));
  Sim.Engine.run w.eng;
  check_string "unchanged" "initial" !committed;
  check_bool "locks released" true (Lockmgr.Manager.holders mgr "reg" = [])

let test_resource_nested_transfer () =
  let w = make_world [ "client"; "svc" ] in
  let committed, mgr, write = make_register w "svc" in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun parent ->
             ignore
               (Atomic.atomically_nested parent (fun child ->
                    check_bool "child writes" true (write child "from-child")));
             (* After nested commit the lock belongs to the parent. *)
             Alcotest.(check (option (Alcotest.testable Lockmgr.Mode.pp Lockmgr.Mode.equal)))
               "parent holds lock" (Some Lockmgr.Mode.Write)
               (Lockmgr.Manager.holds mgr ~owner:(Atomic.owner parent) "reg"))));
  Sim.Engine.run w.eng;
  check_string "applied at top commit" "from-child" !committed

(* ------------------------------------------------------------------ *)
(* Recovery *)

let test_recovery_completes_commit_after_store_crash () =
  (* Store prepares, crashes before phase-2 delivery, recovers: the
     in-doubt record must resolve to commit by querying the coordinator. *)
  let w = make_world [ "client"; "s1"; "s2" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "client" (fun () ->
      outcome :=
        Atomic.atomically w.rt ~node:"client" (fun act ->
            let state = Object_state.initial "recovered-write" in
            Store_participant.add act ~store:"s1" ~writes:(fun () -> [ (uid, state) ]);
            Store_participant.add act ~store:"s2" ~writes:(fun () -> [ (uid, state) ]);
            (* A slow hook after both stores' prepares delays the
               decision, so the crash of s1 lands between its prepare and
               its commit. *)
            Atomic.before_commit act (fun () ->
                Sim.Engine.sleep w.eng 20.0;
                Ok ())));
  (* Both prepares are done within a few latencies and the decision comes
     20.0 after them; crash s1 at t=22, after its prepare and before
     phase 2 reaches it. Recover at t=60. *)
  Net.Fault.crash_for w.net ~at:22.0 ~duration:38.0 "s1";
  Sim.Engine.run ~until:50.0 w.eng;
  check_int "in doubt while down" 1
    (List.length (Intent_log.in_doubt (Store_host.log w.sh "s1")));
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string))
    "s2 applied" (Some "recovered-write") (payload_on w "s2" uid);
  Alcotest.(check (option string))
    "s1 recovered the write" (Some "recovered-write") (payload_on w "s1" uid);
  check_int "no in-doubt" 0
    (List.length (Intent_log.in_doubt (Store_host.log w.sh "s1")))

let test_recovery_presumed_abort_on_coordinator_crash () =
  (* Store prepares; the coordinator crashes before deciding; the store
     recovers and must presume abort. *)
  let w = make_world [ "client"; "s1" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun act ->
             Store_participant.add act ~store:"s1" ~writes:(fun () ->
                 [ (uid, Object_state.initial "doomed") ]);
             Atomic.before_commit act (fun () ->
                 Sim.Engine.sleep w.eng 50.0;
                 Ok ()))));
  (* Hooks run in registration order: s1 prepares first (within a few
     latencies), then "slow" stalls the commit before phase 1. Crash the
     coordinator while it stalls, then bounce s1 so it runs recovery. *)
  Net.Fault.crash_at w.net ~at:20.0 "client";
  Net.Fault.crash_for w.net ~at:25.0 ~duration:10.0 "s1";
  Net.Fault.recover_at w.net ~at:40.0 "client";
  Sim.Engine.run w.eng;
  Alcotest.(check (option string)) "nothing applied" None (payload_on w "s1" uid);
  check_int "no in-doubt" 0
    (List.length (Intent_log.in_doubt (Store_host.log w.sh "s1")))

let test_in_doubt_settles_promptly_after_coordinator_recovery () =
  (* A store votes yes, then its coordinator crashes for 150 and
     recovers. The store's decision probes are shed while the failure
     detector reports the coordinator down; the first probe after
     recovery must reach it. So the intent settles within one backoff of
     the crash budget (cap 8.0, plus 10% jitter) and one round trip
     after the recovery, however long the crash lasted. *)
  let w = make_world [ "client"; "s1" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  Net.Network.spawn_on w.net "client" (fun () ->
      ignore
        (Atomic.atomically w.rt ~node:"client" (fun act ->
             Store_participant.add act ~store:"s1" ~writes:(fun () ->
                 [ (uid, Object_state.initial "doomed") ]);
             Atomic.before_commit act (fun () ->
                 Sim.Engine.sleep w.eng 50.0;
                 Ok ()))));
  let in_doubt () =
    List.length (Intent_log.in_doubt (Store_host.log w.sh "s1"))
  in
  let recovered_at = 170.0 in
  Net.Fault.crash_for w.net ~at:20.0 ~duration:(recovered_at -. 20.0) "client";
  Sim.Engine.run ~until:recovered_at w.eng;
  check_int "in doubt while the coordinator is down" 1 (in_doubt ());
  (* Two hops at the default latency model's maximum of 1.5. *)
  let round_trip = 2.0 *. 1.5 in
  Sim.Engine.run ~until:(recovered_at +. (8.0 *. 1.1) +. round_trip) w.eng;
  check_int "settled within one backoff of the recovery" 0 (in_doubt ());
  Sim.Engine.run w.eng;
  Alcotest.(check (option string)) "presumed abort" None (payload_on w "s1" uid)

let test_recovery_waits_while_action_active () =
  (* The store recovers while the coordinator is still in phase 1: the
     decision service answers D_active and recovery retries until the
     commit decision lands. *)
  let w = make_world [ "client"; "s1" ] in
  let uid = Uid.fresh w.sup ~label:"a" in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.net "client" (fun () ->
      outcome :=
        Atomic.atomically w.rt ~node:"client" (fun act ->
            Store_participant.add act ~store:"s1" ~writes:(fun () ->
                [ (uid, Object_state.initial "late") ]);
            Atomic.before_commit act (fun () ->
                Sim.Engine.sleep w.eng 60.0;
                Ok ())));
  (* s1 prepares early, bounces quickly, and is back up (running recovery)
     long before phase 1 ends at ~t=60. *)
  Net.Fault.crash_for w.net ~at:15.0 ~duration:5.0 "s1";
  Sim.Engine.run w.eng;
  check_bool "committed" true (!outcome = Ok ());
  Alcotest.(check (option string)) "applied" (Some "late") (payload_on w "s1" uid)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "action.id",
      [
        tc "structure" `Quick test_action_id_structure;
        Test_util.qcheck prop_identifier_renderings;
      ] );
    ( "action.atomic",
      [
        tc "commit applies to stores" `Quick test_commit_applies_to_stores;
        tc "abort leaves stores untouched" `Quick test_abort_leaves_stores_untouched;
        tc "participant vote no aborts" `Quick test_participant_vote_no_aborts;
        tc "store down votes no" `Quick test_store_down_votes_no;
        tc "before_commit error aborts" `Quick test_before_commit_error_aborts;
        tc "after_commit only on commit" `Quick test_after_commit_only_on_commit;
        tc "abort undo reverse order" `Quick test_abort_undo_reverse_order;
        tc "status transitions" `Quick test_status_transitions;
        tc "a lost store phase 2 is retried" `Quick test_lost_store_phase2_is_retried;
      ] );
    ( "action.nesting",
      [
        tc "nested commit folds into parent" `Quick test_nested_commit_folds_into_parent;
        tc "parent abort discards child effects" `Quick test_parent_abort_discards_child_effects;
        tc "nested abort spares parent" `Quick test_nested_abort_spares_parent;
        tc "nested top-level survives enclosing abort" `Quick
          test_nested_top_level_survives_enclosing_abort;
      ] );
    ( "action.resources",
      [
        tc "commit applies and releases" `Quick test_resource_commit_applies_and_releases;
        tc "abort discards and releases" `Quick test_resource_abort_discards_and_releases;
        tc "nested transfer" `Quick test_resource_nested_transfer;
      ] );
    ( "action.recovery",
      [
        tc "completes commit after store crash" `Quick
          test_recovery_completes_commit_after_store_crash;
        tc "presumed abort on coordinator crash" `Quick
          test_recovery_presumed_abort_on_coordinator_crash;
        tc "waits while action active" `Quick test_recovery_waits_while_action_active;
        tc "in-doubt settles promptly after a long coordinator crash" `Quick
          test_in_doubt_settles_promptly_after_coordinator_recovery;
      ] );
  ]
