(* Tests for the optimistic commit path: Commit.attach's validated
   lock-free snapshot with bounded retries, then abort (driven by stub
   snapshot/validate closures), idempotence of the naming shard's
   validate-and-note round, and a randomized churn property over the
   full default stack (validated batched commits + one-round scheme-A
   binds). *)

open Replica
open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Commit.attach against stub closures: the retry doctrine is a pure
   function of the snapshot and validate verdicts, so drive it directly. *)

let run_attach ?(setup = ignore) ?(exclude = fun _ _ -> Ok ()) ~snapshot_stores
    ~validate () =
  let w =
    Test_replica.make_world ~servers:[ "alpha" ]
      ~stores:[ "beta1"; "beta2" ] ~clients:[ "c" ] ()
  in
  setup w;
  let uid =
    Test_replica.new_object w ~label:"ctr" ~payload:"0"
      ~stores:[ "beta1"; "beta2" ]
  in
  let outcome = ref (Error "never ran") in
  Net.Network.spawn_on w.Test_replica.net "c" (fun () ->
      outcome :=
        Action.Atomic.atomically w.Test_replica.art ~node:"c" (fun act ->
            match
              Group.activate w.Test_replica.grt ~client:"c" ~uid
                ~impl:"counter" ~policy:Policy.Single_copy_passive
                ~servers:[ "alpha" ] ~stores:[ "beta1"; "beta2" ]
            with
            | Error e -> raise (Action.Atomic.Abort e)
            | Ok g ->
                Commit.attach w.Test_replica.grt act g ~snapshot_stores
                  ~validate ~exclude;
                (match Group.invoke w.Test_replica.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"))));
  Sim.Engine.run w.Test_replica.eng;
  (w, uid, !outcome)

let check_stores w uid expected =
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        s (Some expected)
        (Test_replica.store_payload w s uid))
    [ "beta1"; "beta2" ]

let check_committed (w, uid, outcome) =
  check_bool "committed" true (outcome = Ok ());
  check_stores w uid "1"

(* An aborted commit leaves both stores at the old state and no prepare
   record behind: every attempt's prepares were withdrawn. *)
let check_aborted_clean (w, uid, outcome) =
  check_bool "aborted" true (Result.is_error outcome);
  check_stores w uid "0";
  List.iter
    (fun s ->
      Alcotest.(check (list string))
        (s ^ " intent log clean") []
        (Store.Intent_log.in_doubt (Action.Store_host.log w.Test_replica.sh s)))
    [ "beta1"; "beta2" ]

(* One revision conflict costs exactly one retry: the second validation
   succeeds and the commit lands. *)
let test_conflict_costs_one_retry () =
  let calls = ref 0 in
  let snapshot_stores () = Ok ([ "beta1"; "beta2" ], 7) in
  let validate _act ~version:_ ~rev:_ =
    incr calls;
    if !calls = 1 then `Conflict else `Validated
  in
  let ((w, _, _) as r) = run_attach ~snapshot_stores ~validate () in
  check_committed r;
  check_int "validate calls" 2 !calls;
  let m = Net.Network.metrics w.Test_replica.net in
  check_int "validate_ok" 1 (Sim.Metrics.counter m "commit.validate_ok");
  check_int "validate_conflict" 1
    (Sim.Metrics.counter m "commit.validate_conflict")

(* Churn that outruns every retry aborts the commit: after exactly
   [max_attempts] conflicting validations there is no other fence to
   fall back on, and every attempt's prepares are withdrawn. *)
let test_three_conflicts_abort () =
  let calls = ref 0 in
  let snapshot_stores () = Ok ([ "beta1"; "beta2" ], 7) in
  let validate _act ~version:_ ~rev:_ =
    incr calls;
    `Conflict
  in
  let ((w, _, _) as r) = run_attach ~snapshot_stores ~validate () in
  check_aborted_clean r;
  check_int "validate calls (bounded)" 3 !calls;
  let m = Net.Network.metrics w.Test_replica.net in
  check_int "validate_ok" 0 (Sim.Metrics.counter m "commit.validate_ok");
  check_int "validate_conflict" 3
    (Sim.Metrics.counter m "commit.validate_conflict")

(* A failed snapshot read aborts the commit with the read's error before
   any store is asked to prepare. *)
let test_snapshot_error_aborts () =
  let calls = ref 0 in
  let snapshot_stores () = Error "shard unreachable" in
  let validate _act ~version:_ ~rev:_ =
    incr calls;
    `Validated
  in
  let ((w, _, outcome) as r) = run_attach ~snapshot_stores ~validate () in
  check_aborted_clean r;
  check_int "validate never called" 0 !calls;
  let m = Net.Network.metrics w.Test_replica.net in
  check_int "no prepare sent" 0
    (Sim.Metrics.counter m "rpc.op.store.prepare");
  let has_reason =
    match outcome with
    | Error why -> Astring.String.is_infix ~affix:"shard unreachable" why
    | Ok () -> false
  in
  check_bool "the read's reason in the error" true has_reason

(* ------------------------------------------------------------------ *)
(* The validate-and-note (a [Note_version] update with [~if_rev]) at the
   shard: idempotent under duplicate delivery — the fence grant is
   re-entrant, the version advance is newer_than-guarded, and the
   revision cannot move while the fence is held, so a duplicate is
   applied again. *)

let test_validate_view_idempotent () =
  let w =
    Service.create
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "t1"; "t2" ];
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  let gvd = Service.gvd w in
  let router = Service.router w in
  let replies = ref [] in
  let noted = ref Store.Version.initial in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             let rev =
               match Router.read router ~act uid Gvd.Committed with
               | Ok v -> v.Gvd.v_rev
               | Error _ -> Alcotest.fail "committed read refused"
             in
             let version =
               Store.Version.next
                 (Gvd.committed_version gvd uid)
                 ~committed_by:(Action.Atomic.owner act)
             in
             noted := version;
             let validate () =
               match
                 Router.update router ~act ~if_rev:rev
                   uid (Gvd.Note_version version)
               with
               | Ok o -> o.Gvd.o_applied
               | Error _ -> false
             in
             replies := [ validate (); validate () ])));
  Service.run w;
  Alcotest.(check (list bool))
    "both deliveries granted" [ true; true ] !replies;
  check_bool "noted version installed" true
    (Store.Version.equal (Gvd.committed_version gvd uid) !noted);
  check_int "no residual naming locks" 0
    (List.length (Gvd.residual_locks gvd))

(* ------------------------------------------------------------------ *)
(* The copy-back target of a counted bind: schemes B and C commit against
   the (St, revision) pair their [Counted] bind reply carried, so a write
   commit with St unchanged since the bind sends no commit-time
   [gvd.read]; scheme A's [Locked] reply is no committed pair and still
   reads. *)

let three_store_world () =
  let w =
    Service.create
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "t1"; "t2"; "t3" ];
        client_nodes = [ "c1"; "c2" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2"; "t3" ] ()
  in
  (w, uid)

let store_payload = Test_extensions.store_payload

let committed_write w ~scheme uid =
  let r = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () ->
      r :=
        Service.with_bound w ~client:"c1" ~scheme
          ~policy:Policy.Single_copy_passive ~uid (fun act group ->
            ignore (Service.invoke w group ~act "add 1")));
  Service.run w;
  check_bool (Scheme.to_string scheme ^ " write committed") true (!r = Ok ())

let test_commit_reads_per_scheme () =
  List.iter
    (fun (scheme, reads) ->
      let w, uid = three_store_world () in
      committed_write w ~scheme uid;
      let m = Service.metrics w in
      check_int
        (Scheme.to_string scheme ^ ": gvd.read per write commit")
        reads
        (Sim.Metrics.counter m "rpc.op.gvd.read");
      check_int "no conflict" 0 (Sim.Metrics.counter m "commit.validate_conflict");
      List.iter
        (fun s ->
          Alcotest.(check (option string)) (s ^ " holds the write") (Some "1")
            (store_payload w s uid))
        [ "t1"; "t2"; "t3" ])
    [ (Scheme.Independent, 0); (Scheme.Nested_toplevel, 0); (Scheme.Standard, 1) ]

(* An Exclude committed between a counted bind and its commit moves the
   revision: the first copy-back attempt, against the bind's pair,
   conflicts once; the retry reads St and lands on the new members,
   which end at one version. *)
let test_exclude_after_counted_bind () =
  let w, uid = three_store_world () in
  let router = Service.router w in
  let binder = Service.binder w in
  let outcome = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent binder ~client:"c1" ~uid
          ~policy:Policy.Single_copy_passive
      with
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
      | Ok pb ->
          (match
             Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
                 match Router.update router ~act uid (Gvd.Exclude [ "t3" ]) with
                 | Ok _ -> ()
                 | Error f -> raise (Action.Atomic.Abort (Router.failure_to_string f)))
           with
          | Ok () -> ()
          | Error why -> Alcotest.fail ("exclude: " ^ why));
          outcome :=
            Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
                match Binder.use_prebinding binder ~act pb with
                | Error e -> raise (Action.Atomic.Abort (Binder.bind_error_to_string e))
                | Ok b -> ignore (Service.invoke w b.Binder.bd_group ~act "add 1"));
          Binder.release_independent binder pb);
  Service.run w;
  check_bool "committed" true (!outcome = Ok ());
  let m = Service.metrics w in
  check_int "one conflict" 1 (Sim.Metrics.counter m "commit.validate_conflict");
  check_int "one commit-time read" 1 (Sim.Metrics.counter m "rpc.op.gvd.read");
  let st = Gvd.current_st (Service.gvd w) uid in
  Alcotest.(check (list string)) "new St" [ "t1"; "t2" ] st;
  List.iter
    (fun s ->
      Alcotest.(check (option string)) (s ^ " at the new version") (Some "1")
        (store_payload w s uid))
    st;
  Alcotest.(check (option string)) "excluded t3 untouched" (Some "0")
    (store_payload w "t3" uid);
  match Workload.Audit.mutual_consistency w uid with
  | Ok () -> ()
  | Error why -> Alcotest.fail why

(* Scheme A keeps its commit-time read. A [Locked] bind granted while
   another action holds a staged [Exclude [t3]] (exclude-write is
   compatible with Read) sees the working St without t3 beside the
   committed revision. That action then aborts, so t3 is a member again
   and the revision never moved: a copy-back validated against the bind's
   pair would skip t3 and leave it a version behind. *)
let test_scheme_a_reads_after_aborted_exclude () =
  let w, uid = three_store_world () in
  let router = Service.router w in
  let eng = Service.engine w in
  let excluder = ref (Error "never ran") and writer = ref (Error "never ran") in
  let seen_st = ref [] in
  Service.spawn_client w "c2" (fun () ->
      excluder :=
        Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
            (match Router.update router ~act uid (Gvd.Exclude [ "t3" ]) with
            | Ok _ -> ()
            | Error f -> raise (Action.Atomic.Abort (Router.failure_to_string f)));
            Sim.Engine.sleep eng 10.0;
            raise (Action.Atomic.Abort "excluder gives up")));
  Service.spawn_client w "c1" (fun () ->
      Sim.Engine.sleep eng 2.0;
      writer :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:Policy.Single_copy_passive ~uid (fun act group ->
            seen_st := group.Group.g_stores;
            ignore (Service.invoke w group ~act "add 1");
            (* Commit only after the excluder has aborted. *)
            Sim.Engine.sleep eng 20.0));
  Service.run w;
  check_bool "excluder aborted" true (Result.is_error !excluder);
  Alcotest.(check (list string)) "bound to the working St" [ "t1"; "t2" ] !seen_st;
  check_bool "writer committed" true (!writer = Ok ());
  Alcotest.(check (list string)) "t3 still a member" [ "t1"; "t2"; "t3" ]
    (Gvd.current_st (Service.gvd w) uid);
  List.iter
    (fun s ->
      Alcotest.(check (option string)) (s ^ " holds the write") (Some "1")
        (store_payload w s uid))
    [ "t1"; "t2"; "t3" ]

(* ------------------------------------------------------------------ *)
(* The churn property: optimistic commits racing Exclude/re-Include
   churn (a bounced store) across random schemes keep exact accounting,
   mutually consistent stores, monotone snapshot versions and St
   revisions, and leave the world audit-clean. *)

let prop_optimistic_churn_exact =
  QCheck.Test.make
    ~name:"optimistic commits under churn stay exact and audit clean"
    ~count:10
    QCheck.(pair int64 (int_range 2 5))
    (fun (seed, writes) ->
      let w =
        Service.create ~seed
          {
            Service.gvd_node = "ns";
            gvd_nodes = [];
            server_nodes = [ "alpha" ];
            store_nodes = [ "t1"; "t2" ];
            client_nodes = [ "c1"; "c2"; "c3" ];
          }
      in
      let uid =
        Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
          ~st:[ "t1"; "t2" ] ()
      in
      Service.run ~until:1.0 w;
      let eng = Service.engine w in
      let net = Service.network w in
      let gvd = Service.gvd w in
      let rng = Sim.Rng.split (Sim.Engine.rng eng) in
      (* Bounce t2 twice: failing prepares Exclude it, its recoveries
         re-Include it — each flip bumps the St revision under the write
         fence the validations race. *)
      Net.Fault.crash_for net ~at:(Sim.Rng.uniform rng 4.0 12.0)
        ~duration:15.0 "t2";
      Net.Fault.crash_for net ~at:(Sim.Rng.uniform rng 35.0 50.0)
        ~duration:15.0 "t2";
      let monotone = ref true in
      Net.Network.spawn_on net "ns" (fun () ->
          let last_v = ref (-1) and last_r = ref (-1) in
          for _ = 1 to 120 do
            let v = Gvd.snapshot_version gvd uid in
            let r = Gvd.st_revision gvd uid in
            if v < !last_v || r < !last_r then monotone := false;
            last_v := max v !last_v;
            last_r := max r !last_r;
            Sim.Engine.sleep eng 1.0
          done);
      let commits = ref 0 in
      List.iter
        (fun client ->
          let crng = Sim.Rng.split rng in
          Service.spawn_client w client (fun () ->
              Sim.Engine.sleep eng (Sim.Rng.uniform crng 0.0 4.0);
              for _ = 1 to writes do
                let scheme =
                  List.nth Scheme.all
                    (Sim.Rng.int crng (List.length Scheme.all))
                in
                (match
                   Service.with_bound w ~client ~scheme
                     ~policy:Policy.Single_copy_passive ~uid
                     (fun act group ->
                       ignore (Service.invoke w group ~act "add 1"))
                 with
                | Ok () -> incr commits
                | Error _ -> ());
                Sim.Engine.sleep eng (Sim.Rng.uniform crng 4.0 12.0)
              done))
        [ "c1"; "c2"; "c3" ];
      Service.run w;
      let final =
        match Gvd.current_st gvd uid with
        | [] -> -1
        | store :: _ -> (
            match
              Store.Object_store.read
                (Action.Store_host.objects (Service.store_host w) store)
                uid
            with
            | Some s -> int_of_string s.Store.Object_state.payload
            | None -> -1)
      in
      let violations =
        (if !monotone then []
         else [ "snapshot version or St revision moved backwards" ])
        @ (if final = !commits then []
           else
             [
               Printf.sprintf "accounting: %d committed adds, counter at %d"
                 !commits final;
             ])
        @ Workload.Audit.chaos w
      in
      match violations with
      | [] -> true
      | vs ->
          QCheck.Test.fail_reportf "churn seed %Ld (%d writes): %s" seed
            writes (String.concat "; " vs))

(* ------------------------------------------------------------------ *)
(* Withdrawal reaches every store an attempt scattered to. beta2's
   replies to c are cut for the first 70.0, so its first prepare stages
   but never answers: the attempt counts it unreachable. *)

let cut_beta2_replies w =
  Net.Fault.cut_oneway_for w.Test_replica.net ~at:0.0 ~duration:70.0
    ~src:"beta2" ~dst:"c"

let beta2_clean (w, _, _) =
  Alcotest.(check (list string))
    "beta2 intent log clean" []
    (Store.Intent_log.in_doubt (Action.Store_host.log w.Test_replica.sh "beta2"))

(* A conflicting attempt withdraws the prepare beta2 staged without
   answering; the retry, against an St without beta2, commits on beta1. *)
let test_withdraw_reaches_unanswered_store () =
  let snapshots = ref 0 and calls = ref 0 in
  let snapshot_stores () =
    incr snapshots;
    Ok ((if !snapshots = 1 then [ "beta1"; "beta2" ] else [ "beta1" ]), 7)
  in
  let validate _act ~version:_ ~rev:_ =
    incr calls;
    if !calls = 1 then `Conflict else `Validated
  in
  let ((w, uid, outcome) as r) =
    run_attach ~setup:cut_beta2_replies ~snapshot_stores ~validate ()
  in
  check_bool "committed" true (outcome = Ok ());
  Alcotest.(check (option string))
    "beta1" (Some "1")
    (Test_replica.store_payload w "beta1" uid);
  Alcotest.(check (option string))
    "beta2 untouched" (Some "0")
    (Test_replica.store_payload w "beta2" uid);
  beta2_clean r

(* Until its withdrawal lands, beta2 gets no prepare from a later attempt
   (the late abort could overtake it): the retry counts it unreachable
   and excludes it, though St still lists it. *)
let test_unsettled_store_skipped () =
  let snapshot_stores () = Ok ([ "beta1"; "beta2" ], 7) in
  let calls = ref 0 and excluded = ref [] in
  let validate _act ~version:_ ~rev:_ =
    incr calls;
    if !calls = 1 then `Conflict else `Validated
  in
  let exclude _ failed =
    excluded := !excluded @ [ failed ];
    Ok ()
  in
  let ((w, uid, outcome) as r) =
    run_attach ~setup:cut_beta2_replies ~exclude ~snapshot_stores ~validate ()
  in
  check_bool "committed" true (outcome = Ok ());
  Alcotest.(check (list (list string)))
    "beta2 excluded by both attempts" [ [ "beta2" ]; [ "beta2" ] ] !excluded;
  check_int "prepare rounds: beta1 and beta2, then beta1 alone" 3
    (Sim.Metrics.counter (Net.Network.metrics w.Test_replica.net)
       "rpc.op.store.prepare");
  Alcotest.(check (option string))
    "beta2 untouched" (Some "0")
    (Test_replica.store_payload w "beta2" uid);
  beta2_clean r

(* A validated attempt that excluded the unanswering store settles the
   prepare it staged there too. *)
let test_validated_attempt_settles_excluded_store () =
  let snapshot_stores () = Ok ([ "beta1"; "beta2" ], 7) in
  let validate _act ~version:_ ~rev:_ = `Validated in
  let ((w, uid, outcome) as r) =
    run_attach ~setup:cut_beta2_replies ~snapshot_stores ~validate ()
  in
  check_bool "committed" true (outcome = Ok ());
  Alcotest.(check (option string))
    "beta1" (Some "1")
    (Test_replica.store_payload w "beta1" uid);
  beta2_clean r

let suite =
  [
    ( "optimistic commit",
      [
        Alcotest.test_case "one conflict costs one retry" `Quick
          test_conflict_costs_one_retry;
        Alcotest.test_case "three conflicts abort" `Quick
          test_three_conflicts_abort;
        Alcotest.test_case "snapshot error aborts before any prepare" `Quick
          test_snapshot_error_aborts;
        Alcotest.test_case "validate_view is idempotent" `Quick
          test_validate_view_idempotent;
        Alcotest.test_case "B/C commit from the bind's pair, A reads" `Quick
          test_commit_reads_per_scheme;
        Alcotest.test_case "exclude after a counted bind costs one conflict"
          `Quick test_exclude_after_counted_bind;
        Alcotest.test_case "scheme A reads after an aborted exclude" `Quick
          test_scheme_a_reads_after_aborted_exclude;
        Test_util.qcheck prop_optimistic_churn_exact;
        Alcotest.test_case "withdrawal reaches an unanswered store" `Quick
          test_withdraw_reaches_unanswered_store;
        Alcotest.test_case "an unsettled store gets no later prepare" `Quick
          test_unsettled_store_skipped;
        Alcotest.test_case "a validated attempt settles an excluded store"
          `Quick test_validated_attempt_settles_excluded_store;
      ] );
  ]
