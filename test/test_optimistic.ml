(* Tests for the optimistic commit path: Commit.attach's validated
   lock-free snapshot with bounded retries and the starve-proof locked
   fallback (driven by stub snapshot/validate closures), idempotence of
   the naming shard's validate-and-note round, and a randomized churn
   property over the full default stack (validated batched commits +
   one-round scheme-A binds + forced delta shipping). *)

open Replica
open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Commit.attach against stub closures: the retry/fallback doctrine is
   a pure function of the validate verdicts, so drive it directly. *)

let run_attach ~snapshot_stores ~validate =
  let w =
    Test_replica.make_world ~servers:[ "alpha" ]
      ~stores:[ "beta1"; "beta2" ] ~clients:[ "c" ] ()
  in
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
                  ~validate
                  ~exclude:(fun _ _ -> Ok ())
                  ();
                (match Group.invoke w.Test_replica.grt g ~act "incr" with
                | Ok _ -> ()
                | Error _ -> raise (Action.Atomic.Abort "invoke failed"))));
  Sim.Engine.run w.Test_replica.eng;
  (w, uid, !outcome)

let check_committed (w, uid, outcome) =
  check_bool "committed" true (outcome = Ok ());
  Alcotest.(check (option string))
    "beta1" (Some "1")
    (Test_replica.store_payload w "beta1" uid);
  Alcotest.(check (option string))
    "beta2" (Some "1")
    (Test_replica.store_payload w "beta2" uid)

(* One revision conflict costs exactly one retry: the second validation
   succeeds and the commit lands on the optimistic path. *)
let test_conflict_costs_one_retry () =
  let calls = ref 0 in
  let snapshot_stores () = Ok ([ "beta1"; "beta2" ], 7) in
  let validate _act ~version:_ ~rev:_ =
    incr calls;
    if !calls = 1 then `Conflict else `Validated
  in
  let ((w, _, _) as r) = run_attach ~snapshot_stores ~validate in
  check_committed r;
  check_int "validate calls" 2 !calls;
  let m = Net.Network.metrics w.Test_replica.net in
  check_int "validate_ok" 1 (Sim.Metrics.counter m "commit.validate_ok");
  check_int "validate_conflict" 1
    (Sim.Metrics.counter m "commit.validate_conflict");
  check_int "validate_fallbacks" 0
    (Sim.Metrics.counter m "commit.validate_fallbacks")

(* Churn that outruns every retry cannot starve a commit: after exactly
   [max_attempts] validations the copy-back falls back to the classic
   locked re-read and still lands. *)
let test_starvation_falls_back_to_locked () =
  let calls = ref 0 in
  let snapshot_stores () = Ok ([ "beta1"; "beta2" ], 7) in
  let validate _act ~version:_ ~rev:_ =
    incr calls;
    `Conflict
  in
  let ((w, _, _) as r) = run_attach ~snapshot_stores ~validate in
  check_committed r;
  check_int "validate calls (bounded)" 3 !calls;
  let m = Net.Network.metrics w.Test_replica.net in
  check_int "validate_ok" 0 (Sim.Metrics.counter m "commit.validate_ok");
  check_int "validate_conflict" 3
    (Sim.Metrics.counter m "commit.validate_conflict");
  check_int "validate_fallbacks" 1
    (Sim.Metrics.counter m "commit.validate_fallbacks")

(* An unreachable snapshot read skips validation entirely: the locked
   path talks to the same shard and surfaces the real error — here the
   shard is fine, so the commit lands classically. *)
let test_snapshot_error_falls_back () =
  let calls = ref 0 in
  let snapshot_stores () = Error "shard unreachable" in
  let validate _act ~version:_ ~rev:_ =
    incr calls;
    `Validated
  in
  let ((w, _, _) as r) = run_attach ~snapshot_stores ~validate in
  check_committed r;
  check_int "validate never called" 0 !calls;
  let m = Net.Network.metrics w.Test_replica.net in
  check_int "validate_fallbacks" 1
    (Sim.Metrics.counter m "commit.validate_fallbacks")

(* ------------------------------------------------------------------ *)
(* validate_view at the shard: idempotent under duplicate delivery — the
   fence grant is re-entrant, the version advance is newer_than-guarded,
   and the revision cannot move while the fence is held, so a duplicate
   answers [Granted true] again. *)

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
               match Router.get_view_commit router ~from:"c1" uid with
               | Ok (Gvd.Granted (_, rev)) -> rev
               | _ -> Alcotest.fail "get_view_commit refused"
             in
             let version =
               Store.Version.next
                 (Gvd.committed_version gvd uid)
                 ~committed_by:(Action.Atomic.owner act)
             in
             noted := version;
             let validate () =
               match
                 Router.validate_view router ~act ~uid ~version ~rev
               with
               | Ok (Gvd.Granted ok) -> ok
               | _ -> false
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

let suite =
  [
    ( "optimistic commit",
      [
        Alcotest.test_case "one conflict costs one retry" `Quick
          test_conflict_costs_one_retry;
        Alcotest.test_case "bounded retries fall back to locked" `Quick
          test_starvation_falls_back_to_locked;
        Alcotest.test_case "snapshot error falls back to locked" `Quick
          test_snapshot_error_falls_back;
        Alcotest.test_case "validate_view is idempotent" `Quick
          test_validate_view_idempotent;
        Test_util.qcheck prop_optimistic_churn_exact;
      ] );
  ]
