(* System-level property tests: randomized schedules checked against
   global invariants. These are the heaviest properties, factored apart
   from the per-layer suites. *)

open Naming

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Engine chaos: random fiber/crash schedules never wedge the engine and
   virtual time is monotone across every observed event. *)

let prop_engine_chaos =
  QCheck.Test.make ~name:"engine survives random spawn/kill schedules" ~count:100
    QCheck.(pair int64 (int_range 1 40))
    (fun (seed, n) ->
      let eng = Sim.Engine.create ~seed () in
      let rng = Sim.Rng.create seed in
      let last_seen = ref 0.0 in
      let monotone = ref true in
      let groups = Array.init 4 (fun _ -> Sim.Engine.new_group eng) in
      for _ = 1 to n do
        let g = groups.(Sim.Rng.int rng 4) in
        Sim.Engine.spawn eng ~group:g (fun () ->
            let rec hop k =
              let now = Sim.Engine.now eng in
              if now < !last_seen then monotone := false;
              last_seen := now;
              if k > 0 then begin
                Sim.Engine.sleep eng (Sim.Rng.uniform rng 0.0 5.0);
                hop (k - 1)
              end
            in
            hop (Sim.Rng.int rng 6));
        if Sim.Rng.bool rng 0.2 then
          Sim.Engine.schedule eng ~delay:(Sim.Rng.uniform rng 0.0 20.0)
            (fun () -> Sim.Engine.kill_group eng groups.(Sim.Rng.int rng 4))
      done;
      Sim.Engine.run eng;
      !monotone)

(* ------------------------------------------------------------------ *)
(* Atomic multicast: whatever the interleaving of concurrent senders,
   every listener delivers the same sequence. *)

let prop_multicast_total_order =
  QCheck.Test.make ~name:"atomic multicast delivers one total order" ~count:60
    QCheck.(pair int64 (int_range 1 15))
    (fun (seed, casts_per_sender) ->
      let eng = Sim.Engine.create ~seed () in
      let net = Net.Network.create eng in
      let rpc = Net.Rpc.create net in
      let mc = Net.Multicast.create rpc in
      let members = [ "m1"; "m2"; "m3" ] in
      List.iter (Net.Network.add_node net) ("seq" :: "s1" :: "s2" :: members);
      Net.Multicast.enable_sequencer mc ~node:"seq";
      let ch : int Net.Multicast.channel = Net.Multicast.channel "prop" in
      let logs = Hashtbl.create 3 in
      List.iter
        (fun m ->
          let log = ref [] in
          Hashtbl.replace logs m log;
          Net.Multicast.listen mc ~node:m ch (fun ~seq:_ v -> log := v :: !log))
        members;
      List.iteri
        (fun i sender ->
          Net.Network.spawn_on net sender (fun () ->
              for k = 1 to casts_per_sender do
                ignore
                  (Net.Multicast.cast_atomic mc ~from:sender ~sequencer:"seq"
                     ~members ch ((i * 1000) + k))
              done))
        [ "s1"; "s2" ];
      Sim.Engine.run eng;
      let sequences =
        List.map (fun m -> List.rev !(Hashtbl.find logs m)) members
      in
      match sequences with
      | first :: rest ->
          List.length first = 2 * casts_per_sender
          && List.for_all (fun s -> s = first) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* Active replication: after a random mix of reads and writes (and one
   mid-run replica bounce), all live replicas hold byte-identical
   committed state equal to the stores'. *)

let prop_active_replicas_identical =
  QCheck.Test.make ~name:"active replicas stay byte-identical" ~count:40
    QCheck.(pair int64 (list_of_size (Gen.int_range 1 8) (int_range 1 50)))
    (fun (seed, amounts) ->
      let w =
        Service.create ~seed
          {
            Service.gvd_node = "ns";
            gvd_nodes = [];
            server_nodes = [ "a1"; "a2"; "a3" ];
            store_nodes = [ "t1" ];
            client_nodes = [ "c1" ];
          }
      in
      let uid =
        Service.create_object w ~name:"obj" ~impl:"counter"
          ~sv:[ "a1"; "a2"; "a3" ] ~st:[ "t1" ] ()
      in
      let eng = Service.engine w in
      let net = Service.network w in
      (* Bounce one replica mid-run. *)
      Net.Fault.crash_for net ~at:30.0 ~duration:20.0 "a2";
      let ok = ref true in
      Service.spawn_client w "c1" (fun () ->
          List.iter
            (fun amount ->
              (match
                 Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
                   ~policy:(Replica.Policy.Active 3) ~uid (fun act group ->
                     ignore
                       (Service.invoke w group ~act
                          (Printf.sprintf "add %d" amount)))
               with
              | Ok () -> ()
              | Error _ -> ok := false);
              Sim.Engine.sleep eng 10.0)
            amounts);
      Service.run w;
      let store_payload =
        match
          Store.Object_store.read
            (Action.Store_host.objects (Service.store_host w) "t1")
            uid
        with
        | Some s -> Some s.Store.Object_state.payload
        | None -> None
      in
      let live_instances =
        List.filter_map
          (fun node ->
            if Net.Network.is_up net node then
              Replica.Server.instance_payload (Service.server_runtime w) ~node
                ~uid
            else None)
          [ "a1"; "a2"; "a3" ]
      in
      !ok
      && (match store_payload with
         | Some p -> List.for_all (String.equal p) live_instances
         | None -> false)
      && store_payload = Some (string_of_int (List.fold_left ( + ) 0 amounts)))

(* ------------------------------------------------------------------ *)
(* Scheme soup: random sequences of binds under random schemes against
   one object always end with the object quiescent and the counter equal
   to the number of committed increments. *)

let prop_scheme_soup_quiescent =
  QCheck.Test.make ~name:"mixed schemes end quiescent and exact" ~count:40
    QCheck.(pair int64 (list_of_size (Gen.int_range 1 10) (int_range 0 2)))
    (fun (seed, scheme_picks) ->
      let w =
        Service.create ~seed
          {
            Service.gvd_node = "ns";
            gvd_nodes = [];
            server_nodes = [ "alpha" ];
            store_nodes = [ "t1"; "t2" ];
            client_nodes = [ "c1"; "c2" ];
          }
      in
      let uid =
        Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
          ~st:[ "t1"; "t2" ] ()
      in
      let commits = ref 0 in
      let run_on client picks =
        Service.spawn_client w client (fun () ->
            List.iter
              (fun pick ->
                let scheme = List.nth Scheme.all pick in
                match
                  Service.with_bound w ~client ~scheme
                    ~policy:Replica.Policy.Single_copy_passive ~uid
                    (fun act group ->
                      ignore (Service.invoke w group ~act "incr"))
                with
                | Ok () -> incr commits
                | Error _ -> ())
              picks)
      in
      let half = List.length scheme_picks / 2 in
      run_on "c1" (List.filteri (fun i _ -> i < half) scheme_picks);
      run_on "c2" (List.filteri (fun i _ -> i >= half) scheme_picks);
      Service.run w;
      let final =
        match
          Store.Object_store.read
            (Action.Store_host.objects (Service.store_host w) "t1")
            uid
        with
        | Some s -> int_of_string s.Store.Object_state.payload
        | None -> -1
      in
      Gvd.quiescent (Service.gvd w) uid && final = !commits)

(* ------------------------------------------------------------------ *)
(* Snapshot reads: the committed-snapshot version a lock-free reader
   observes never moves backwards, however Exclude/Include churn and
   concurrent binds interleave — commits install the new snapshot and
   bump the version before any lock is released, and aborts install
   nothing. *)

let prop_snapshot_version_monotone =
  QCheck.Test.make ~name:"snapshot versions are monotone under churn" ~count:40
    QCheck.(pair int64 (int_range 2 8))
    (fun (seed, rounds) ->
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
      let rng = Sim.Rng.create seed in
      let monotone = ref true in
      let last = ref (-1) in
      let observe v =
        if v < !last then monotone := false;
        if v > !last then last := v
      in
      (* Writer: exclude t2 and re-include it, each in its own action;
         sometimes abort mid-flight so nothing may be installed. *)
      Service.spawn_client w "c1" (fun () ->
          for _ = 1 to rounds do
            let gvd = Service.gvd w in
            (match
               Action.Atomic.atomically (Service.atomic w) ~node:"c1"
                 (fun act ->
                   (match Gvd.exclude gvd ~act [ (uid, [ "t2" ]) ] with
                   | Ok (Gvd.Granted ()) -> ()
                   | _ -> raise (Action.Atomic.Abort "exclude"));
                   if Sim.Rng.bool rng 0.3 then
                     raise (Action.Atomic.Abort "chaos"))
             with
            | Ok () | Error _ -> ());
            Sim.Engine.sleep eng (Sim.Rng.uniform rng 0.5 3.0);
            (match
               Action.Atomic.atomically (Service.atomic w) ~node:"c1"
                 (fun act ->
                   match Gvd.include_ gvd ~act ~uid "t2" with
                   | Ok (Gvd.Granted _) -> ()
                   | _ -> raise (Action.Atomic.Abort "include"))
             with
            | Ok () | Error _ -> ());
            Sim.Engine.sleep eng (Sim.Rng.uniform rng 0.5 3.0)
          done);
      (* Binder churn keeps the Sv half moving through the batch path. *)
      Service.spawn_client w "c2" (fun () ->
          for _ = 1 to rounds do
            (match
               Service.with_bound w ~client:"c2" ~scheme:Scheme.Independent
                 ~policy:Replica.Policy.Single_copy_passive ~uid
                 (fun act group ->
                   ignore (Service.invoke w group ~act "incr"))
             with
            | Ok () | Error _ -> ());
            Sim.Engine.sleep eng (Sim.Rng.uniform rng 0.5 4.0)
          done);
      (* Lock-free poller: the snapshot endpoint reports the entry
         version, which it may never observe decreasing. *)
      Service.spawn_client w "c3" (fun () ->
          for _ = 1 to rounds * 6 do
            Sim.Engine.sleep eng (Sim.Rng.uniform rng 0.2 2.0);
            match Gvd.get_view_snapshot (Service.gvd w) ~from:"c3" uid with
            | Ok (Gvd.Granted (_, v)) -> observe v
            | _ -> ()
          done);
      Service.run w;
      (* The poller's floor and the final committed version agree on
         direction: the local introspection view is at least as new as
         anything observed over the wire. *)
      monotone := !monotone && Gvd.snapshot_version (Service.gvd w) uid >= !last;
      !monotone)

(* ------------------------------------------------------------------ *)
(* The headline robustness property: any seed's generated fault schedule,
   applied to the chaos world and quiesced, passes the consolidated
   audit. Each instance is a full nemesis run, so the count is small; a
   failing instance reports the offending chaos seed for replay. *)

let prop_chaos_schedules_audit_clean =
  QCheck.Test.make ~name:"random chaos schedules audit clean" ~count:4
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (n, durable) ->
      let seed = Int64.of_int ((n * 2654435761) lor 1) in
      let events = Workload.Exp_chaos.gen_events ~durable ~seed () in
      let o = Workload.Exp_chaos.run_world ~durable ~seed ~events () in
      match o.Workload.Exp_chaos.oc_violations with
      | [] -> true
      | vs ->
          QCheck.Test.fail_reportf
            "chaos seed %Ld (%s): %s@.replay: repro chaos --seeds %Ld" seed
            (if durable then "durable-ns" else "classic")
            (String.concat "; " vs) seed)

let suite =
  [
    ( "properties",
      [
        Test_util.qcheck prop_engine_chaos;
        Test_util.qcheck prop_multicast_total_order;
        Test_util.qcheck prop_active_replicas_identical;
        Test_util.qcheck prop_scheme_soup_quiescent;
        Test_util.qcheck prop_snapshot_version_monotone;
        Test_util.qcheck prop_chaos_schedules_audit_clean;
      ] );
  ]
