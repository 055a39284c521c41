(* Tests for the sharded naming tier: the consistent-hash shard map, the
   per-operation router, the client lease cache of bind results, and the
   online rebalance protocol (entries handed off shard-to-shard without
   quiescing in-flight binds). *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let uids_of n =
  let sup = Store.Uid.supply () in
  List.init n (fun i -> Store.Uid.fresh sup ~label:(Printf.sprintf "u%d" i))

(* ------------------------------------------------------------------ *)
(* Shard map *)

let test_shardmap_deterministic () =
  let nodes = [ "ns1"; "ns2"; "ns3"; "ns4" ] in
  let a = Shard_map.create ~nodes and b = Shard_map.create ~nodes in
  List.iter
    (fun uid ->
      check_string "same owner under equal maps" (Shard_map.owner a uid)
        (Shard_map.owner b uid))
    (uids_of 50)

let test_shardmap_single_node () =
  let m = Shard_map.create ~nodes:[ "only" ] in
  List.iter
    (fun uid -> check_string "single node owns all" "only" (Shard_map.owner m uid))
    (uids_of 20)

let test_shardmap_distribution () =
  let nodes = [ "ns1"; "ns2"; "ns3"; "ns4" ] in
  let m = Shard_map.create ~nodes in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun uid ->
      let o = Shard_map.owner m uid in
      Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
    (uids_of 400);
  List.iter
    (fun n ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts n) in
      check_bool
        (Printf.sprintf "%s owns a fair share (%d/400)" n c)
        true
        (c > 40))
    nodes

let test_shardmap_stability () =
  (* Consistent hashing: growing the ring by one node must move only a
     minority of the keys. *)
  let uids = uids_of 400 in
  let before = Shard_map.create ~nodes:[ "ns1"; "ns2"; "ns3"; "ns4" ] in
  let after = Shard_map.with_nodes before [ "ns1"; "ns2"; "ns3"; "ns4"; "ns5" ] in
  let moved =
    List.length
      (List.filter (fun u -> Shard_map.owner before u <> Shard_map.owner after u) uids)
  in
  check_bool
    (Printf.sprintf "adding a shard moved %d/400" moved)
    true
    (moved > 0 && moved < 200)

let test_shardmap_version_and_validation () =
  let m = Shard_map.create ~nodes:[ "a"; "b" ] in
  check_int "fresh map is version 1" 1 (Shard_map.version m);
  let m2 = Shard_map.with_nodes m [ "a"; "b"; "c" ] in
  check_int "with_nodes bumps version" 2 (Shard_map.version m2);
  check_int "original unchanged" 1 (Shard_map.version m);
  Alcotest.check_raises "empty node set rejected"
    (Invalid_argument "Shard_map.create: empty node list") (fun () ->
      ignore (Shard_map.create ~nodes:[]))

(* ------------------------------------------------------------------ *)
(* Bind cache *)

let test_cache_hit_miss_expiry () =
  let m = Sim.Metrics.create () in
  let c = Bind_cache.create ~lease:10.0 m in
  let uid = List.hd (uids_of 1) in
  check_bool "cold miss" true (Bind_cache.find c ~now:0.0 ~client:"c1" uid = None);
  Bind_cache.fill c ~now:0.0 ~client:"c1" uid ~impl:"counter"
    ~servers:[ "s1" ] ~stores:[ "t1" ];
  (match Bind_cache.find c ~now:5.0 ~client:"c1" uid with
  | Some e ->
      check_string "cached impl" "counter" e.Bind_cache.ce_impl;
      Alcotest.(check (list string)) "cached servers" [ "s1" ] e.Bind_cache.ce_servers
  | None -> Alcotest.fail "expected a hit within the lease");
  check_bool "another client misses" true
    (Bind_cache.find c ~now:5.0 ~client:"c2" uid = None);
  check_bool "expired after the lease" true
    (Bind_cache.find c ~now:10.5 ~client:"c1" uid = None);
  check_int "expiry counted" 1 (Sim.Metrics.counter m "cache.expired");
  check_int "hits" 1 (Sim.Metrics.counter m "cache.hit");
  check_int "misses" 3 (Sim.Metrics.counter m "cache.miss")

let test_cache_renew_and_invalidate () =
  let m = Sim.Metrics.create () in
  let c = Bind_cache.create ~lease:10.0 m in
  let uid = List.hd (uids_of 1) in
  Bind_cache.fill c ~now:0.0 ~client:"c1" uid ~impl:"counter" ~servers:[ "s1" ]
    ~stores:[ "t1" ];
  Bind_cache.renew c ~now:8.0 ~client:"c1" uid;
  check_bool "renewed entry outlives the original lease" true
    (Bind_cache.find c ~now:15.0 ~client:"c1" uid <> None);
  Bind_cache.invalidate c ~client:"c1" uid;
  check_int "invalidation counted" 1 (Sim.Metrics.counter m "cache.invalidations");
  check_bool "gone after invalidate" true
    (Bind_cache.find c ~now:15.0 ~client:"c1" uid = None);
  Bind_cache.invalidate c ~client:"c1" uid;
  check_int "absent invalidate not counted" 1
    (Sim.Metrics.counter m "cache.invalidations");
  Alcotest.check_raises "non-positive lease rejected"
    (Invalid_argument "Bind_cache.create: lease must be positive") (fun () ->
      ignore (Bind_cache.create ~lease:0.0 m))

(* ------------------------------------------------------------------ *)
(* Multi-shard worlds *)

let sharded_topo extra =
  {
    Service.gvd_node = "ns";
    gvd_nodes = extra;
    server_nodes = [ "alpha"; "alpha2" ];
    store_nodes = [ "beta1"; "beta2" ];
    client_nodes = [ "c1"; "c2" ];
  }

let test_multi_shard_ops () =
  let w = Service.create ~seed:7L (sharded_topo [ "ns2"; "ns3" ]) in
  let uids =
    List.init 12 (fun i ->
        Service.create_object w
          ~name:(Printf.sprintf "obj%d" i)
          ~impl:"counter" ~sv:[ "alpha" ] ~st:[ "beta1"; "beta2" ] ())
  in
  Service.run ~until:1.0 w;
  (* Entries actually spread over the shards. *)
  let populated =
    List.length
      (List.filter (fun g -> Gvd.all_uids g <> []) (Router.gvds (Service.router w)))
  in
  check_bool
    (Printf.sprintf "entries on %d/3 shards" populated)
    true (populated >= 2);
  (* Every entry sits on the shard its map owner designates. *)
  List.iter
    (fun uid ->
      let owner = Shard_map.owner (Router.map (Service.router w)) uid in
      let g = List.find (fun g -> Gvd.node g = owner) (Router.gvds (Service.router w)) in
      check_bool "owner shard holds the entry" true (Gvd.owns g uid))
    uids;
  (* Lookup resolves names living on non-primary shards. *)
  let resolved = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      List.iteri
        (fun i _ ->
          match Service.lookup w ~from:"c1" (Printf.sprintf "obj%d" i) with
          | Some _ -> incr resolved
          | None -> ())
        uids);
  Service.run w;
  check_int "all names resolve" 12 !resolved

let test_multi_shard_binds_all_schemes () =
  let w = Service.create ~seed:11L (sharded_topo [ "ns2"; "ns3"; "ns4" ]) in
  let uids =
    List.init 6 (fun i ->
        Service.create_object w
          ~name:(Printf.sprintf "obj%d" i)
          ~impl:"counter" ~sv:[ "alpha"; "alpha2" ] ~st:[ "beta1"; "beta2" ] ())
  in
  Service.run ~until:1.0 w;
  let commits = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      List.iteri
        (fun i uid ->
          let scheme = List.nth Scheme.all (i mod List.length Scheme.all) in
          match
            Service.with_bound w ~client:"c1" ~scheme
              ~policy:(Replica.Policy.Active 2) ~uid (fun act group ->
                Service.invoke w group ~act "incr")
          with
          | Ok _ -> incr commits
          | Error why -> Alcotest.fail ("bind/commit failed: " ^ why))
        uids);
  Service.run w;
  check_int "all schemes commit across shards" 6 !commits;
  List.iter
    (fun uid ->
      match Workload.Audit.mutual_consistency w uid with
      | Ok () -> ()
      | Error why -> Alcotest.fail why)
    uids

(* ------------------------------------------------------------------ *)
(* Online rebalance *)

let test_online_rebalance_under_load () =
  let w = Service.create ~seed:23L (sharded_topo [ "ns2"; "ns3"; "ns4" ]) in
  (* Start with only two of the four naming nodes in the map. *)
  Router.reset_map (Service.router w) [ "ns"; "ns2" ];
  let uids =
    List.init 8 (fun i ->
        Service.create_object w
          ~name:(Printf.sprintf "obj%d" i)
          ~impl:"counter" ~sv:[ "alpha" ] ~st:[ "beta1"; "beta2" ] ())
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let commits = ref 0 and attempts = ref 0 in
  List.iter
    (fun client ->
      Service.spawn_client w client (fun () ->
          for i = 0 to 19 do
            incr attempts;
            let uid = List.nth uids ((i + if client = "c1" then 0 else 3) mod 8) in
            (match
               Service.with_bound w ~client ~scheme:Scheme.Independent
                 ~policy:(Replica.Policy.Active 1) ~uid (fun act group ->
                   Service.invoke w group ~act "incr")
             with
            | Ok _ -> incr commits
            | Error _ -> ());
            Sim.Engine.sleep eng 1.0
          done))
    [ "c1"; "c2" ];
  Service.spawn_client w "ns" (fun () ->
      (* Grow the map mid-workload, with binds in flight. *)
      Sim.Engine.sleep eng 8.0;
      Router.rebalance (Service.router w) ~from:"ns" [ "ns"; "ns2"; "ns3"; "ns4" ]);
  Service.run w;
  let m = Service.metrics w in
  check_bool "rebalance ran" true (Sim.Metrics.counter m "router.rebalances" = 1);
  check_bool "entries migrated" true (Sim.Metrics.counter m "router.migrations" > 0);
  check_bool "map now over four shards" true
    (List.length (Shard_map.nodes (Router.map (Service.router w))) = 4);
  check_bool "not stuck migrating" true (not (Router.migrating (Service.router w)));
  (* No commit lost, no store diverged. *)
  check_bool
    (Printf.sprintf "most binds committed (%d/%d)" !commits !attempts)
    true
    (!commits > !attempts / 2);
  List.iter
    (fun uid ->
      (match Workload.Audit.mutual_consistency w uid with
      | Ok () -> ()
      | Error why -> Alcotest.fail why);
      (* And each entry now lives where the new map says. *)
      let owner = Shard_map.owner (Router.map (Service.router w)) uid in
      let g = List.find (fun g -> Gvd.node g = owner) (Router.gvds (Service.router w)) in
      check_bool "entry home matches the new map" true (Gvd.owns g uid))
    uids

let test_moved_bounce_heals_stale_route () =
  let w = Service.create ~seed:31L (sharded_topo [ "ns2" ]) in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  Service.run ~until:1.0 w;
  let router = Service.router w in
  let src_node = Shard_map.owner (Router.map router) uid in
  let src = List.find (fun g -> Gvd.node g = src_node) (Router.gvds router) in
  let dst =
    List.find (fun g -> Gvd.node g <> src_node) (Router.gvds router)
  in
  let got = ref None in
  Service.spawn_client w "c1" (fun () ->
      (* Move the quiescent entry by hand; the router's map still points at
         the old shard, so the next dispatch must ride the Moved bounce. *)
      (match Gvd.handoff_out src ~from:"c1" ~uid ~dest:(Gvd.node dst) with
      | Ok (Gvd.Granted ho) -> Gvd.accept_handoff dst ho
      | _ -> Alcotest.fail "handoff refused");
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             match Router.read router ~act uid Gvd.Stores with
             | Ok v -> got := Some v.Gvd.v_stores
             | _ -> Alcotest.fail "routed read failed")));
  Service.run w;
  (match !got with
  | Some st -> Alcotest.(check (list string)) "view served by new home" [ "beta1" ] st
  | None -> Alcotest.fail "no reply");
  check_bool "bounce was taken" true
    (Sim.Metrics.counter (Service.metrics w) "router.bounces" > 0)

(* An update that reaches the receiving shard while the handoff reply is
   still in flight must be refused as "unknown object" — the router then
   retries — not granted with nothing changed. *)
let test_update_in_handoff_window_refused () =
  let w = Service.create ~seed:31L (sharded_topo [ "ns2" ]) in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Service.run ~until:1.0 w;
  let router = Service.router w in
  let src_node = Shard_map.owner (Router.map router) uid in
  let src = List.find (fun g -> Gvd.node g = src_node) (Router.gvds router) in
  let dst = List.find (fun g -> Gvd.node g <> src_node) (Router.gvds router) in
  let replies = ref [] in
  Service.spawn_client w "c1" (fun () ->
      let ho =
        match Gvd.handoff_out src ~from:"c1" ~uid ~dest:(Gvd.node dst) with
        | Ok (Gvd.Granted ho) -> ho
        | _ -> Alcotest.fail "handoff refused"
      in
      (* Not accepted yet: dst does not hold the entry. *)
      List.iter
        (fun op ->
          ignore
            (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
                 match Gvd.update dst ~act uid op with
                 | Ok (Gvd.Refused why) -> replies := why :: !replies
                 | Ok (Gvd.Granted _) -> replies := "granted" :: !replies
                 | _ -> replies := "other" :: !replies)))
        [ Gvd.Exclude [ "beta2" ]; Gvd.Include "beta2";
          Gvd.Note_version Store.Version.initial ];
      Gvd.accept_handoff dst ho;
      (* Once home, the routed exclusion lands (via the Moved bounce). *)
      match
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            match Router.update router ~act uid (Gvd.Exclude [ "beta2" ]) with
            | Ok _ -> ()
            | Error f -> raise (Action.Atomic.Abort (Router.failure_to_string f)))
      with
      | Ok () -> ()
      | Error why -> Alcotest.fail why);
  Service.run w;
  Alcotest.(check (list string))
    "every op refused in the window"
    [ "unknown object"; "unknown object"; "unknown object" ]
    !replies;
  Alcotest.(check (list string)) "exclusion not lost" [ "beta1" ] (Gvd.current_st dst uid);
  Alcotest.(check int) "no lock left on dst" 0 (List.length (Gvd.residual_locks dst))

(* A handoff whose reply is lost was still applied at the source: the
   entry left the source's table and its Moved marker went up. The
   router's retry must then get the entry, not count the marker as done,
   or the entry ends owned by no shard and every later request for it
   ping-pongs between the two markers until "shard map unstable". *)
let test_lost_handoff_reply_keeps_entry () =
  let w = Service.create ~seed:41L (sharded_topo [ "ns2" ]) in
  let router = Service.router w in
  Router.reset_map router [ "ns" ];
  let uids =
    List.init 6 (fun i ->
        Service.create_object w
          ~name:(Printf.sprintf "o%d" i)
          ~impl:"counter" ~sv:[ "alpha" ] ~st:[ "beta1"; "beta2" ] ())
  in
  Service.run ~until:1.0 w;
  let net = Service.network w in
  let eng = Service.engine w in
  let spread = ref 0 in
  Service.spawn_client w "ns" (fun () ->
      Router.rebalance router ~from:"ns" [ "ns"; "ns2" ];
      spread :=
        List.length
          (List.filter (fun u -> Shard_map.owner (Router.map router) u = "ns2") uids);
      (* Every handoff reply from ns2 back to the rebalancer is lost for a
         while: each source applies its handoff, the caller sees none. *)
      Net.Fault.cut_oneway_for net ~at:(Sim.Engine.now eng) ~duration:3.0
        ~src:"ns2" ~dst:"ns";
      Router.rebalance router ~from:"ns" [ "ns" ]);
  Service.run w;
  check_bool "some entries moved to ns2 and back" true (!spread > 0);
  check_bool "a lost grant was granted again" true
    (Sim.Metrics.counter (Service.metrics w) "gvd.handoff_regrants" > 0);
  let ns = List.find (fun g -> Gvd.node g = "ns") (Router.gvds router) in
  List.iter
    (fun uid ->
      let owners =
        List.filter (fun g -> Gvd.owns g uid) (Router.gvds router)
      in
      check_int (Store.Uid.to_string uid ^ " owned by one shard") 1
        (List.length owners);
      check_bool (Store.Uid.to_string uid ^ " home at ns") true (Gvd.owns ns uid))
    uids;
  let bound = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      List.iter
        (fun uid ->
          match
            Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
              ~policy:(Replica.Policy.Active 1) ~uid (fun act group ->
                Service.invoke w group ~act "incr")
          with
          | Ok _ -> incr bound
          | Error _ -> ())
        uids);
  Service.run w;
  check_int "every entry still binds" (List.length uids) !bound

(* A request that bounces off the source shard is not enlisted there, so
   it must leave no crash watch behind: when the client later crashes,
   no orphan abort may fire for an action that committed elsewhere. *)
let test_bounced_update_leaves_no_orphan_watch () =
  let run name body =
    let w = Service.create ~seed:31L (sharded_topo [ "ns2" ]) in
    let uid =
      Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
        ~st:[ "beta1"; "beta2" ] ()
    in
    Service.run ~until:1.0 w;
    let router = Service.router w in
    let src_node = Shard_map.owner (Router.map router) uid in
    let src = List.find (fun g -> Gvd.node g = src_node) (Router.gvds router) in
    let dst = List.find (fun g -> Gvd.node g <> src_node) (Router.gvds router) in
    Service.spawn_client w "c1" (fun () ->
        (match Gvd.handoff_out src ~from:"c1" ~uid ~dest:(Gvd.node dst) with
        | Ok (Gvd.Granted ho) -> Gvd.accept_handoff dst ho
        | _ -> Alcotest.fail "handoff refused");
        match
          Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
              match body router act uid with
              | Ok () -> ()
              | Error why -> raise (Action.Atomic.Abort why))
        with
        | Ok () -> ()
        | Error why -> Alcotest.fail (name ^ ": " ^ why));
    Service.run w;
    Net.Fault.crash_at (Service.network w) ~at:(Sim.Engine.now (Service.engine w) +. 1.0) "c1";
    Service.run w;
    check_int (name ^ ": no orphan abort") 0
      (Sim.Metrics.counter (Service.metrics w) "gvd.orphan_aborts")
  in
  let update ?if_rev op router act uid =
    Router.update router ~act ?if_rev uid op
    |> Result.map ignore
    |> Result.map_error Router.failure_to_string
  in
  let rev router act uid =
    match Router.read router ~act uid Gvd.Committed with
    | Ok v -> v.Gvd.v_rev
    | Error _ -> Alcotest.fail "committed read"
  in
  let version = Store.Version.next Store.Version.initial ~committed_by:"c1:0" in
  run "exclude" (update (Gvd.Exclude [ "beta2" ]));
  run "note version" (update (Gvd.Note_version version));
  run "validated note" (fun r act uid ->
      update ~if_rev:(rev r act uid) (Gvd.Note_version version) r act uid);
  run "validated exclude" (fun r act uid ->
      update ~if_rev:(rev r act uid) (Gvd.Exclude [ "beta2" ]) r act uid);
  run "get view" (fun r act uid ->
      Router.read r ~act uid Gvd.Stores
      |> Result.map ignore
      |> Result.map_error Router.failure_to_string);
  run "insert" (update (Gvd.Insert "alpha2"))

(* ------------------------------------------------------------------ *)
(* Cache behaviour end to end *)

let cached_world ?(lease = 60.0) seed =
  Service.create ~seed ~bind_cache_lease:lease (sharded_topo [ "ns2" ])

let test_cache_repeat_bind_hits () =
  let w = cached_world 41L in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Service.run ~until:1.0 w;
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 5 do
        match
          Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
            ~policy:(Replica.Policy.Active 1) ~uid (fun act group ->
              Service.invoke w group ~act "incr")
        with
        | Ok _ -> ()
        | Error why -> Alcotest.fail why
      done);
  Service.run w;
  let m = Service.metrics w in
  check_int "first bind misses" 1 (Sim.Metrics.counter m "cache.miss");
  check_int "repeat binds hit" 4 (Sim.Metrics.counter m "cache.hit");
  match Workload.Audit.mutual_consistency w uid with
  | Ok () -> ()
  | Error why -> Alcotest.fail why

let test_cache_stale_server_degrades_safely () =
  let w = cached_world 43L in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter"
      ~sv:[ "alpha"; "alpha2" ] ~st:[ "beta1"; "beta2" ] ()
  in
  Service.run ~until:1.0 w;
  let committed = ref 0 in
  Service.spawn_client w "c1" (fun () ->
      (* Bind once to fill the cache with the chosen server... *)
      (match
         Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
           ~policy:(Replica.Policy.Active 1) ~uid (fun act group ->
             Service.invoke w group ~act "incr")
       with
      | Ok _ -> incr committed
      | Error why -> Alcotest.fail why);
      (* ...kill every cached server behind the cache's back... *)
      Net.Network.crash (Service.network w) "alpha";
      (* ...and bind again: the stale entry must only cost the scheme-A
         "hard way" (failed activation, fallback to the full path inside
         the same call), never an unsafe bind. *)
      (match
         Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
           ~policy:(Replica.Policy.Active 1) ~uid (fun act group ->
             Service.invoke w group ~act "incr")
       with
      | Ok _ -> incr committed
      | Error why -> Alcotest.fail ("stale-cache bind should degrade, got: " ^ why)));
  Service.run w;
  check_int "both binds committed" 2 !committed;
  let m = Service.metrics w in
  check_bool "stale entry fell back to the full path" true
    (Sim.Metrics.counter m "cache.fallbacks" > 0);
  match Workload.Audit.mutual_consistency w uid with
  | Ok () -> ()
  | Error why -> Alcotest.fail why

let test_audit_exact_with_shards_and_cache () =
  (* The full accounting audit, under churn, with the naming tier sharded
     and the bind cache on: every acknowledged commit applies exactly
     once and StA stays mutually consistent. *)
  let r =
    Workload.Audit.counter_stress ~seed:77L ~clients:3 ~actions_per_client:6
      ~gvd_nodes:[ "ns2"; "ns3" ] ~bind_cache_lease:50.0 ()
  in
  check_bool
    (Format.asprintf "audit verdict: %a" Workload.Audit.pp_report r)
    true (Workload.Audit.exact r)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "sharding.map",
      [
        tc "deterministic" `Quick test_shardmap_deterministic;
        tc "single node fast path" `Quick test_shardmap_single_node;
        tc "distribution" `Quick test_shardmap_distribution;
        tc "stability under growth" `Quick test_shardmap_stability;
        tc "version and validation" `Quick test_shardmap_version_and_validation;
      ] );
    ( "sharding.cache",
      [
        tc "hit, miss, expiry" `Quick test_cache_hit_miss_expiry;
        tc "renew and invalidate" `Quick test_cache_renew_and_invalidate;
        tc "repeat binds hit" `Quick test_cache_repeat_bind_hits;
        tc "stale entry degrades safely" `Quick test_cache_stale_server_degrades_safely;
      ] );
    ( "sharding.router",
      [
        tc "ops across shards" `Quick test_multi_shard_ops;
        tc "all schemes across shards" `Quick test_multi_shard_binds_all_schemes;
        tc "moved bounce heals stale route" `Quick test_moved_bounce_heals_stale_route;
        tc "update in handoff window refused" `Quick test_update_in_handoff_window_refused;
        tc "lost handoff reply keeps the entry" `Quick test_lost_handoff_reply_keeps_entry;
        tc "bounced update leaves no orphan watch" `Quick
          test_bounced_update_leaves_no_orphan_watch;
        tc "online rebalance under load" `Slow test_online_rebalance_under_load;
        tc "audit exact with shards and cache" `Slow
          test_audit_exact_with_shards_and_cache;
      ] );
  ]
