(* The benchmark harness: regenerates every table and figure of the
   reproduction (see DESIGN.md's per-experiment index), then runs Bechamel
   micro-benchmarks over the substrate hot paths.

   Absolute numbers are simulator-relative; what must hold against the
   paper is the qualitative shape — who wins, what grows with what, and
   which design choice prevents which failure. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmark subjects: each staged function runs one self-contained
   simulated protocol episode. *)

let bench_engine_fibers () =
  let eng = Sim.Engine.create () in
  for _ = 1 to 200 do
    Sim.Engine.spawn eng (fun () -> Sim.Engine.sleep eng 1.0)
  done;
  Sim.Engine.run eng

(* 64 fibers ping-pong in pairs through ivars, so every hand-off is a
   delay-0 resume, while 128 far-future guard timers wait in their lane —
   the shape of an e2e world, where RPC guards sit under a stream of
   resumes. The guards leave their lane, never firing, when the last pair
   ends. *)
let bench_resume_under_timers () =
  let eng = Sim.Engine.create () in
  let rounds = 20 and pairs_left = ref 32 in
  let finished = Sim.Ivar.create () in
  for _ = 1 to 128 do
    Sim.Engine.spawn eng (fun () ->
        ignore (Sim.Ivar.read_timeout eng 1000.0 finished : (unit, exn) result))
  done;
  for _ = 1 to 32 do
    let ivs = Array.init (2 * rounds) (fun _ -> Sim.Ivar.create ()) in
    Sim.Engine.spawn eng (fun () ->
        for r = 0 to rounds - 1 do
          Sim.Ivar.fill ivs.(2 * r) ();
          Sim.Ivar.read eng ivs.((2 * r) + 1)
        done;
        decr pairs_left;
        if !pairs_left = 0 then Sim.Ivar.fill finished ());
    Sim.Engine.spawn eng (fun () ->
        for r = 0 to rounds - 1 do
          Sim.Ivar.read eng ivs.(2 * r);
          Sim.Ivar.fill ivs.((2 * r) + 1) ()
        done)
  done;
  Sim.Engine.run eng;
  assert (Sim.Engine.now eng = 0.0)

let bench_lock_cycle () =
  let eng = Sim.Engine.create () in
  let mgr = Lockmgr.Manager.create eng in
  for i = 1 to 100 do
    let owner = if i mod 2 = 0 then "a" else "b" in
    assert (Lockmgr.Manager.try_acquire mgr ~owner ~mode:Lockmgr.Mode.Write "k");
    Lockmgr.Manager.release mgr ~owner "k"
  done

(* One action's end on a manager that has already served 1,024 keys, each
   locked and released by its own owner: the end must cost the action's
   own two locks, not the manager's history. The action ends key by key,
   in key order, as a naming shard ends one. *)
let bench_lock_release_all =
  let eng = Sim.Engine.create () in
  let mgr = Lockmgr.Manager.create eng in
  for i = 1 to 1024 do
    let owner = Printf.sprintf "warm%d" i and key = Printf.sprintf "k%d" i in
    assert (Lockmgr.Manager.try_acquire mgr ~owner ~mode:Lockmgr.Mode.Write key);
    Lockmgr.Manager.release mgr ~owner key
  done;
  fun () ->
    assert (Lockmgr.Manager.try_acquire mgr ~owner:"a" ~mode:Lockmgr.Mode.Write "k1");
    assert (Lockmgr.Manager.try_acquire mgr ~owner:"a" ~mode:Lockmgr.Mode.Write "k2");
    Lockmgr.Manager.release mgr ~owner:"a" "k1";
    Lockmgr.Manager.release mgr ~owner:"a" "k2"

let with_rpc_world f =
  let eng = Sim.Engine.create () in
  let net = Net.Network.create eng in
  let rpc = Net.Rpc.create net in
  List.iter (Net.Network.add_node net) [ "a"; "b"; "c"; "seq" ];
  f eng net rpc;
  Sim.Engine.run eng

let echo : (int, int) Net.Rpc.endpoint = Net.Rpc.endpoint "bench.echo"

let bench_rpc_roundtrips () =
  with_rpc_world (fun _eng net rpc ->
      Net.Rpc.serve rpc ~node:"b" echo (fun n -> n + 1);
      Net.Network.spawn_on net "a" (fun () ->
          for i = 1 to 50 do
            ignore (Net.Rpc.call rpc ~from:"a" ~dst:"b" echo i)
          done))

let bench_atomic_multicast () =
  with_rpc_world (fun _eng net rpc ->
      let mc = Net.Multicast.create rpc in
      Net.Multicast.enable_sequencer mc ~node:"seq";
      let ch : int Net.Multicast.channel = Net.Multicast.channel "bench" in
      List.iter (fun n -> Net.Multicast.listen mc ~node:n ch (fun ~seq:_ _ -> ()))
        [ "a"; "b"; "c" ];
      Net.Network.spawn_on net "a" (fun () ->
          for i = 1 to 20 do
            ignore
              (Net.Multicast.cast_atomic mc ~from:"a" ~sequencer:"seq"
                 ~members:[ "a"; "b"; "c" ] ch i)
          done))

let small_world () =
  Naming.Service.create ~seed:5L
    {
      Naming.Service.gvd_node = "ns";
      gvd_nodes = [];
      server_nodes = [ "alpha" ];
      store_nodes = [ "beta1"; "beta2" ];
      client_nodes = [ "c1" ];
    }

let bench_bound_action scheme () =
  let open Naming in
  let w = small_world () in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 5 do
        ignore
          (Service.with_bound w ~client:"c1" ~scheme
             ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
               Service.invoke w group ~act "incr"))
      done);
  Service.run w

let bench_2pc ?(drop = 0.0) () =
  let eng = Sim.Engine.create () in
  let net = Net.Network.create eng in
  let rpc = Net.Rpc.create net in
  let sh = Action.Store_host.create rpc in
  let rh = Action.Resource_host.create rpc in
  let rt = Action.Atomic.make_runtime sh rh in
  let sup = Store.Uid.supply () in
  List.iter
    (fun n ->
      Net.Network.add_node net n;
      Action.Store_host.add sh n)
    [ "client"; "s1"; "s2" ];
  if drop > 0.0 then
    List.iter
      (fun dst -> Net.Network.set_link_fault net ~drop ~src:"client" ~dst ())
      [ "s1"; "s2" ];
  let uid = Store.Uid.fresh sup ~label:"x" in
  Net.Network.spawn_on net "client" (fun () ->
      for _ = 1 to 10 do
        ignore
          (Action.Atomic.atomically rt ~node:"client" (fun act ->
               let state = Store.Object_state.initial "v" in
               Action.Store_participant.add act ~store:"s1" ~writes:(fun () ->
                   [ (uid, state) ]);
               Action.Store_participant.add act ~store:"s2" ~writes:(fun () ->
                   [ (uid, state) ])))
      done);
  Sim.Engine.run eng

(* The same five-bind episode over a lossy client->naming link: dropped
   requests are re-sent through Net.Retry backoff instead of surfacing as
   bind failures, so the episode pays extra retry rounds and timeout
   waits. Recorded for trend-watching only, never regression-gated —
   timeout-dominated runs are far noisier than the fault-free paths. *)
let bench_binds_under_drop drop () =
  let open Naming in
  let w = small_world () in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Net.Network.set_link_fault (Service.network w) ~drop ~src:"c1" ~dst:"ns" ();
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 5 do
        ignore
          (Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
             ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
               Service.invoke w group ~act "incr"))
      done);
  Service.run w

let bench_gvd_ops () =
  let open Naming in
  let w = small_world () in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 10 do
        ignore
          (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
               (match Gvd.get_server (Service.gvd w) ~act uid with
               | Ok _ -> ()
               | Error _ -> ());
               match Gvd.get_view (Service.gvd w) ~act uid with
               | Ok _ -> ()
               | Error _ -> ()))
      done);
  Service.run w

let bench_audit_trial () =
  ignore
    (Workload.Audit.counter_stress ~seed:1L ~clients:2 ~actions_per_client:4
       ~server_churn:false ~store_churn:false ())

(* Pure consistent-hash dispatch: the per-request routing cost of the
   sharded naming tier. *)
let bench_shardmap_lookups () =
  let map =
    Naming.Shard_map.create
      ~nodes:(List.init 8 (fun i -> Printf.sprintf "ns%d" (i + 1)))
  in
  let sup = Store.Uid.supply () in
  let uids = Array.init 64 (fun i -> Store.Uid.fresh sup ~label:(string_of_int i)) in
  for i = 0 to 999 do
    ignore (Naming.Shard_map.owner map uids.(i mod 64) : string)
  done

let sharded_world ?bind_cache_lease () =
  Naming.Service.create ~seed:5L ?bind_cache_lease
    {
      Naming.Service.gvd_node = "ns";
      gvd_nodes = [ "ns2"; "ns3"; "ns4" ];
      server_nodes = [ "alpha" ];
      store_nodes = [ "beta1"; "beta2" ];
      client_nodes = [ "c1" ];
    }

(* Router dispatch over four shards: same episode as the single-shard bind
   benchmarks, plus hashing and shard fan-out. *)
let bench_router_binds_sharded () =
  let open Naming in
  let w = sharded_world () in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 5 do
        ignore
          (Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
             ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
               Service.invoke w group ~act "incr"))
      done);
  Service.run w

(* The cache hit path: first bind misses and fills, the remaining four
   repeat binds skip all bind-time naming RPCs. *)
let bench_cached_repeat_binds () =
  let open Naming in
  let w = sharded_world ~bind_cache_lease:1000.0 () in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 5 do
        ignore
          (Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
             ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
               Service.invoke w group ~act "incr"))
      done);
  Service.run w

(* Eight clients in one synchronised wave against a single object: the
   contended-bind episode of tab-contention at benchmark size. With the
   batched Delta-mode bind the clients no longer serialise behind the
   Increment write lock, so this episode settles in near-constant
   simulated time. *)
let bench_contended_binds () =
  let open Naming in
  let clients = List.init 8 (fun i -> Printf.sprintf "c%d" (i + 1)) in
  let w =
    Service.create ~seed:5L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "beta1" ];
        client_nodes = clients;
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  List.iter
    (fun client ->
      Service.spawn_client w client (fun () ->
          ignore
            (Service.with_bound w ~client ~scheme:Scheme.Independent
               ~policy:Replica.Policy.Single_copy_passive ~uid
               (fun act group -> Service.invoke w group ~act "get"))))
    clients;
  Service.run w

(* The same database bind work two ways, one subject each: five
   one-round batched binds, or five binds composed from the serial
   GetServer/Increment/GetView (+ trailing Decrement) rounds the batch
   replaced. The gap between the two subjects is what batching buys on
   the naming hot path. *)
let bench_binds ~batched () =
  let open Naming in
  let w = small_world () in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Service.spawn_client w "c1" (fun () ->
      if batched then
        for _ = 1 to 5 do
          match
            Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
              ~policy:Replica.Policy.Single_copy_passive
          with
          | Ok pb -> Binder.release_independent (Service.binder w) pb
          | Error _ -> ()
        done
      else
        for _ = 1 to 5 do
          ignore
            (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
                 (match Gvd.get_server (Service.gvd w) ~act uid with
                 | Ok _ -> ()
                 | Error _ -> ());
                 (match
                    Gvd.update (Service.gvd w) ~act
                      uid (Gvd.Increment { client = "c1"; servers = [ "alpha" ] })
                  with
                 | Ok _ -> ()
                 | Error _ -> ());
                 match Gvd.get_view (Service.gvd w) ~act uid with
                 | Ok _ -> ()
                 | Error _ -> ()));
          ignore
            (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
                 match
                   Gvd.update (Service.gvd w) ~act
                     uid (Gvd.Decrement { client = "c1"; servers = [ "alpha" ] })
                 with
                 | Ok _ -> ()
                 | Error _ -> ()))
        done);
  Service.run w

(* A five-commit copy-back episode: every commit writes the object's
   whole new state to both stores. The "small" subject writes a counter
   (an op-sized payload); the "large" subject makes small writes to a
   kvmap preloaded with ~1.5 KB of entries. *)
let bench_copy_back ~impl ~initial ~op () =
  let open Naming in
  let w =
    Service.create ~seed:5L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "beta1"; "beta2" ];
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl ?initial ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Service.spawn_client w "c1" (fun () ->
      for i = 1 to 5 do
        ignore
          (Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
             ~policy:Replica.Policy.Single_copy_passive ~uid
             (fun act group -> Service.invoke w group ~act (op i)))
      done);
  Service.run w

let bench_copy_back_small =
  bench_copy_back ~impl:"counter" ~initial:None ~op:(fun i ->
      Printf.sprintf "add %d" i)

let bench_copy_back_large =
  bench_copy_back ~impl:"kvmap"
    ~initial:
      (Some
         (String.concat ";"
            (List.init 40 (fun i -> Printf.sprintf "key%02d=%032d" i i))))
    ~op:(fun i -> Printf.sprintf "put hot v%d" i)

(* The object kernel with no world around it: 1,000 kvmap ops on the e2e
   benchmark's 40-entry, 1,319-byte map. Each round of three re-inserts
   the key the previous round deleted, reads a key and deletes one, so
   the map keeps 39-40 entries and every op's in-place path runs.
   micro/commit.full-large covers the same ops inside a world. *)
let bench_kvmap_ops =
  let apply = Replica.Object_impl.kv_map.apply in
  let key j = Printf.sprintf "key%02d" (((j * 7) mod 40 + 40) mod 40) in
  let initial =
    String.concat ";" (List.init 40 (fun i -> Printf.sprintf "key%02d=%026d" i i))
  in
  let ops =
    Array.init 1000 (fun i ->
        let j = i / 3 in
        match i mod 3 with
        | 0 -> Printf.sprintf "put %s %026d" (key (j - 1)) i
        | 1 -> Printf.sprintf "get key%02d" (j * 13 mod 40)
        | _ -> "del " ^ key j)
  in
  fun () -> ignore (Array.fold_left (fun p op -> fst (apply p op)) initial ops)

(* Five scheme-B write commits, each validating a lock-free St snapshot
   inside its prepare round. Scheme B binds are snapshot reads, so the
   naming-tier work on this path is the commit-time snapshot and
   validation. *)
let bench_optimistic () =
  let open Naming in
  let w =
    Service.create ~seed:5L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "beta1"; "beta2" ];
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  Service.spawn_client w "c1" (fun () ->
      for i = 1 to 5 do
        ignore
          (Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
             ~policy:Replica.Policy.Single_copy_passive ~uid
             (fun act group ->
               Service.invoke w group ~act (Printf.sprintf "add %d" i)))
      done);
  Service.run w

(* [n] scheme-A actions against one server and one naming shard, each
   invoking one increment (or, with [~write:false], one get). *)
let schemea_actions ~stores ~n ~write () =
  let open Naming in
  let w =
    Service.create ~seed:5L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = stores;
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:stores ()
  in
  let op = if write then "incr" else "get" in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to n do
        ignore
          (Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
             ~policy:Replica.Policy.Single_copy_passive ~uid
             (fun act group -> Service.invoke w group ~act ~write op))
      done);
  Service.run w

(* Five scheme-A bind/commit cycles: each bind's naming reads are one
   locked bind round. *)
let bench_schemea = schemea_actions ~stores:[ "beta1"; "beta2" ] ~n:5 ~write:true

(* Ten reads: the server and the shard both vote read-only, so each
   commit is one prepare round with no phase 2 and no decision record. *)
let bench_read_only_commits = schemea_actions ~stores:[ "beta1" ] ~n:10 ~write:false

(* The 48-commit synchronised-wave episode at 8 clients: one prepare and
   one phase-2 round per store per batch. tab-groupcommit tabulates the same episode's store-round
   counts. *)
let bench_grouped_8_clients () =
  ignore
    (Workload.Exp_groupcommit.episode ~clients:8 ()
      : Workload.Exp_groupcommit.sample)

(* The tab-brownout episode under one profile: one store browned out at
   a low per-message probability. Hedged, the slow store's scatters race
   a health-delayed backup copy; unhedged, every inflated message is
   paid in full. One variant per subject, so each records its own cost
   (the extra copies) rather than a pair sum. *)
let bench_brownout ~hedged () =
  ignore
    (Workload.Exp_brownout.episode ~hedged ~prob:0.02 ~commits:30 ~seed:31L ()
      : Workload.Exp_brownout.sample)

(* The tab-autonomic episode under one mode: a harsh brownout on one
   store. [Autonomic] excludes the browned store once the hysteresis
   window closes (commits then scatter to the healthy store only);
   [Hedged] keeps both copies drawing the inflation. *)
let bench_harsh_brownout mode () =
  ignore
    (Workload.Exp_autonomic.episode ~mode ~prob:0.7 ~commits:40 ~seed:47L ()
      : Workload.Exp_autonomic.sample)

(* Every micro subject: a name and one self-contained episode. *)
let micro_subjects : (string * (unit -> unit)) list =
  [
    ("engine.200-fibers", bench_engine_fibers);
    ("engine.resume-under-timers", bench_resume_under_timers);
    ("lock.100-write-cycles", bench_lock_cycle);
    ("lock.release-all-1024-keys", bench_lock_release_all);
    ("rpc.50-roundtrips", bench_rpc_roundtrips);
    ("mcast.20-atomic-casts", bench_atomic_multicast);
    ("2pc.10-commits", bench_2pc ?drop:None);
    ("2pc.10-commits-lossy", bench_2pc ~drop:0.05);
    ("bind.5-actions-standard", bench_bound_action Naming.Scheme.Standard);
    ( "bind.5-actions-independent",
      bench_bound_action Naming.Scheme.Independent );
    ( "bind.5-actions-nested-toplevel",
      bench_bound_action Naming.Scheme.Nested_toplevel );
    ("bind.8-clients-contended", bench_contended_binds);
    ("bind.batched", bench_binds ~batched:true);
    ("bind.serial", bench_binds ~batched:false);
    ("bind.retry-under-drop-1pct", bench_binds_under_drop 0.01);
    ("bind.retry-under-drop-5pct", bench_binds_under_drop 0.05);
    ("gvd.10-read-actions", bench_gvd_ops);
    ("audit.calm-trial", bench_audit_trial);
    ("shardmap.1000-owner-lookups", bench_shardmap_lookups);
    ("router.5-binds-4-shards", bench_router_binds_sharded);
    ("cache.5-repeat-binds", bench_cached_repeat_binds);
    ("commit.full-small", bench_copy_back_small);
    ("commit.full-large", bench_copy_back_large);
    ("replica.kvmap-ops", bench_kvmap_ops);
    ("commit.optimistic", bench_optimistic);
    ("bind.schemeA", bench_schemea);
    ("commit.read-only", bench_read_only_commits);
    ("commit.grouped-8-clients", bench_grouped_8_clients);
    ("commit.brownout-hedged", bench_brownout ~hedged:true);
    ("commit.brownout-unhedged", bench_brownout ~hedged:false);
    ( "commit.harsh-brownout-excluded",
      bench_harsh_brownout Workload.Exp_autonomic.Autonomic );
    ( "commit.harsh-brownout-hedged",
      bench_harsh_brownout Workload.Exp_autonomic.Hedged );
  ]

let micro_tests =
  Test.make_grouped ~name:"micro"
    (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) micro_subjects)

(* The minor words one run of [f] allocates, after a first run has warmed
   whatever it builds once. The subjects are deterministic episodes, so
   the count is exact and repeats on any machine. *)
let minor_words_per_run f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Run the micro suite; print the human table and return, per subject,
   the ns/run estimate and the minor words of one run for the JSON
   report. *)
let run_micro () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  (* Counted before Bechamel runs anything, so the run counted is every
     subject's second, whatever the timing loop would have done. *)
  let words =
    List.map
      (fun (name, f) -> ("micro/" ^ name, minor_words_per_run f))
      micro_subjects
  in
  let raw = Benchmark.all cfg instances micro_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  print_endline "== micro: substrate hot paths (Bechamel, monotonic clock) ==";
  Printf.printf "%-40s  %15s  %s\n" "benchmark" "time/run" "minor words/run";
  Printf.printf "%-40s  %15s  %s\n" (String.make 40 '-') "--------" "---------------";
  let estimates =
    match Hashtbl.find_opt merged (Measure.label Instance.monotonic_clock) with
    | None ->
        print_endline "(no results)";
        []
    | Some per_test ->
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map (fun (name, ols) ->
               let estimate =
                 match Analyze.OLS.estimates ols with
                 | Some [ e ] -> Some e
                 | _ -> None
               in
               let w = List.assoc_opt name words in
               Printf.printf "%-40s  %15s  %s\n" name
                 (match estimate with
                 | Some e -> Printf.sprintf "%12.0f ns" e
                 | None -> "-")
                 (match w with Some w -> Printf.sprintf "%.0f" w | None -> "-");
               (name, estimate, w))
  in
  print_newline ();
  estimates

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_results.json *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_str s = "\"" ^ json_escape s ^ "\""
let json_list items = "[" ^ String.concat "," items ^ "]"

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.1f" f else "null"

let write_json ~path ~micro ~tables =
  let micro_json =
    json_list
      (List.map
         (fun (name, est, words) ->
           Printf.sprintf "{%s:%s,%s:%s,%s:%s}" (json_str "name") (json_str name)
             (json_str "ns_per_run")
             (match est with Some e -> json_float e | None -> "null")
             (json_str "minor_words_per_run")
             (match words with Some w -> Printf.sprintf "%.0f" w | None -> "null"))
         micro)
  in
  let table_json (id, (t : Workload.Table.t)) =
    Printf.sprintf "{%s:%s,%s:%s,%s:%s,%s:%s}" (json_str "id") (json_str id)
      (json_str "title")
      (json_str t.Workload.Table.title)
      (json_str "columns")
      (json_list (List.map json_str t.Workload.Table.columns))
      (json_str "rows")
      (json_list
         (List.map
            (fun row -> json_list (List.map json_str row))
            t.Workload.Table.rows))
  in
  let doc =
    Printf.sprintf "{%s:%s,%s:%s,%s:%s}\n" (json_str "harness")
      (json_str "repro-bench")
      (json_str "experiments")
      (json_list (List.map table_json tables))
      (json_str "micro") micro_json
  in
  let oc = open_out path in
  output_string oc doc;
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  (* [bench/main.exe micro] runs only the micro suite — the CI smoke job
     uses this to gate on substrate regressions without paying for the
     full experiment sweep. *)
  let micro_only =
    Array.exists (String.equal "micro") (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  in
  print_endline
    "Reproduction harness: Little, McCue & Shrivastava (ICDCS 1993)";
  print_endline
    "Each table regenerates one figure/table of the paper; see EXPERIMENTS.md.";
  print_newline ();
  let tables =
    if micro_only then []
    else
      List.map
        (fun e ->
          Printf.printf "[%s] %s\n" e.Workload.Registry.id
            e.Workload.Registry.paper_artefact;
          let t = e.Workload.Registry.runner () in
          Workload.Table.print t;
          (e.Workload.Registry.id, t))
        Workload.Registry.all
  in
  let micro = run_micro () in
  write_json ~path:"BENCH_results.json" ~micro ~tables
