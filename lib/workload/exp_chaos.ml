open Naming

(* Nemesis driver (tab-chaos): compose crash churn, partitions and
   message-level faults into a seed-deterministic schedule over the
   bind/commit/rebalance workloads, quiesce, and run the consolidated
   {!Audit.chaos}. Every schedule is a pure function of its seed, so any
   violation replays from the printed seed alone; on failure the schedule
   is greedily minimized — events dropped, then surviving events weakened
   by halving their fault durations — before being printed.

   Both variants run with op-log delta shipping enabled: the copy-back
   mixes delta and full-state prepares under the fault plane, and
   Audit.chaos additionally holds every store's committed bytes to the
   golden full-state shadow.

   Soundness choices: in the classic variant the naming nodes never crash
   (§3.1's availability assumption); the durable-ns variant runs the
   world with durable naming, where a crashed shard recovers its
   committed entry images from the database, so naming nodes join the
   crash pool — the audit is unchanged. Servers and stores recover;
   crashed clients STAY down, so the cleanup protocol may sweep their
   orphaned counters without racing a recovered incarnation. *)

let naming = [ "ns"; "ns2" ]
let servers = [ "s1"; "s2"; "s3" ]
let stores = [ "t1"; "t2"; "t3" ]
let clients = [ "c1"; "c2"; "c3"; "c4" ]
let actions_per_client = 6
let heal_time = 200.0

type fault_event =
  | Crash of { node : string; at : float; duration : float }
  | Partition of { a : string; b : string; at : float; duration : float }
  | Oneway of { src : string; dst : string; at : float; duration : float }
  | Link of {
      src : string;
      dst : string;
      at : float;
      duration : float;
      drop : float;
      dup : float;
      reorder : float;
      spike_prob : float;
      spike : float;
    }
  | Brownout of {
      node : string;
      at : float;
      duration : float;
      prob : float;
      lo : float;
      hi : float;
    }

let is_client node = List.mem node clients

let pp_event ppf = function
  | Crash { node; at; duration } ->
      if is_client node then
        Format.fprintf ppf "crash %s @%.1f (client: permanent)" node at
      else Format.fprintf ppf "crash %s @%.1f for %.1f" node at duration
  | Partition { a; b; at; duration } ->
      Format.fprintf ppf "partition %s<->%s @%.1f for %.1f" a b at duration
  | Oneway { src; dst; at; duration } ->
      Format.fprintf ppf "cut %s->%s @%.1f for %.1f" src dst at duration
  | Link { src; dst; at; duration; drop; dup; reorder; spike_prob; spike } ->
      Format.fprintf ppf
        "link %s->%s @%.1f for %.1f drop=%.2f dup=%.2f reorder=%.2f \
         spike=%.2f/%.1f"
        src dst at duration drop dup reorder spike_prob spike
  | Brownout { node; at; duration; prob; lo; hi } ->
      Format.fprintf ppf "brownout %s @%.1f for %.1f prob=%.2f extra=[%.1f,%.1f]"
        node at duration prob lo hi

(* The schedule is drawn from its own stream (decoupled from the world's
   engine seed streams) so that dropping an event during shrinking never
   perturbs the world's latency draws. *)
let gen_events ?(durable = false) ?(brownout = false) ~seed () =
  let rng = Sim.Rng.create (Int64.logxor seed 0x6E656D65736973L) in
  let distinct_pair pool =
    let a = Sim.Rng.pick rng pool in
    let b = Sim.Rng.pick rng (List.filter (fun n -> n <> a) pool) in
    (a, b)
  in
  (* A lossy link between idle nodes injects nothing; bias link picks
     toward the pairs the protocols actually exercise (client->server,
     client->naming, server->store and the reverse reply directions). *)
  let busy_pair () =
    let src = Sim.Rng.pick rng (clients @ servers @ naming @ stores) in
    let dst =
      Sim.Rng.pick rng
        (List.filter (fun n -> n <> src)
           (if is_client src then servers @ naming
            else if List.mem src servers then stores @ clients @ naming
            else clients @ servers))
    in
    (src, dst)
  in
  let client_crashes = ref 0 in
  List.init
    (6 + Sim.Rng.int rng 6)
    (fun _ ->
      let at = Sim.Rng.uniform rng 10.0 170.0 in
      let duration = Sim.Rng.uniform rng 8.0 28.0 in
      match Sim.Rng.int rng 100 with
      | k when k < 25 ->
          (* Crashing a naming shard is only sound when its entries are
             durable (the database restore of {!Gvd.install} ~durable);
             the classic variant keeps the paper's availability
             assumption and leaves naming out of the pool. *)
          let pool =
            servers @ stores @ clients @ (if durable then naming else [])
          in
          let node = Sim.Rng.pick rng pool in
          let node =
            (* Keep at least two clients alive so the workload and the
               accounting bound stay meaningful. *)
            if is_client node && !client_crashes >= 2 then
              Sim.Rng.pick rng servers
            else begin
              if is_client node then incr client_crashes;
              node
            end
          in
          Crash { node; at; duration }
      | k when k < 45 ->
          let a, b = distinct_pair (naming @ servers @ stores @ clients) in
          Partition { a; b; at; duration }
      | k when k < 62 ->
          let src, dst = busy_pair () in
          Oneway { src; dst; at; duration }
      | k when brownout && k < 82 ->
          (* Gray failure: the node keeps answering, just slowly. The
             inflation stays below the 30.0 lock/multicast timeouts so
             the slowness is never mistaken for death — exactly the
             regime the health plane and hedging are for. The extra
             draws sit behind the [brownout] gate, so the other
             variants' schedules are untouched. *)
          let node = Sim.Rng.pick rng (servers @ stores) in
          Brownout
            {
              node;
              at;
              duration = Sim.Rng.uniform rng 20.0 60.0;
              prob = Sim.Rng.uniform rng 0.15 0.35;
              lo = Sim.Rng.uniform rng 8.0 14.0;
              hi = Sim.Rng.uniform rng 15.0 28.0;
            }
      | _ ->
          let src, dst = busy_pair () in
          Link
            {
              src;
              dst;
              at;
              duration = Sim.Rng.uniform rng 20.0 60.0;
              drop = Sim.Rng.uniform rng 0.05 0.35;
              dup = Sim.Rng.uniform rng 0.0 0.25;
              reorder = Sim.Rng.uniform rng 0.0 0.25;
              spike_prob = Sim.Rng.uniform rng 0.0 0.2;
              spike = Sim.Rng.uniform rng 2.0 8.0;
            })

let apply_event net = function
  | Crash { node; at; duration } ->
      if is_client node then Net.Fault.crash_at net ~at node
      else Net.Fault.crash_for net ~at ~duration node
  | Partition { a; b; at; duration } ->
      Net.Fault.partition_for net ~at ~duration a b
  | Oneway { src; dst; at; duration } ->
      Net.Fault.cut_oneway_for net ~at ~duration ~src ~dst
  | Link { src; dst; at; duration; drop; dup; reorder; spike_prob; spike } ->
      Net.Fault.link_faults_for net ~at ~duration ~drop ~dup ~reorder
        ~spike_prob ~spike ~src ~dst ()
  | Brownout { node; at; duration; prob; lo; hi } ->
      Net.Fault.brownout_for net ~at ~duration ~prob ~lo ~hi node

type outcome = {
  oc_violations : string list;
  oc_commits : int;
  oc_retries : int;
  oc_faults : int;
  oc_shed : int;
}

let run_world ?(durable = false) ?(brownout = false) ?(autonomic = false)
    ~seed ~events () =
  let w =
    (* [force_delta]: the chaos objects are counters, whose deltas lose
       the size comparison every time — forcing keeps the delta path
       under fault coverage. Every world commits through validated
       snapshots and the group-commit plane and binds scheme A with one
       Join scatter, so batch leadership, peel-outs and orphaned members
       all run under the fault schedule. The brownout world runs the
       [Hedged] gray-failure profile — hedged scatters, deadline shedding
       (a batch of one, peel-outs and orphan retries carry the action
       deadline), degraded breaker trips. The autonomic world runs the [Autonomic]
       profile on the brownout world's schedule: three controller
       daemons (one per server) probing the stores, plus sibling-hedge
       routing on the commit path — flapping brownouts,
       crash churn and the controllers' Exclude/Include churn all share
       the schedule, and the audit must still come out clean without the
       membership plane livelocking (hysteresis + cooldown). *)
    Service.create ~seed ~durable_naming:durable ~delta_shipping:true
      ~force_delta:true
      ?gray_failure:
        (if autonomic then Some Service.Autonomic
         else if brownout then Some Service.Hedged
         else None)
      {
        Service.gvd_node = "ns";
        gvd_nodes = [ "ns2" ];
        server_nodes = servers;
        store_nodes = stores;
        client_nodes = clients;
      }
  in
  (* Start single-shard; the operator grows and shrinks the map mid-run
     so entry handoffs race the faults. *)
  Router.reset_map (Service.router w) [ "ns" ];
  let uids =
    List.mapi
      (fun i st ->
        Service.create_object w
          ~name:(Printf.sprintf "obj%d" (i + 1))
          ~impl:"counter" ~sv:servers ~st ())
      [ [ "t1"; "t2" ]; [ "t2"; "t3" ]; [ "t1"; "t3" ] ]
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let net = Service.network w in
  let m = Service.metrics w in
  let violations = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* Snapshot-version monotonicity monitor: sample every shard's entries
     while the schedule runs; a version that ever goes backwards is a
     violation regardless of what the final audit sees. *)
  let seen = Hashtbl.create 16 in
  let seen_rev = Hashtbl.create 16 in
  Net.Network.spawn_on net "ns" ~name:"chaos.version-monitor" (fun () ->
      let rec loop () =
        if Sim.Engine.now eng < heal_time +. 40.0 then begin
          List.iter
            (fun g ->
              List.iter
                (fun uid ->
                  let v = Gvd.snapshot_version g uid in
                  let k = Store.Uid.serial uid in
                  (match Hashtbl.find_opt seen k with
                  | Some v0 when v < v0 ->
                      flag "snapshot version of %s went backwards (%d -> %d)"
                        (Store.Uid.to_string uid) v0 v
                  | _ -> ());
                  let v0 = Option.value ~default:0 (Hashtbl.find_opt seen k) in
                  Hashtbl.replace seen k (max v0 v);
                  (* The optimistic validation's premise: the St revision
                     only ever counts up, or a commit could validate
                     against a rolled-back membership. *)
                  let r = Gvd.st_revision g uid in
                  (match Hashtbl.find_opt seen_rev k with
                  | Some r0 when r < r0 ->
                      flag "St revision of %s went backwards (%d -> %d)"
                        (Store.Uid.to_string uid) r0 r
                  | _ -> ());
                  let r0 =
                    Option.value ~default:0 (Hashtbl.find_opt seen_rev k)
                  in
                  Hashtbl.replace seen_rev k (max r0 r))
                (Gvd.all_uids g))
            (Router.gvds (Service.router w));
          Sim.Engine.sleep eng 5.0;
          loop ()
        end
      in
      loop ());
  (* Operator fiber: rebalance 1 -> 2 shards mid-schedule and back. *)
  Net.Network.spawn_on net "ns" ~name:"chaos.rebalance" (fun () ->
      Sim.Engine.sleep eng 60.0;
      Router.rebalance (Service.router w) ~from:"ns" [ "ns"; "ns2" ];
      Sim.Engine.sleep eng 70.0;
      Router.rebalance (Service.router w) ~from:"ns" [ "ns" ]);
  (* Client workload with accounting bounds. Exact accounting cannot hold
     under client crashes: an amount in flight when its client dies may
     or may not have committed (the fiber that would have told us is
     gone). Track acknowledged commits as the floor and crashed in-flight
     amounts as slack on the ceiling. *)
  let committed = Hashtbl.create 8 in
  let potential = Hashtbl.create 8 in
  let commits = ref 0 in
  let cell tbl k =
    match Hashtbl.find_opt tbl k with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add tbl k r;
        r
  in
  let wrng = Sim.Rng.split (Sim.Engine.rng eng) in
  List.iter
    (fun client ->
      let crng = Sim.Rng.split wrng in
      let in_flight = ref None in
      Net.Network.on_crash net client (fun () ->
          match !in_flight with
          | Some (k, amount) ->
              let p = cell potential k in
              p := !p + amount;
              in_flight := None
          | None -> ());
      Service.spawn_client w client (fun () ->
          Sim.Engine.sleep eng (Sim.Rng.uniform crng 0.0 8.0);
          for _ = 1 to actions_per_client do
            let uid = Sim.Rng.pick crng uids in
            let amount = 1 + Sim.Rng.int crng 50 in
            let scheme = Sim.Rng.pick crng Scheme.all in
            let policy =
              Sim.Rng.pick crng
                [ Replica.Policy.Single_copy_passive; Replica.Policy.Active 2 ]
            in
            let k = Store.Uid.serial uid in
            in_flight := Some (k, amount);
            (* The brownout world gives every action a real time budget:
               the client stops waiting at 25s (comfortably above the
               healthy commit path, below the retry tail a browned
               store can induce), and under the world's gray-failure
               profile the servers refuse phase-1 work for actions
               already past it. *)
            (match
               Service.with_bound
                 ?deadline:(if brownout then Some 25.0 else None)
                 w ~client ~scheme ~policy ~uid
                 (fun act group ->
                   ignore
                     (Service.invoke w group ~act
                        (Printf.sprintf "add %d" amount)))
             with
            | Ok () ->
                incr commits;
                let c = cell committed k in
                c := !c + amount
            | Error _ -> ());
            in_flight := None;
            Sim.Engine.sleep eng (Sim.Rng.uniform crng 4.0 18.0)
          done))
    clients;
  (* The schedule, then the heal: clear every message fault and bring
     servers and stores (never the crashed clients) back up. *)
  List.iter (apply_event net) events;
  Net.Fault.heal_at net ~at:heal_time;
  List.iter
    (fun node -> Net.Fault.recover_at net ~at:(heal_time +. 1.0) node)
    (servers @ stores @ (if durable then naming else []));
  Service.run w;
  (* Post-heal janitor passes, each drained to quiescence: participants
     whose phase-2 message was severed re-pull the decision (cooperative
     termination settles coordinators that died for good), then cleanup
     sweeps the crashed clients' orphaned counters. *)
  List.iter
    (fun node ->
      Net.Network.spawn_on net node ~name:(node ^ ".chaos-resolve")
        (fun () -> Action.Recovery.resolve_in_doubt (Service.atomic w) ~node ()))
    stores;
  Service.run w;
  List.iter
    (fun g ->
      Net.Network.spawn_on net (Gvd.node g) ~name:"chaos.sweep" (fun () ->
          ignore (Cleanup.sweep_now g (Service.atomic w) : int);
          ignore (Cleanup.sweep_now g (Service.atomic w) : int)))
    (Router.gvds (Service.router w));
  Service.run w;
  (* Accounting bounds against the final committed states. *)
  let actual uid =
    let sh = Service.store_host w in
    List.fold_left
      (fun best node ->
        match
          Store.Object_store.read (Action.Store_host.objects sh node) uid
        with
        | Some s -> (
            match best with
            | Some b when not (Store.Object_state.newer_than s b) -> Some b
            | _ -> Some s)
        | None -> best)
      None stores
    |> function
    | Some s -> ( try int_of_string s.Store.Object_state.payload with _ -> 0)
    | None -> 0
  in
  List.iter
    (fun uid ->
      let k = Store.Uid.serial uid in
      let lo =
        match Hashtbl.find_opt committed k with Some r -> !r | None -> 0
      in
      let hi =
        lo
        + match Hashtbl.find_opt potential k with Some r -> !r | None -> 0
      in
      let v = actual uid in
      if v < lo || v > hi then
        flag "accounting: %s holds %d, outside committed bounds [%d, %d]"
          (Store.Uid.to_string uid) v lo hi)
    uids;
  {
    oc_violations = List.rev !violations @ Audit.chaos w;
    oc_commits = !commits;
    oc_retries = Sim.Metrics.counter m "retry.retries";
    oc_faults =
      List.fold_left
        (fun acc c -> acc + Sim.Metrics.counter m c)
        0
        [
          "fault.drop";
          "fault.dup";
          "fault.reorder";
          "fault.delay";
          "fault.cut_dropped";
          "fault.brownout";
        ];
    oc_shed = Sim.Metrics.counter m "retry.shed_expired";
  }

(* Greedy two-pass shrinker. Pass one drops any single event whose
   removal keeps the run failing; pass two weakens the survivors by
   halving a fault's duration (windowed link faults shrink their whole
   window), floored so a probe never degenerates below a ~2s fault.
   Client crashes are permanent and carry no meaningful duration, so
   they are never weakened. The passes alternate to a fixpoint: a
   shorter fault may make an event droppable and vice versa. Each probe
   replays the same world seed, so the minimized schedule is still
   reproducible. *)
let weaken = function
  | Crash { node; _ } when is_client node -> None
  | Crash { node; at; duration } when duration >= 4.0 ->
      Some (Crash { node; at; duration = duration /. 2.0 })
  | Partition { a; b; at; duration } when duration >= 4.0 ->
      Some (Partition { a; b; at; duration = duration /. 2.0 })
  | Oneway { src; dst; at; duration } when duration >= 4.0 ->
      Some (Oneway { src; dst; at; duration = duration /. 2.0 })
  | Link ({ duration; _ } as l) when duration >= 4.0 ->
      Some (Link { l with duration = duration /. 2.0 })
  | Brownout ({ duration; _ } as b) when duration >= 4.0 ->
      Some (Brownout { b with duration = duration /. 2.0 })
  | _ -> None

let shrink ?(durable = false) ?(brownout = false) ?(autonomic = false) ~seed
    events =
  let failing evs =
    (run_world ~durable ~brownout ~autonomic ~seed ~events:evs ()).oc_violations
    <> []
  in
  let rec drop_pass evs =
    let rec try_drop i =
      if i >= List.length evs then None
      else
        let evs' = List.filteri (fun j _ -> j <> i) evs in
        if failing evs' then Some evs' else try_drop (i + 1)
    in
    match try_drop 0 with Some evs' -> drop_pass evs' | None -> evs
  in
  let rec weaken_pass evs =
    let rec try_weaken i =
      if i >= List.length evs then None
      else
        match weaken (List.nth evs i) with
        | None -> try_weaken (i + 1)
        | Some e' ->
            let evs' = List.mapi (fun j e -> if j = i then e' else e) evs in
            if failing evs' then Some evs' else try_weaken (i + 1)
    in
    match try_weaken 0 with Some evs' -> weaken_pass evs' | None -> evs
  in
  let rec fix evs =
    let evs' = weaken_pass (drop_pass evs) in
    if evs' = evs then evs else fix evs'
  in
  fix events

let check_seed ?(durable = false) ?(brownout = false) ?(autonomic = false) seed
    =
  let events = gen_events ~durable ~brownout ~seed () in
  let o = run_world ~durable ~brownout ~autonomic ~seed ~events () in
  if o.oc_violations = [] then (o, None)
  else (o, Some (shrink ~durable ~brownout ~autonomic ~seed events))

let default_seeds = [ 11L; 23L; 37L; 41L; 53L; 67L; 79L; 97L ]

let run_check ?(seeds = default_seeds) () =
  let failures = ref [] in
  let shed_total = ref 0 in
  let rows =
    List.concat_map
      (fun seed ->
        List.map
          (fun (durable, brownout, autonomic, world) ->
            let events = gen_events ~durable ~brownout ~seed () in
            let o, shrunk = check_seed ~durable ~brownout ~autonomic seed in
            (match shrunk with
            | None -> ()
            | Some min_events ->
                failures :=
                  (world, seed, min_events, o.oc_violations) :: !failures);
            if brownout then shed_total := !shed_total + o.oc_shed;
            [
              Int64.to_string seed;
              world;
              Table.cell_i (List.length events);
              Table.cell_i o.oc_commits;
              Table.cell_i o.oc_retries;
              Table.cell_i o.oc_faults;
              Table.cell_i (List.length o.oc_violations);
              (if o.oc_violations = [] then "ok" else "FAIL");
            ])
          [
            (false, false, false, "classic");
            (true, false, false, "durable-ns");
            (true, true, false, "brownout");
            (true, true, true, "autonomic");
          ])
      seeds
  in
  (* The brownout variant must actually exercise the shedding plane: a
     schedule set under which no server ever refused an expired call
     means the deadlines are miscalibrated, and the gray-failure
     machinery silently ran idle — fail the check rather than let that
     coverage rot. *)
  let shed_ok = !shed_total > 0 in
  let base_notes =
    [
      "Seed-deterministic nemesis schedules (crashes, partitions, one-way";
      "cuts, lossy/duplicating/reordering links) over randomized";
      "bind/commit workloads with a mid-run shard rebalance; delta";
      "shipping is ON, so copy-backs mix op-log deltas with full-state";
      "fallbacks under the fault plane. Every world commits through the";
      "validated lock-free snapshot and the group-commit plane (window";
      "2.0) and binds scheme A through one Join scatter, putting batch";
      "leadership, peel-outs and orphaned members under the fault";
      "schedules. The classic world never crashes";
      "naming; the durable-ns world runs durable naming and adds the";
      "naming shards to the crash pool. The brownout world adds";
      "gray failures (per-node service-time inflation, below every";
      "timeout) to the durable crash pool and runs the resilience plane";
      "against them: hedged 2PC/naming scatters, 25s action deadlines";
      "with server-side shedding of expired phase-1 work";
      "(retry.shed_expired must fire somewhere in the seed set), and";
      "breaker trips on sustained slowness. The autonomic";
      "world stacks the §16 membership plane on the brownout knobs:";
      "per-server controller daemons probing the stores and driving";
      "health-based Exclude/Include through the validated rounds, plus";
      "sibling-hedge routing of commit-path backup copies — flapping";
      "brownouts must not livelock membership (hysteresis + cooldown),";
      "and every controller-driven exclusion must either re-include";
      "after its catch-up fence or leave a still-consistent smaller St.";
      "Servers/stores heal, crashed";
      "clients stay down for the cleanup protocol. After quiescence,";
      "Audit.chaos checks StA mutual consistency, byte-equality of every";
      "store against the full-state golden shadow, snapshot-version and";
      "St-revision monotonicity, use-list quiescence, residual";
      "locks/reservations and leaked fibers, plus commit accounting";
      "bounds. Failing schedules";
      "shrink by event dropping, then by halving fault durations. Any";
      "seed replays the full run bit-for-bit.";
    ]
  in
  let failure_notes =
    List.concat_map
      (fun (world, seed, min_events, viols) ->
        (Printf.sprintf
           "seed %Ld (%s) FAILED; replay: repro chaos --seeds %Ld" seed world
           seed
        :: "minimized fault schedule:"
        :: List.map
             (fun e -> Format.asprintf "  - %a" pp_event e)
             min_events)
        @ List.map (fun v -> "  violation: " ^ v) viols)
      (List.rev !failures)
  in
  let failure_notes =
    if shed_ok then failure_notes
    else
      failure_notes
      @ [
          "FAIL: retry.shed_expired = 0 across every brownout run — the";
          "deadline-shedding plane never fired; recalibrate the brownout";
          "schedule or the 25s action deadline.";
        ]
  in
  ( Table.make ~title:"tab-chaos: deterministic chaos harness and invariant audit"
      ~columns:
        [
          "seed";
          "world";
          "events";
          "commits";
          "retries";
          "faults injected";
          "violations";
          "verdict";
        ]
      ~notes:(base_notes @ failure_notes) rows,
    !failures = [] && shed_ok )

let run ?seeds () = fst (run_check ?seeds ())
