open Naming

let mutual_consistency w uid =
  let st = Router.current_st (Service.router w) uid in
  let states =
    List.map
      (fun node ->
        ( node,
          Store.Object_store.read
            (Action.Store_host.objects (Service.store_host w) node)
            uid ))
      st
  in
  let rec check first = function
    | [] -> Ok ()
    | (node, None) :: _ ->
        Error (Printf.sprintf "StA member %s holds no state" node)
    | (node, Some s) :: rest -> (
        match first with
        | None -> check (Some s) rest
        | Some f ->
            if Store.Object_state.equal f s then check first rest
            else
              Error
                (Printf.sprintf "StA member %s diverges (%s vs %s)" node
                   (Format.asprintf "%a" Store.Object_state.pp s)
                   (Format.asprintf "%a" Store.Object_state.pp f)))
  in
  check None states

(* --- consolidated post-chaos audit --- *)

let chaos w =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let net = Service.network w in
  let topo = Service.topology w in
  let uid_str uid = Format.asprintf "%a" Store.Uid.pp uid in
  (* Per-shard, per-object invariants: mutual consistency of StA and
     use-list quiescence (a non-empty counter after quiesce + cleanup is
     an orphan the protocol failed to repair, or a live client's credit
     that never flushed). *)
  List.iter
    (fun g ->
      List.iter
        (fun uid ->
          (match mutual_consistency w uid with
          | Ok () -> ()
          | Error why -> add "%s: %s" (uid_str uid) why);
          (* The optimistic-commit validation fence: the St revision
             counts only committed membership changes, and every install
             that bumps it also bumps the entry version — so it must sit
             in [0, snapshot version]. A revision outside that range
             means a handoff or resync tore the (image, revision) pair
             apart, and validate_view would be comparing garbage. *)
          (let rev = Gvd.st_revision g uid in
           let version = Gvd.snapshot_version g uid in
           if rev < 0 || rev > version then
             add "%s: St revision %d outside [0, snapshot version %d]"
               (uid_str uid) rev version);
          if not (Gvd.quiescent g uid) then begin
            let counters =
              List.concat_map
                (fun (node, ul) ->
                  List.map
                    (fun (client, n) ->
                      Printf.sprintf "%s@%s=%d" client node n)
                    (Use_list.clients ul))
                (Gvd.current_uses g uid)
            in
            add "%s: use-list counters not quiescent (%s)" (uid_str uid)
              (String.concat ", " counters)
          end)
        (Gvd.all_uids g);
      (match Gvd.residual_locks g with
      | [] -> ()
      | held ->
          add "shard %s: residual database locks on %s" (Gvd.node g)
            (String.concat ", " (List.map fst held)));
      match Gvd.residual_actions g with
      | [] -> ()
      | acts ->
          add "shard %s: residual staged state of actions %s" (Gvd.node g)
            (String.concat ", " acts))
    (Router.gvds (Service.router w));
  (* 2PC reservations: every intent-log entry must have resolved. *)
  List.iter
    (fun node ->
      if Net.Network.is_up net node then
        match
          Store.Intent_log.in_doubt
            (Action.Store_host.log (Service.store_host w) node)
        with
        | [] -> ()
        | acts ->
            add "store %s: unresolved reservations of %s" node
              (String.concat ", " acts))
    topo.Service.store_nodes;
  (* Server instances: no held instance locks, no staged invocations. *)
  List.iter
    (fun node ->
      if Net.Network.is_up net node then
        List.iter
          (fun (uid, holders, staged) ->
            add "server %s: instance %s residue (locks: %s; staged: %s)"
              node (uid_str uid)
              (String.concat ", " holders)
              (String.concat ", " staged))
          (Replica.Server.instance_residue (Service.server_runtime w) ~node))
    topo.Service.server_nodes;
  (* A drained engine must hold no suspended fiber of a live node. *)
  (match Sim.Engine.leaked_fibers (Service.engine w) with
  | [] -> ()
  | fibers -> add "leaked fibers: %s" (String.concat ", " fibers));
  List.rev !violations

type stress_report = {
  sr_attempts : int;
  sr_commits : int;
  sr_expected_total : int;
  sr_actual_total : int;
  sr_consistent : bool;
}

let exact r = r.sr_expected_total = r.sr_actual_total && r.sr_consistent

let pp_report ppf r =
  Format.fprintf ppf
    "attempts=%d commits=%d expected=%d actual=%d consistent=%b verdict=%s"
    r.sr_attempts r.sr_commits r.sr_expected_total r.sr_actual_total
    r.sr_consistent
    (if exact r then "EXACT" else "MISMATCH")

let counter_stress ?(seed = 99L) ?(clients = 3) ?(actions_per_client = 8)
    ?(server_churn = true) ?(store_churn = true)
    ?(policy = Replica.Policy.Active 2) ?(gvd_nodes = []) ?bind_cache_lease () =
  let servers = [ "s1"; "s2" ] in
  let stores = [ "t1"; "t2"; "t3" ] in
  let client_nodes = List.init clients (fun i -> Printf.sprintf "c%d" (i + 1)) in
  let w =
    Service.create ~seed ?bind_cache_lease
      {
        Service.gvd_node = "ns";
        gvd_nodes;
        server_nodes = servers;
        store_nodes = stores;
        client_nodes;
      }
  in
  let uid =
    Service.create_object w ~name:"audit" ~impl:"counter" ~sv:servers ~st:stores ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let net = Service.network w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let horizon = float_of_int actions_per_client *. 40.0 in
  if server_churn then
    List.iter
      (fun s ->
        Net.Fault.churn net ~rng:(Sim.Rng.split rng) ~mttf:100.0 ~mttr:25.0
          ~until:horizon s)
      servers;
  if store_churn then
    List.iter
      (fun s ->
        Net.Fault.churn net ~rng:(Sim.Rng.split rng) ~mttf:100.0 ~mttr:25.0
          ~until:horizon s)
      stores;
  let attempts = ref 0 and commits = ref 0 and expected = ref 0 in
  List.iter
    (fun client ->
      let crng = Sim.Rng.split rng in
      Service.spawn_client w client (fun () ->
          for _ = 1 to actions_per_client do
            incr attempts;
            let amount = 1 + Sim.Rng.int crng 100 in
            let scheme = Sim.Rng.pick crng Scheme.all in
            (match
               Service.with_bound w ~client ~scheme ~policy ~uid
                 (fun act group ->
                   Service.invoke w group ~act
                     (Printf.sprintf "add %d" amount))
             with
            | Ok _ ->
                incr commits;
                expected := !expected + amount
            | Error _ -> ());
            Sim.Engine.sleep eng (Sim.Rng.uniform crng 2.0 15.0)
          done))
    client_nodes;
  Service.run w;
  (* The final committed value: the newest state anywhere in st_home (all
     current StA members must agree; mutual_consistency checks that). *)
  let actual =
    List.fold_left
      (fun best node ->
        match
          Store.Object_store.read
            (Action.Store_host.objects (Service.store_host w) node)
            uid
        with
        | Some s -> (
            let v = int_of_string s.Store.Object_state.payload in
            match best with
            | Some (bv, bs) when not (Store.Object_state.newer_than s bs) ->
                Some (bv, bs)
            | _ -> Some (v, s))
        | None -> best)
      None stores
    |> function
    | Some (v, _) -> v
    | None -> 0
  in
  {
    sr_attempts = !attempts;
    sr_commits = !commits;
    sr_expected_total = !expected;
    sr_actual_total = actual;
    sr_consistent = Result.is_ok (mutual_consistency w uid);
  }
