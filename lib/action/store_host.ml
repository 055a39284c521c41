type hooks = {
  prepared : action:string -> coordinator:string -> unit;
  resolved : action:string -> unit;
  blocked : (string * string) list -> unit;
}

let no_hooks =
  {
    prepared = (fun ~action:_ ~coordinator:_ -> ());
    resolved = (fun ~action:_ -> ());
    blocked = ignore;
  }

type host = {
  h_objects : Store.Object_store.t;
  h_log : Store.Intent_log.t;
  mutable h_hooks : hooks;
}

type read_req = Store.Uid.t

type prepare_req = {
  pr_action : string;
  pr_coordinator : string;
  pr_writes : (Store.Uid.t * Store.Object_state.t) list;
}

type vote = Vote_yes | Vote_stale

type t = {
  rpc_rt : Net.Rpc.t;
  hosts : (Net.Network.node_id, host) Hashtbl.t;
  ep_read : (read_req, Store.Object_state.t option) Net.Rpc.endpoint;
  (* One prepare (resp. commit) round carries the sub-records of every
     action that writes this store in the round — a group-commit batch, or
     a lone action's list of one. Voting, staging and idempotence stay per
     action: the handlers run the per-action logic sub-record by
     sub-record. *)
  ep_prepare : (prepare_req list, (string * vote) list) Net.Rpc.endpoint;
  ep_commit : (string list, unit) Net.Rpc.endpoint;
  ep_abort : (string, unit) Net.Rpc.endpoint;
  ep_probe : (unit, unit) Net.Rpc.endpoint;
}

let create rpc_rt =
  {
    rpc_rt;
    hosts = Hashtbl.create 16;
    ep_read = Net.Rpc.endpoint "store.read";
    ep_prepare = Net.Rpc.endpoint "store.prepare";
    ep_commit = Net.Rpc.endpoint "store.commit";
    ep_abort = Net.Rpc.endpoint "store.abort";
    ep_probe = Net.Rpc.endpoint "store.probe";
  }

let rpc t = t.rpc_rt

let nodes t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.hosts [] |> List.sort String.compare

let host t node =
  match Hashtbl.find_opt t.hosts node with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Store_host: no store on %s" node)

(* Every way an intent leaves the log — commit, abort, termination —
   passes here, so the termination hooks see each one end. *)
let resolve h action =
  Store.Intent_log.resolve h.h_log ~action;
  h.h_hooks.resolved ~action

let apply_commit h action =
  match Store.Intent_log.prepared h.h_log ~action with
  | None -> () (* already applied: idempotent *)
  | Some { Store.Intent_log.writes; _ } ->
      List.iter
        (fun (uid, state) ->
          (* Skip stale states so recovery replays are safe. *)
          let stale =
            match Store.Object_store.read h.h_objects uid with
            | Some existing -> Store.Object_state.newer_than existing state
            | None -> false
          in
          if not stale then Store.Object_store.write h.h_objects uid state)
        writes;
      resolve h action

(* The phase-1 logic for one sub-record of a [store.prepare] round:
   validation, reservations, staging, hooks and traces are per action, so
   one action's refusal never touches another's vote in the same round. *)
let prepare_one t h node { pr_action; pr_coordinator; pr_writes } =
  let netw = Net.Rpc.network t.rpc_rt in
  (* Backward validation: each write must be the direct successor of
     the committed state (or recreate the same version during a
     recovery replay). A gap or a sibling version means the writer
     activated from a stale state. *)
  let valid (uid, state) =
    match Store.Object_store.read h.h_objects uid with
    | None -> true
    | Some existing ->
        let incoming = state.Store.Object_state.version.Store.Version.counter in
        let current = existing.Store.Object_state.version.Store.Version.counter in
        incoming = current + 1 || incoming = current && Store.Object_state.equal state existing
  in
  (* A pending prepare of another action is a write reservation:
     admitting a second writer for the same object would let two
     version-(n+1) siblings both commit (the apply order, not the
     validation, would then pick the survivor). *)
  let reserved (uid, _) =
    List.exists
      (fun a -> not (String.equal a pr_action))
      (Store.Intent_log.pending_writers h.h_log uid)
  in
  List.iter
    (fun ((uid, state) as w) ->
      if not (valid w) then
        Sim.Trace.recordf (Net.Network.trace netw)
          ~now:(Sim.Engine.now (Net.Network.engine netw)) ~tag:"store"
          "%s: %s stale prepare of %s (incoming %s vs stored %s)" node
          pr_action (Store.Uid.to_string uid)
          (Store.Version.to_string state.Store.Object_state.version)
          (match Store.Object_store.read h.h_objects uid with
          | Some e -> Store.Version.to_string e.Store.Object_state.version
          | None -> "none")
      else if reserved w then
        Sim.Trace.recordf (Net.Network.trace netw)
          ~now:(Sim.Engine.now (Net.Network.engine netw)) ~tag:"store"
          "%s: %s blocked by reservation of [%s] on %s" node pr_action
          (String.concat ","
             (List.filter
                (fun a -> not (String.equal a pr_action))
                (Store.Intent_log.pending_writers h.h_log uid)))
          (Store.Uid.to_string uid))
    pr_writes;
  if List.for_all valid pr_writes && not (List.exists reserved pr_writes)
  then begin
    Store.Intent_log.prepare h.h_log ~action:pr_action
      ~coordinator:pr_coordinator pr_writes;
    h.h_hooks.prepared ~action:pr_action ~coordinator:pr_coordinator;
    Vote_yes
  end
  else begin
    (* A refusal by other actions' write reservations reports the
       blockers, so termination can settle those whose coordinator is
       partitioned away: a partition severs their phase 2 without
       crashing anyone. *)
    let blockers =
      List.sort_uniq compare
        (List.concat_map
           (fun (uid, _) ->
             List.filter_map
               (fun a ->
                 if String.equal a pr_action then None
                 else
                   Option.map
                     (fun { Store.Intent_log.coordinator; _ } -> (a, coordinator))
                     (Store.Intent_log.prepared h.h_log ~action:a))
               (Store.Intent_log.pending_writers h.h_log uid))
           pr_writes)
    in
    if blockers <> [] then h.h_hooks.blocked blockers;
    Vote_stale
  end

let add t node =
  if Hashtbl.mem t.hosts node then
    invalid_arg (Printf.sprintf "Store_host.add: %s already hosted" node);
  let h =
    {
      h_objects = Store.Object_store.create ();
      h_log = Store.Intent_log.create ();
      h_hooks = no_hooks;
    }
  in
  Hashtbl.add t.hosts node h;
  Net.Rpc.serve t.rpc_rt ~node t.ep_read (fun uid ->
      Store.Object_store.read h.h_objects uid);
  Net.Rpc.serve t.rpc_rt ~node t.ep_prepare (fun reqs ->
      List.map (fun req -> (req.pr_action, prepare_one t h node req)) reqs);
  Net.Rpc.serve t.rpc_rt ~node t.ep_commit (List.iter (apply_commit h));
  Net.Rpc.serve t.rpc_rt ~node t.ep_probe (fun () -> ());
  Net.Rpc.serve t.rpc_rt ~node t.ep_abort (resolve h)

let hosted t node = Hashtbl.mem t.hosts node

let objects t node = (host t node).h_objects
let log t node = (host t node).h_log

let seed t node uid state = Store.Object_store.write (host t node).h_objects uid state

let read t ~from ~store uid = Net.Rpc.call t.rpc_rt ~from ~dst:store t.ep_read uid

(* A round's answer for one of its actions; a store that answered without
   that action's sub-record never received it. *)
let vote_of ~action = function
  | Error e -> Error e
  | Ok votes -> (
      match List.assoc_opt action votes with
      | Some v -> Ok v
      | None -> Error Net.Rpc.No_service)

let prepare t ~from ~store ~action ~coordinator writes =
  vote_of ~action
    (Net.Rpc.call t.rpc_rt ~from ~dst:store t.ep_prepare
       [
         {
           pr_action = action;
           pr_coordinator = coordinator;
           pr_writes = writes;
         };
       ])

let commit t ~from ~store ~action =
  Net.Rpc.call t.rpc_rt ~from ~dst:store t.ep_commit [ action ]

let abort t ~from ~store ~action = Net.Rpc.call t.rpc_rt ~from ~dst:store t.ep_abort action

let probe t ~from ~store = Net.Rpc.call t.rpc_rt ~from ~dst:store t.ep_probe ()

(* The 2PC fan-outs below are idempotent at the store: prepare records
   the same intent twice (replays return the recorded vote), commit/abort
   resolve an intent-log entry idempotently, so a hedged duplicate
   delivery is harmless ({!Net.Rpc.call_all}).

   [st], when given, is the replica set the stores belong to: a leg may
   race its backup copy against a sibling [St] member instead of
   re-rolling the sick destination's dice. The sibling holds the same
   replicated object, so its handler does the same work its own leg does
   (prepare replaces per-action; phase-2 resolves idempotently) — but its
   answer is NOT the primary's: a sibling win is the leg's
   [Error Timed_out], which the commit layer already handles (§4.2
   exclude-on-failure at prepare). The payoff is purely latency: the
   gather stops waiting on the browned node after one healthy round trip
   instead of one inflated one. *)
let prepare_all t ~from ?deadline_at ?st per_store =
  Net.Rpc.call_all t.rpc_rt ~from ?deadline_at ~idempotent:true ?replicas:st
    t.ep_prepare per_store

let prepare_each t ~from ?deadline_at ?st ~action ~coordinator writes =
  List.map
    (fun (store, r) -> (store, vote_of ~action r))
    (prepare_all t ~from ?deadline_at ?st
       (List.map
          (fun (store, ws) ->
            ( store,
              [
                {
                  pr_action = action;
                  pr_coordinator = coordinator;
                  pr_writes = ws;
                };
              ] ))
          writes))

let commit_all t ~from ?st per_store =
  Net.Rpc.call_all t.rpc_rt ~from ~idempotent:true ?replicas:st
    ~keep_primary:true t.ep_commit per_store

let abort_all t ~from ?st ~stores action =
  Net.Rpc.call_all t.rpc_rt ~from ~idempotent:true ?replicas:st
    ~keep_primary:true t.ep_abort
    (List.map (fun store -> (store, action)) stores)

let set_hooks t node hooks = (host t node).h_hooks <- hooks

let discard t node ~action = resolve (host t node) action

let record_decision t ~node ~action d =
  Store.Intent_log.record_decision (host t node).h_log ~action d
