type role = Plain | Coordinator | Cohort

type activate_result = Activated of Store.Version.t | Activation_failed of string

type invoke_result =
  | Reply of string
  | Locked
  | Not_active
  | Not_coordinator
  | State_lost
  | Settled

type commit_view = {
  cv_payload : string;
  cv_version : Store.Version.t;
  cv_dirty : bool;
  cv_delta : (Store.Version.t * string list) list;
      (* the replica's retained op chain, oldest first, ending in the ops
         the action staged (as version [cv_version]); empty when delta
         shipping is off or the chain would be useless (clean view, or a
         write whose ops were not recorded). The copy-back cuts per-store
         suffixes out of this. *)
}

type mc_invoke = {
  mi_uid : Store.Uid.t;
  mi_action : string;
  mi_serial : int;
  mi_last_acked : int;
  mi_write : bool;
  mi_op : string;
  mi_reply_to : Net.Network.node_id;
  mi_req : int;
}

type mc_reply = {
  mr_req : int;
  mr_replica : Net.Network.node_id;
  mr_result : invoke_result;
}

type instance = {
  i_uid : Store.Uid.t;
  i_impl : Object_impl.t;
  i_node : Net.Network.node_id;
  mutable i_committed : string;
  mutable i_version : Store.Version.t;
  i_staged : (string, string) Hashtbl.t; (* action -> staged payload *)
  i_staged_ops : (string, string list) Hashtbl.t;
      (* action -> write ops staged so far, newest first; the provenance
         of the staged payload: folding the reversed list over
         [i_committed] reproduces [i_staged]. Feeds the op log at commit. *)
  i_applied : (string, string) Hashtbl.t; (* "action#serial" -> reply *)
  i_locks : Lockmgr.Manager.t;
  mutable i_role : role;
  mutable i_members : Net.Network.node_id list;
  (* Lock holders as of the last checkpoint; installed when this replica
     becomes coordinator. *)
  mutable i_ckpt_holders : (string * Lockmgr.Mode.t) list;
  mutable i_ckpt_stamp : float; (* newest checkpoint applied *)
  (* Recently finished (committed, aborted or transferred-to-parent)
     actions, newest first, bounded. An invocation of a settled action
     must be refused: it is a straggler — a duplicated multicast
     delivery, or a fiber that sat parked on the instance lock while its
     action timed out and aborted — and executing it would stage payload
     and take locks that no completion will ever clean up. *)
  mutable i_settled : string list;
}

type activate_req = {
  a_uid : Store.Uid.t;
  a_impl : string;
  a_stores : Net.Network.node_id list;
  a_role : role;
  a_members : Net.Network.node_id list;
}

type invoke_req = {
  v_uid : Store.Uid.t;
  v_action : string;
  v_serial : int;
  v_last_acked : int;
      (* serial of the last invocation of this action the client saw
         answered; lets a freshly promoted coordinator detect that it
         lost the action's staged state (lazy checkpointing) *)
  v_write : bool;
  v_op : string;
}

type view_req = {
  cw_uid : Store.Uid.t;
  cw_action : string;
  cw_last_acked : int;
      (* the view is only valid if this replica has processed the
         action's last acknowledged invocation — a replica the ordered
         multicast has not reached yet would otherwise present a stale
         (clean-looking) state to commit processing *)
}

type checkpoint_msg = {
  k_stamp : float;
      (* sender's virtual time: checkpoints travel over unordered
         point-to-point sends, and an overtaken older checkpoint must not
         regress the cohort *)
  k_uid : Store.Uid.t;
  k_impl : string;
  k_committed : string;
  k_version : Store.Version.t;
  k_staged : (string * string) list;
  k_staged_ops : (string * string list) list;
      (* staged payloads and their op provenance travel together: a
         promoted cohort that lost the ops could still commit, but could
         no longer ship deltas for the write *)
  k_applied : (string * string) list;
  k_oplog : (Store.Version.t * string list) list;
      (* the coordinator's retained op log for the object, oldest first;
         cohorts adopt it wholesale (checkpoint-anchored truncation) *)
  k_holders : (string * Lockmgr.Mode.t) list;
  k_members : Net.Network.node_id list;
  k_coordinator : Net.Network.node_id;
}

type runtime = {
  art : Action.Atomic.runtime;
  impls : (string, Object_impl.t) Hashtbl.t;
  instances : (Net.Network.node_id, (string, instance) Hashtbl.t) Hashtbl.t;
  guards : (Net.Network.node_id, Action.Orphan_guard.t) Hashtbl.t;
  mc : Net.Multicast.t;
  ep_activate : (activate_req, activate_result) Net.Rpc.endpoint;
  ep_invoke : (invoke_req, invoke_result) Net.Rpc.endpoint;
  ep_view : (view_req, commit_view option) Net.Rpc.endpoint;
  ep_role : (Store.Uid.t, role option) Net.Rpc.endpoint;
  ep_passivate : (Store.Uid.t, bool) Net.Rpc.endpoint;
  ep_quiescent : (Store.Uid.t, bool) Net.Rpc.endpoint;
  ep_checkpoint : (checkpoint_msg, unit) Net.Rpc.endpoint;
  ep_reply : (mc_reply, unit) Net.Rpc.endpoint;
  ch_invoke : mc_invoke Net.Multicast.channel;
  lock_timeout : float;
  mutable eager_checkpoints : bool;
  o_log : Oplog.t;
  delta_shipping : bool;
      (* default off: worlds that never enable it run byte-identically to
         the pre-oplog behaviour (no appends, no chains in views) *)
  force_delta : bool;
      (* skip the per-write size comparison: ship a coverable delta even
         when the full state encodes smaller (chaos worlds keep the delta
         path exercised on small objects) *)
  g_commit : Groupcommit.t;
      (* the group-commit plane commits on this runtime batch through *)
  (* In-flight presumed-abort probes for instance locks whose holder's
     coordinator is partitioned away: (node, uid, holder) triples. *)
  breaking : (string * string * string, unit) Hashtbl.t;
}

let resource_name uid = "obj:" ^ Store.Uid.to_string uid

let create ?(delta_shipping = false) ?(force_delta = false) art impls =
  let o_log = Oplog.create (Net.Network.metrics (Action.Atomic.network art)) in
  {
    art;
    impls;
    instances = Hashtbl.create 16;
    guards = Hashtbl.create 16;
    mc = Net.Multicast.create (Action.Atomic.rpc art);
    ep_activate = Net.Rpc.endpoint "server.activate";
    ep_invoke = Net.Rpc.endpoint "server.invoke";
    ep_view = Net.Rpc.endpoint "server.commit_view";
    ep_role = Net.Rpc.endpoint "server.role";
    ep_passivate = Net.Rpc.endpoint "server.passivate";
    ep_quiescent = Net.Rpc.endpoint "server.quiescent";
    ep_checkpoint = Net.Rpc.endpoint "server.checkpoint";
    ep_reply = Net.Rpc.endpoint "server.mc_reply";
    ch_invoke = Net.Multicast.channel "server.invoke.mc";
    lock_timeout = 30.0;
    eager_checkpoints = true;
    o_log;
    delta_shipping;
    force_delta;
    g_commit =
      Groupcommit.create
        ~engine:(Action.Atomic.engine art)
        ~store_host:(Action.Atomic.store_host art)
        ~metrics:(Net.Network.metrics (Action.Atomic.network art));
    breaking = Hashtbl.create 16;
  }

let atomic_runtime t = t.art
let set_eager_checkpoints t flag = t.eager_checkpoints <- flag
let oplog t = t.o_log
let delta_shipping t = t.delta_shipping
let force_delta t = t.force_delta
let groupcommit t = t.g_commit
let invoke_channel t = t.ch_invoke
let reply_endpoint t = t.ep_reply
let mc t = t.mc

let net t = Action.Atomic.network t.art
let eng t = Action.Atomic.engine t.art

let tracef t fmt =
  Sim.Trace.recordf (Net.Network.trace (net t)) ~now:(Sim.Engine.now (eng t))
    ~tag:"server" fmt

let metrics t = Net.Network.metrics (net t)

let node_instances t node =
  match Hashtbl.find_opt t.instances node with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.add t.instances node tbl;
      tbl

let find_instance t node uid =
  Hashtbl.find_opt (node_instances t node) (Store.Uid.to_string uid)

let guard_of t node = Hashtbl.find_opt t.guards node

let touch_guard t node uid action =
  match guard_of t node with
  | Some g ->
      Action.Orphan_guard.touch g ~scope:(Store.Uid.to_string uid) ~action
  | None -> ()

let applied_key action serial = Printf.sprintf "%s#%d" action serial

(* Tombstone a finished action on the instance (bounded, newest first).
   The bound only forgets ancient history: a straggler invocation arrives
   within a lock timeout of its action's end, not dozens of actions
   later. *)
let settled_cap = 64

let settle_action inst action =
  if not (List.mem action inst.i_settled) then begin
    let kept =
      if List.length inst.i_settled >= settled_cap then
        List.filteri (fun i _ -> i < settled_cap - 1) inst.i_settled
      else inst.i_settled
    in
    inst.i_settled <- action :: kept
  end

let is_settled inst action = List.mem action inst.i_settled

(* Remove dedup entries belonging to [action] or any of its descendants
   (hierarchical ids: descendants have "<action>." as a prefix). *)
let clean_applied inst action =
  let prefix = action ^ "." in
  let doomed =
    Hashtbl.fold
      (fun key _ acc ->
        let matches =
          (String.length key > String.length action
          && String.sub key 0 (String.length action) = action
          && key.[String.length action] = '#')
          || (String.length key >= String.length prefix
             && String.sub key 0 (String.length prefix) = prefix)
        in
        if matches then key :: acc else acc)
      inst.i_applied []
  in
  List.iter (Hashtbl.remove inst.i_applied) doomed

let holders_snapshot inst =
  (* All (owner, mode) pairs on the instance's single lock key. *)
  Lockmgr.Manager.holders inst.i_locks "state"

(* Synchronously checkpoint the coordinator's instance to its cohorts. *)
let checkpoint_to_cohorts t inst =
  if inst.i_role = Coordinator then begin
    let msg =
      {
        k_stamp = Sim.Engine.now (eng t);
        k_uid = inst.i_uid;
        k_impl = inst.i_impl.Object_impl.impl_name;
        k_committed = inst.i_committed;
        k_version = inst.i_version;
        k_staged = Hashtbl.fold (fun k v acc -> (k, v) :: acc) inst.i_staged [];
        k_staged_ops =
          (if t.delta_shipping then
             Hashtbl.fold (fun k v acc -> (k, v) :: acc) inst.i_staged_ops []
           else []);
        k_applied = Hashtbl.fold (fun k v acc -> (k, v) :: acc) inst.i_applied [];
        k_oplog =
          (if t.delta_shipping then
             Oplog.records t.o_log ~node:inst.i_node ~uid:inst.i_uid
           else []);
        k_holders = holders_snapshot inst;
        k_members = inst.i_members;
        k_coordinator = inst.i_node;
      }
    in
    (* Checkpoint distribution fans out to every cohort at once: the
       coordinator pays one round-trip regardless of group size. *)
    let cohorts =
      List.filter (fun c -> not (String.equal c inst.i_node)) inst.i_members
    in
    Net.Rpc.call_all (Action.Atomic.rpc t.art) ~from:inst.i_node
      t.ep_checkpoint
      (List.map (fun cohort -> (cohort, msg)) cohorts)
    |> List.iter (function
         | _, Ok () -> Sim.Metrics.incr (metrics t) "server.checkpoints"
         | _, Error _ ->
             Sim.Metrics.incr (metrics t) "server.checkpoint_failures")
  end

(* The resource manager wiring an instance into action completion. *)
let make_manager t inst =
  let release action =
    Lockmgr.Manager.release_all inst.i_locks ~owner:action;
    (* Also prune the action from the checkpointed holder snapshot: a
       cohort promoted after this action ended must not resurrect its
       locks (they would never be released — a phantom wedge). *)
    inst.i_ckpt_holders <-
      List.filter (fun (o, _) -> not (String.equal o action)) inst.i_ckpt_holders
  in
  {
    Action.Resource_host.m_prepare = (fun ~action:_ -> true);
    m_commit =
      (fun ~action ->
        (match Hashtbl.find_opt inst.i_staged action with
        | Some payload ->
            inst.i_committed <- payload;
            inst.i_version <-
              Store.Version.next inst.i_version ~committed_by:action;
            Hashtbl.remove inst.i_staged action;
            (* Append the committed version's op provenance before the
               locks drop: the next writer's commit view must already see
               a chain that reaches this version. A write whose ops were
               not recorded (a checkpoint from a pre-oplog coordinator)
               leaves a deliberate gap — gaps force full-state fallback,
               never a wrong delta. *)
            (if t.delta_shipping then
               match Hashtbl.find_opt inst.i_staged_ops action with
               | Some (_ :: _ as ops) ->
                   Oplog.append t.o_log ~now:(Sim.Engine.now (eng t))
                     ~node:inst.i_node ~uid:inst.i_uid ~version:inst.i_version
                     ~ops:(List.rev ops)
               | Some [] | None -> ());
            Hashtbl.remove inst.i_staged_ops action;
            tracef t "%s: %s instance-commit %a := %S %a" inst.i_node action
              Store.Uid.pp inst.i_uid payload Store.Version.pp inst.i_version
        | None ->
            tracef t "%s: %s instance-commit %a: nothing staged" inst.i_node
              action Store.Uid.pp inst.i_uid);
        clean_applied inst action;
        release action;
        settle_action inst action;
        (match guard_of t inst.i_node with
        | Some g ->
            Action.Orphan_guard.settle g
              ~scope:(Store.Uid.to_string inst.i_uid) ~action
        | None -> ());
        checkpoint_to_cohorts t inst);
    m_abort =
      (fun ~action ->
        Hashtbl.remove inst.i_staged action;
        Hashtbl.remove inst.i_staged_ops action;
        clean_applied inst action;
        release action;
        settle_action inst action;
        (match guard_of t inst.i_node with
        | Some g ->
            Action.Orphan_guard.settle g
              ~scope:(Store.Uid.to_string inst.i_uid) ~action
        | None -> ());
        checkpoint_to_cohorts t inst);
    m_transfer =
      (fun ~action ~parent ->
        (match Hashtbl.find_opt inst.i_staged action with
        | Some payload ->
            Hashtbl.replace inst.i_staged parent payload;
            Hashtbl.remove inst.i_staged action;
            (* The ops move with the payload they produced: the child's
               staged state replaces the parent's, so its provenance
               replaces the parent's too (the child folded over whatever
               the parent had staged). *)
            (match Hashtbl.find_opt inst.i_staged_ops action with
            | Some ops -> Hashtbl.replace inst.i_staged_ops parent ops
            | None -> Hashtbl.remove inst.i_staged_ops parent);
            Hashtbl.remove inst.i_staged_ops action
        | None -> ());
        Lockmgr.Manager.transfer_all inst.i_locks ~from_owner:action
          ~to_owner:parent;
        (* The child is finished as an owner here: a straggler invocation
           under the child's id would stage state its (gone) completion
           can never move to the parent. *)
        settle_action inst action;
        inst.i_ckpt_holders <-
          List.map
            (fun (o, m) -> if String.equal o action then (parent, m) else (o, m))
            inst.i_ckpt_holders;
        (match guard_of t inst.i_node with
        | Some g ->
            Action.Orphan_guard.transfer g
              ~scope:(Store.Uid.to_string inst.i_uid) ~action ~parent
        | None -> ());
        checkpoint_to_cohorts t inst);
  }

let install_instance t node inst =
  Hashtbl.replace (node_instances t node) (Store.Uid.to_string inst.i_uid) inst;
  Action.Resource_host.register (Action.Atomic.resource_host t.art) ~node
    ~resource:(resource_name inst.i_uid) (make_manager t inst)

(* A lock wait that timed out may be blocked by an action whose
   coordinator is partitioned away: the coordinator's abort fan-out never
   reached this node, the orphan guard only fires on crashes, and nothing
   retries the release after the cut heals — the instance would be wedged
   forever. Probe such holders' coordinators from a separate fiber: a
   commit decision completes the holder locally, an abort/unknown one (or
   a coordinator unreachable through the whole probe budget) is presumed
   abort. Holders whose coordinator is reachable are left alone — that is
   live contention, resolved by the holder's own completion fan-out. *)
let break_stale_holders t node inst =
  List.iter
    (fun (owner, _mode) ->
      let coordinator = Action.Orphan_guard.origin_of_action owner in
      let key = (node, Store.Uid.to_string inst.i_uid, owner) in
      if
        (not (Hashtbl.mem t.breaking key))
        && not (Net.Network.reachable (net t) node coordinator)
      then begin
        Hashtbl.add t.breaking key ();
        Net.Network.spawn_on (net t) node
          ~name:(Printf.sprintf "%s.break-lock:%s" node owner)
          (fun () ->
            let rh = Action.Atomic.resource_host t.art in
            let resource = resource_name inst.i_uid in
            let finish how =
              match how with
              | `Commit ->
                  tracef t "%s: wedged holder %s -> commit" node owner;
                  ignore
                    (Action.Resource_host.commit rh ~from:node ~node ~resource
                       ~action:owner)
              | `Abort why ->
                  tracef t "%s: wedged holder %s -> presumed abort (%s)" node
                    owner why;
                  ignore
                    (Action.Resource_host.abort rh ~from:node ~node ~resource
                       ~action:owner);
                  (* The presumption may be wrong (the coordinator may in
                     fact have committed, unreachably): this instance's
                     volatile state is now suspect, so passivate it — the
                     next activation rebuilds from the object stores,
                     which hold the committed truth. *)
                  ignore
                    (Net.Rpc.call
                       (Action.Atomic.rpc t.art)
                       ~from:node ~dst:node t.ep_passivate inst.i_uid)
            in
            let rec settle n =
              if List.mem_assoc owner (holders_snapshot inst) then
                match
                  Action.Atomic.query_decision t.art ~from:node ~coordinator
                    ~action:owner
                with
                | Ok Action.Atomic.D_commit -> finish `Commit
                | Ok (Action.Atomic.D_abort | Action.Atomic.D_unknown) ->
                    finish (`Abort "decided")
                | Ok Action.Atomic.D_active ->
                    (* The cut healed and the action is still live: its
                       own completion will release the lock. *)
                    ()
                | Error _ ->
                    if n = 0 then finish (`Abort "coordinator unreachable")
                    else begin
                      Sim.Engine.sleep (eng t) 2.0;
                      settle (n - 1)
                    end
            in
            settle 5;
            Hashtbl.remove t.breaking key)
      end)
    (holders_snapshot inst)

(* Core invocation logic, shared by the RPC and multicast paths. Runs in a
   fiber on the instance's node. *)
let do_invoke t node { v_uid; v_action; v_serial; v_last_acked; v_write; v_op } =
  match find_instance t node v_uid with
  | None -> Not_active
  | Some inst -> (
      if inst.i_role = Cohort then Not_coordinator
      else if
        (* The client saw an earlier invocation of this action answered,
           but we have no trace of it: a failover lost the staged state
           (checkpoints were lazy). Executing from the committed state
           would silently drop the earlier updates — refuse instead. *)
        v_last_acked > 0
        && not (Hashtbl.mem inst.i_applied (applied_key v_action v_last_acked))
      then begin
        Sim.Metrics.incr (metrics t) "server.state_lost";
        State_lost
      end
      else if is_settled inst v_action then begin
        Sim.Metrics.incr (metrics t) "server.settled_refusals";
        Settled
      end
      else
        let key = applied_key v_action v_serial in
        match Hashtbl.find_opt inst.i_applied key with
        | Some cached -> Reply cached (* exactly-once across retries *)
        | None -> (
            touch_guard t node v_uid v_action;
            let mode = if v_write then Lockmgr.Mode.Write else Lockmgr.Mode.Read in
            match
              Lockmgr.Manager.acquire inst.i_locks ~owner:v_action ~mode
                ~timeout:t.lock_timeout "state"
            with
            | Error `Timeout ->
                break_stale_holders t node inst;
                Sim.Metrics.incr (metrics t) "server.lock_refusals";
                Locked
            | Ok () when is_settled inst v_action ->
                (* The action finished (timeout abort, usually) while this
                   fiber sat parked on the instance lock: executing now
                   would stage payload and hold locks for an owner whose
                   completion already ran. *)
                Lockmgr.Manager.release_all inst.i_locks ~owner:v_action;
                Sim.Metrics.incr (metrics t) "server.settled_refusals";
                tracef t "%s: refused settled action %s on %a" node v_action
                  Store.Uid.pp v_uid;
                Settled
            | Ok () ->
                let payload =
                  match Hashtbl.find_opt inst.i_staged v_action with
                  | Some staged -> staged
                  | None -> inst.i_committed
                in
                let payload', reply = inst.i_impl.Object_impl.apply payload v_op in
                if v_write then begin
                  Hashtbl.replace inst.i_staged v_action payload';
                  (* Provenance, recorded exactly once per applied
                     invocation (the dedup table above short-circuits
                     retries): the op log entry this write will become. *)
                  (if t.delta_shipping then
                     let prev =
                       Option.value ~default:[]
                         (Hashtbl.find_opt inst.i_staged_ops v_action)
                     in
                     Hashtbl.replace inst.i_staged_ops v_action (v_op :: prev));
                  tracef t "%s: %s writes %a: %S -> %S (base %a)" node v_action
                    Store.Uid.pp v_uid payload payload' Store.Version.pp
                    inst.i_version
                end;
                Hashtbl.replace inst.i_applied key reply;
                Sim.Metrics.incr (metrics t) "server.invocations";
                if t.eager_checkpoints then checkpoint_to_cohorts t inst;
                Reply reply))

let apply_checkpoint t node msg =
  let fresh_enough inst = msg.k_stamp > inst.i_ckpt_stamp in
  let inst =
    match find_instance t node msg.k_uid with
    | Some inst -> inst
    | None ->
        let impl = Object_impl.find t.impls msg.k_impl in
        let inst =
          {
            i_uid = msg.k_uid;
            i_impl = impl;
            i_node = node;
            i_committed = msg.k_committed;
            i_version = msg.k_version;
            i_staged = Hashtbl.create 8;
            i_staged_ops = Hashtbl.create 8;
            i_applied = Hashtbl.create 8;
            i_locks = Lockmgr.Manager.create (eng t);
            i_role = Cohort;
            i_members = msg.k_members;
            i_ckpt_holders = [];
            i_ckpt_stamp = neg_infinity;
            i_settled = [];
          }
        in
        install_instance t node inst;
        inst
  in
  if fresh_enough inst then begin
    inst.i_ckpt_stamp <- msg.k_stamp;
    inst.i_committed <- msg.k_committed;
    inst.i_version <- msg.k_version;
    Hashtbl.reset inst.i_staged;
    List.iter (fun (k, v) -> Hashtbl.replace inst.i_staged k v) msg.k_staged;
    Hashtbl.reset inst.i_staged_ops;
    List.iter
      (fun (k, v) -> Hashtbl.replace inst.i_staged_ops k v)
      msg.k_staged_ops;
    Hashtbl.reset inst.i_applied;
    List.iter (fun (k, v) -> Hashtbl.replace inst.i_applied k v) msg.k_applied;
    (* Adopt the coordinator's retained op log for this object: the
       checkpoint anchors how far back this cohort can ever ship deltas
       from, which keeps cohort logs in lock-step with compaction at the
       coordinator. *)
    if t.delta_shipping then
      Oplog.install t.o_log ~now:(Sim.Engine.now (eng t)) ~node
        ~uid:msg.k_uid msg.k_oplog;
    inst.i_ckpt_holders <- msg.k_holders;
    inst.i_members <- msg.k_members
  end
  else Sim.Metrics.incr (metrics t) "server.checkpoints_stale_dropped"

(* A replica assuming the coordinator role must materialise the lock
   table of the last checkpoint: in-progress actions coordinated at the
   previous coordinator hold locks there, and a new writer arriving here
   must wait for them exactly as it would have at the original node. *)
let assume_coordinator (_ : runtime) inst =
  if inst.i_role <> Coordinator then begin
    inst.i_role <- Coordinator;
    List.iter
      (fun (owner, mode) ->
        ignore (Lockmgr.Manager.try_acquire inst.i_locks ~owner ~mode "state"))
      inst.i_ckpt_holders
  end

(* Cohort self-promotion: when the failure detector reports the
   coordinator's crash, the live member with the smallest node id takes
   over, installing the checkpointed lock table; other survivors re-watch
   whoever was elected. *)
let rec arrange_promotion_chain t node uid coordinator =
  ignore
    (Net.Network.watch_crash (net t) coordinator (fun () ->
         Net.Network.spawn_on (net t) node ~name:(node ^ ".promote") (fun () ->
             match find_instance t node uid with
             | None -> ()
             | Some inst when inst.i_role <> Cohort -> ()
             | Some inst -> (
                 let live =
                   List.filter
                     (fun m ->
                       (not (String.equal m coordinator))
                       && Net.Network.is_up (net t) m)
                     inst.i_members
                 in
                 let elected = List.fold_left
                     (fun best m ->
                       match best with
                       | None -> Some m
                       | Some b -> if String.compare m b < 0 then Some m else best)
                     None live
                 in
                 match elected with
                 | Some e when String.equal e node ->
                     tracef t "%s promoted to coordinator of %a (holders: %s)"
                       node Store.Uid.pp uid
                       (String.concat ","
                          (List.map fst inst.i_ckpt_holders));
                     assume_coordinator t inst;
                     Sim.Metrics.incr (metrics t) "server.promotions"
                 | Some e ->
                     (* Someone else took over: watch them in turn. *)
                     arrange_promotion_chain t node uid e
                 | None -> ()))))

let make_instance t node impl uid state role members =
  {
    i_uid = uid;
    i_impl = impl;
    i_node = node;
    i_committed = state.Store.Object_state.payload;
    i_version = state.Store.Object_state.version;
    i_staged = Hashtbl.create 8;
    i_staged_ops = Hashtbl.create 8;
    i_applied = Hashtbl.create 8;
    i_locks = Lockmgr.Manager.create (eng t);
    i_role = role;
    i_members = members;
    i_ckpt_holders = [];
    i_ckpt_stamp = neg_infinity;
    i_settled = [];
  }

let do_activate t node { a_uid; a_impl; a_stores; a_role; a_members } =
  (* Idempotent path: refresh role and membership (re-binding, role
     assignment after group formation, or a change in the degree of
     replication). *)
  let refresh inst =
    let was = inst.i_role in
    (if a_role = Coordinator then assume_coordinator t inst
     else inst.i_role <- a_role);
    inst.i_members <- a_members;
    (if a_role = Cohort && was <> Cohort then
       match a_members with
       | coordinator :: _ when not (String.equal coordinator node) ->
           arrange_promotion_chain t node a_uid coordinator
       | _ -> ());
    Activated inst.i_version
  in
  match find_instance t node a_uid with
  | Some inst -> refresh inst
  | None -> (
      match Hashtbl.find_opt t.impls a_impl with
      | None -> Activation_failed ("unknown implementation " ^ a_impl)
      | Some impl -> (
          let sh = Action.Atomic.store_host t.art in
          (* The activation probe walks [StA] in order until one store
             yields a state. Under the [Autonomic] profile, walk it
             healthiest first ({!Net.Health.rank}) so a browned first
             replica does not put its tail latency in front of every
             activation; the rank is the identity while every store looks
             healthy. *)
          let probe_stores =
            match Net.Network.gray_failure (net t) with
            | Some Net.Network.Autonomic ->
                Net.Health.rank (Net.Network.health (net t))
                  ~now:(Sim.Engine.now (eng t)) a_stores
            | None | Some Net.Network.Hedged -> a_stores
          in
          let state =
            if a_stores = [] then Some (Store.Object_state.initial impl.Object_impl.initial)
            else
              List.fold_left
                (fun acc store ->
                  match acc with
                  | Some _ -> acc
                  | None -> (
                      match Action.Store_host.read sh ~from:node ~store a_uid with
                      | Ok (Some s) -> Some s
                      | Ok None | Error _ -> None))
                None probe_stores
          in
          match (state, find_instance t node a_uid) with
          | _, Some inst ->
              (* The store read yielded; a concurrent activation installed
                 the instance first. Installing ours would silently drop
                 its applied-invocation table and lock state (every racing
                 binder of a busy object would wipe the others), so defer
                 to the winner. *)
              Sim.Metrics.incr (metrics t) "server.activation_races";
              refresh inst
          | None, None -> Activation_failed "no reachable object store holds the state"
          | Some state, None ->
              let inst = make_instance t node impl a_uid state a_role a_members in
              install_instance t node inst;
              if a_role = Cohort then begin
                match a_members with
                | coordinator :: _ -> arrange_promotion_chain t node a_uid coordinator
                | [] -> ()
              end;
              Sim.Metrics.incr (metrics t) "server.activations";
              tracef t "activated %a on %s (%s)" Store.Uid.pp a_uid node
                (match a_role with
                | Plain -> "plain"
                | Coordinator -> "coordinator"
                | Cohort -> "cohort");
              Activated inst.i_version))

let do_view t node { cw_uid; cw_action; cw_last_acked } =
  match find_instance t node cw_uid with
  | None -> None
  | Some inst when
      cw_last_acked > 0
      && not (Hashtbl.mem inst.i_applied (applied_key cw_action cw_last_acked))
    ->
      (* Behind the client: the invocation stream has not fully reached
         this replica (multicast in flight, or a lazily-checkpointed
         cohort). *)
      Sim.Metrics.incr (metrics t) "server.view_behind";
      None
  | Some inst -> (
      match Hashtbl.find_opt inst.i_staged cw_action with
      | Some staged ->
          let cv_version =
            Store.Version.next inst.i_version ~committed_by:cw_action
          in
          (* The chain the copy-back cuts suffixes from: this replica's
             retained committed history plus the dirty write itself. A
             write with no recorded ops yields an empty chain — the
             copy-back then ships full state everywhere. *)
          let cv_delta =
            if not t.delta_shipping then []
            else
              match Hashtbl.find_opt inst.i_staged_ops cw_action with
              | Some (_ :: _ as ops) ->
                  Oplog.records t.o_log ~node ~uid:cw_uid
                  @ [ (cv_version, List.rev ops) ]
              | Some [] | None -> []
          in
          Some { cv_payload = staged; cv_version; cv_dirty = true; cv_delta }
      | None ->
          Some
            {
              cv_payload = inst.i_committed;
              cv_version = inst.i_version;
              cv_dirty = false;
              cv_delta = [];
            })

let instance_quiescent inst =
  Hashtbl.length inst.i_staged = 0 && holders_snapshot inst = []

let install_host t node =
  let rpc = Action.Atomic.rpc t.art in
  Net.Rpc.serve rpc ~node t.ep_activate (fun req -> do_activate t node req);
  Net.Rpc.serve rpc ~node t.ep_invoke (fun req -> do_invoke t node req);
  Net.Rpc.serve rpc ~node t.ep_view (fun req -> do_view t node req);
  Net.Rpc.serve rpc ~node t.ep_role (fun uid ->
      Option.map (fun i -> i.i_role) (find_instance t node uid));
  Net.Rpc.serve rpc ~node t.ep_quiescent (fun uid ->
      match find_instance t node uid with
      | None -> true
      | Some inst -> instance_quiescent inst);
  Net.Rpc.serve rpc ~node t.ep_passivate (fun uid ->
      match find_instance t node uid with
      | None -> true
      | Some inst ->
          if instance_quiescent inst then begin
            Hashtbl.remove (node_instances t node) (Store.Uid.to_string uid);
            tracef t "passivated %a on %s" Store.Uid.pp uid node;
            true
          end
          else false);
  Net.Rpc.serve rpc ~node t.ep_checkpoint (fun msg -> apply_checkpoint t node msg);
  Net.Multicast.listen t.mc ~node t.ch_invoke (fun ~seq:_ mi ->
      let result =
        do_invoke t node
          {
            v_uid = mi.mi_uid;
            v_action = mi.mi_action;
            v_serial = mi.mi_serial;
            v_last_acked = mi.mi_last_acked;
            v_write = mi.mi_write;
            v_op = mi.mi_op;
          }
      in
      Net.Rpc.notify rpc ~from:node ~dst:mi.mi_reply_to t.ep_reply
        { mr_req = mi.mi_req; mr_replica = node; mr_result = result });
  (* Watch for clients that crash mid-action and abort their orphaned
     locks and staged state at this node's instances. *)
  Hashtbl.replace t.guards node
    (Action.Orphan_guard.create (net t) ~node ~abort:(fun ~scope ~action ->
         let found =
           Hashtbl.fold
             (fun key inst acc ->
               if String.equal key scope then Some inst else acc)
             (node_instances t node) None
         in
         match found with
         | None -> ()
         | Some inst ->
             Sim.Metrics.incr (metrics t) "server.orphan_aborts";
             tracef t "%s: aborting orphaned action %s on %a" node action
               Store.Uid.pp inst.i_uid;
             (make_manager t inst).Action.Resource_host.m_abort ~action));
  (* Instances are volatile: destroy them on crash, and their op logs
     with them — a recovered node re-activates from the stores and
     rebuilds history from its next commits. *)
  Net.Network.on_crash (net t) node (fun () ->
      Hashtbl.reset (node_instances t node);
      Oplog.drop_node t.o_log node)

let activate t ~from ~server ~uid ~impl ~stores ~role ~members =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:server t.ep_activate
    { a_uid = uid; a_impl = impl; a_stores = stores; a_role = role; a_members = members }

let invoke t ~from ~server ~uid ~action ~serial ~last_acked ~write ~op =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:server t.ep_invoke
    {
      v_uid = uid;
      v_action = action;
      v_serial = serial;
      v_last_acked = last_acked;
      v_write = write;
      v_op = op;
    }

let commit_view t ~from ~server ~uid ~action ~last_acked =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:server t.ep_view
    { cw_uid = uid; cw_action = action; cw_last_acked = last_acked }

let role_of t ~from ~server ~uid =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:server t.ep_role uid

let passivate t ~from ~server ~uid =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:server t.ep_passivate uid

let quiescent t ~from ~server ~uid =
  Net.Rpc.call (Action.Atomic.rpc t.art) ~from ~dst:server t.ep_quiescent uid

let local_instances t ~node =
  Hashtbl.fold (fun _ inst acc -> inst.i_uid :: acc) (node_instances t node) []
  |> List.sort Store.Uid.compare

let instance_exists t ~node ~uid = find_instance t node uid <> None

let instance_residue t ~node =
  Hashtbl.fold
    (fun _ inst acc ->
      let holders =
        List.map fst (holders_snapshot inst) |> List.sort String.compare
      in
      let staged =
        Hashtbl.fold (fun a _ acc -> a :: acc) inst.i_staged []
        |> List.sort String.compare
      in
      if holders = [] && staged = [] then acc
      else (inst.i_uid, holders, staged) :: acc)
    (node_instances t node) []
  |> List.sort (fun (a, _, _) (b, _, _) -> Store.Uid.compare a b)

let instance_payload t ~node ~uid =
  Option.map (fun i -> i.i_committed) (find_instance t node uid)
