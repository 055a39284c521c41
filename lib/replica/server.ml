type role = Plain | Coordinator | Cohort

type activate_result = Activated of Store.Version.t | Activation_failed of string

type commit_view = {
  cv_payload : string;
  cv_version : Store.Version.t;
  cv_dirty : bool;
  cv_contended : bool;
}

type invoke_result =
  | Reply of string * commit_view
  | Locked
  | Not_active
  | Not_coordinator
  | State_lost
  | Settled

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
  mr_incarnation : int;
  mr_result : invoke_result;
}

type instance = {
  i_uid : Store.Uid.t;
  i_impl : Object_impl.t;
  i_host : host;
  mutable i_committed : string;
  mutable i_version : Store.Version.t;
  (* The actions in progress here and their replies: a few entries each,
     so association lists, kept in no particular order. *)
  mutable i_staged : (string * string) list; (* action -> staged payload *)
  mutable i_applied : (string * string) list; (* "action#serial" -> reply *)
  mutable i_role : role;
  mutable i_members : Net.Network.node_id list;
  (* Lock holders as of the last checkpoint; installed when this replica
     becomes coordinator. *)
  mutable i_ckpt_holders : (string * Lockmgr.Mode.t) list;
  mutable i_ckpt_stamp : float; (* newest checkpoint applied *)
  (* Recently finished (committed, aborted or transferred-to-parent)
     actions, bounded: a ring of distinct action ids, grown up to its cap
     and then overwritten oldest first. An invocation of a settled action
     must be refused: it is a straggler — a duplicated multicast
     delivery, one delayed past its action's end and the instance's
     passivation, or a fiber that sat parked on the instance lock while
     its action timed out and aborted — and executing it would stage
     payload and take locks that no completion will ever clean up. *)
  mutable i_settled : string array;
  mutable i_settled_n : int; (* distinct actions ever settled here *)
}

(* A node equipped to host servers. Its live instances are keyed by uid
   string, which is also each one's resource scope and its key in the
   node's one lock table. A crash empties the instance table and replaces
   the lock table. *)
and host = {
  h_node : Net.Network.node_id;
  h_instances : (string, instance) Hashtbl.t;
  (* The tombstones (ring and count) a passivated instance left, by
     scope: a straggler can outlive the instance it was cast to, and the
     object's next activation here takes them over. A crash empties it
     with the instances. *)
  mutable h_passivated : (string * (string array * int)) list;
  mutable h_locks : Lockmgr.Manager.t;
  h_term : Action.Termination.t; (* one termination scope per instance *)
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
  k_applied : (string * string) list;
  k_holders : (string * Lockmgr.Mode.t) list;
  k_members : Net.Network.node_id list;
  k_coordinator : Net.Network.node_id;
}

type runtime = {
  art : Action.Atomic.runtime;
  impls : (string, Object_impl.t) Hashtbl.t;
  hosts : (Net.Network.node_id, host) Hashtbl.t;
  mc : Net.Multicast.t;
  ep_activate : (activate_req, activate_result) Net.Rpc.endpoint;
  ep_invoke : (invoke_req, invoke_result) Net.Rpc.endpoint;
  ep_view : (view_req, commit_view option) Net.Rpc.endpoint;
  ep_role : (Store.Uid.t, role option) Net.Rpc.endpoint;
  ep_passivate : (Store.Uid.t, bool) Net.Rpc.endpoint;
  ep_checkpoint : (checkpoint_msg, unit) Net.Rpc.endpoint;
  ep_reply : (mc_reply, unit) Net.Rpc.endpoint;
  ch_invoke : mc_invoke Net.Multicast.channel;
  mutable eager_checkpoints : bool;
  g_commit : Groupcommit.t;
      (* the group-commit plane commits on this runtime batch through *)
}

let resource_kind = "obj"

let create art impls =
  {
    art;
    impls;
    hosts = Hashtbl.create 16;
    mc = Net.Multicast.create (Action.Atomic.rpc art);
    ep_activate = Net.Rpc.endpoint "server.activate";
    ep_invoke = Net.Rpc.endpoint "server.invoke";
    ep_view = Net.Rpc.endpoint "server.commit_view";
    ep_role = Net.Rpc.endpoint "server.role";
    ep_passivate = Net.Rpc.endpoint "server.passivate";
    ep_checkpoint = Net.Rpc.endpoint "server.checkpoint";
    ep_reply = Net.Rpc.endpoint "server.mc_reply";
    ch_invoke = Net.Multicast.channel "server.invoke.mc";
    eager_checkpoints = true;
    g_commit =
      Groupcommit.create
        ~engine:(Action.Atomic.engine art)
        ~store_host:(Action.Atomic.store_host art)
        ~metrics:(Net.Network.metrics (Action.Atomic.network art));
  }

let atomic_runtime t = t.art
let set_eager_checkpoints t flag = t.eager_checkpoints <- flag
let groupcommit t = t.g_commit
let invoke_channel t = t.ch_invoke
let reply_endpoint t = t.ep_reply
let mc t = t.mc

let net t = Action.Atomic.network t.art
let eng t = Action.Atomic.engine t.art

let tracef t fmt =
  Sim.Trace.recordf (Net.Network.trace (net t)) ~now:(Sim.Engine.now (eng t))
    ~tag:"server" fmt

(* Hot call sites check this first: a skipped [tracef] still evaluates and
   wraps its arguments. *)
let tracing t = Sim.Trace.enabled (Net.Network.trace (net t))

let metrics t = Net.Network.metrics (net t)

let find_instance h uid = Hashtbl.find_opt h.h_instances (Store.Uid.to_string uid)
let scope inst = Store.Uid.to_string inst.i_uid

let applied_key action serial = action ^ "#" ^ string_of_int serial

(* Tombstone a finished action on the instance (the [settled_cap] newest
   distinct ones). The bound only forgets ancient history: a straggler
   invocation arrives within a lock timeout of its action's end, not
   dozens of actions later. *)
let settled_cap = 64

let tombstoned ring n action =
  let rec scan i = i >= 0 && (String.equal ring.(i) action || scan (i - 1)) in
  scan (min n settled_cap - 1)

let is_settled inst action = tombstoned inst.i_settled inst.i_settled_n action

(* A ring of [n] tombstones with room for one more at slot
   [n mod settled_cap]. The ring doubles from 4 slots while it fills, so
   an instance that sees few actions holds few slots; once full, that slot
   holds the oldest. *)
let room ring n =
  if n < settled_cap && n = Array.length ring then begin
    let grown = Array.make (min settled_cap (max 4 (2 * n))) "" in
    Array.blit ring 0 grown 0 n;
    grown
  end
  else ring

let settle_action inst action =
  if not (is_settled inst action) then begin
    let n = inst.i_settled_n in
    let ring = room inst.i_settled n in
    ring.(n mod settled_cap) <- action;
    inst.i_settled <- ring;
    inst.i_settled_n <- n + 1
  end

(* The per-action lists, keyed by strings. [remove] shares the tail after
   the removed entry and returns the list itself if the key is absent. *)
module Alist = struct
  let rec find key = function
    | [] -> None
    | (k, v) :: rest -> if String.equal k key then Some v else find key rest

  let rec mem key = function
    | [] -> false
    | (k, _) :: rest -> String.equal k key || mem key rest

  let rec remove key = function
    | [] -> []
    | ((k, _) as kv) :: rest as l ->
        if String.equal k key then rest
        else
          let rest' = remove key rest in
          if rest' == rest then l else kv :: rest'

  let replace key v l = (key, v) :: remove key l
end

(* A dedup key of [action] ("action#serial") or of one of its descendants
   (hierarchical ids: "action.…"), tested in place. *)
let applied_by action key =
  let n = String.length action in
  String.length key > n
  && (key.[n] = '#' || key.[n] = '.')
  &&
  let rec same i = i = n || (key.[i] = action.[i] && same (i + 1)) in
  same 0

(* Remove dedup entries belonging to [action] or any of its descendants;
   a list with none of them is returned as it is. *)
let rec drop_applied action = function
  | [] -> []
  | ((key, _) as kv) :: rest as l ->
      let rest' = drop_applied action rest in
      if applied_by action key then rest'
      else if rest' == rest then l
      else kv :: rest'

let clean_applied inst action =
  inst.i_applied <- drop_applied action inst.i_applied

let holders_snapshot inst =
  (* All (owner, mode) pairs on the instance's key. *)
  Lockmgr.Manager.holders inst.i_host.h_locks (scope inst)

(* Synchronously checkpoint the coordinator's instance to its cohorts. *)
let checkpoint_to_cohorts t inst =
  if inst.i_role = Coordinator then begin
    let node = inst.i_host.h_node in
    let msg =
      {
        k_stamp = Sim.Engine.now (eng t);
        k_uid = inst.i_uid;
        k_impl = inst.i_impl.Object_impl.impl_name;
        k_committed = inst.i_committed;
        k_version = inst.i_version;
        k_staged = inst.i_staged;
        k_applied = inst.i_applied;
        k_holders = holders_snapshot inst;
        k_members = inst.i_members;
        k_coordinator = node;
      }
    in
    (* Checkpoint distribution fans out to every cohort at once: the
       coordinator pays one round-trip regardless of group size. *)
    let cohorts =
      List.filter (fun c -> not (String.equal c node)) inst.i_members
    in
    Net.Rpc.call_all (Action.Atomic.rpc t.art) ~from:node
      t.ep_checkpoint
      (List.map (fun cohort -> (cohort, msg)) cohorts)
    |> List.iter (function
         | _, Ok () -> Sim.Metrics.incr (metrics t) "server.checkpoints"
         | _, Error _ ->
             Sim.Metrics.incr (metrics t) "server.checkpoint_failures")
  end

(* Per key: the same action may hold or wait on another instance's key
   in the node's table, and that lock ends with that instance's phase 2. *)
let release inst action =
  Lockmgr.Manager.release inst.i_host.h_locks ~owner:action (scope inst);
  (* Also prune the action from the checkpointed holder snapshot: a
     cohort promoted after this action ended must not resurrect its
     locks (they would never be released — a phantom wedge). *)
  inst.i_ckpt_holders <-
    List.filter (fun (o, _) -> not (String.equal o action)) inst.i_ckpt_holders

(* The action is over at the instance: forget its replies, release its
   locks, tombstone it and stop watching its coordinator. *)
let end_action inst action =
  clean_applied inst action;
  release inst action;
  settle_action inst action;
  Action.Termination.forget inst.i_host.h_term ~scope:(scope inst) ~action

(* The one resource manager of a host node: each request finds the live
   instance its scope names. One passivated or lost in a crash is not
   there, and the action holds nothing at the node but perhaps a crash
   watch, which would outlive the instance: a miss ends the action at the
   node, votes read-only, and passes no watch to a parent. It also
   tombstones the action among a passivated instance's tombstones, so
   that the object's next activation refuses the action's straggler. A
   crashed instance's stale stage is never installed, since only a live
   instance is found. *)
let make_manager t h =
  let find scope action =
    match Hashtbl.find_opt h.h_instances scope with
    | Some _ as live -> live
    | None ->
        Lockmgr.Manager.release h.h_locks ~owner:action scope;
        Action.Termination.forget h.h_term ~scope ~action;
        (match Alist.find scope h.h_passivated with
        | Some (ring, n) when not (tombstoned ring n action) ->
            let ring = room ring n in
            ring.(n mod settled_cap) <- action;
            h.h_passivated <- Alist.replace scope (ring, n + 1) h.h_passivated
        | Some _ | None -> ());
        None
  in
  {
    Action.Resource_host.m_prepare =
      (fun ~scope ~action ->
        match find scope action with
        | Some inst when Alist.mem action inst.i_staged ->
            Action.Termination.vote h.h_term ~scope ~action;
            Vote_yes
        | Some inst ->
            (* Nothing staged: the action ends here and gets no phase 2.
               No checkpoint either; the next one drops its holder entry. *)
            end_action inst action;
            Vote_read_only
        | None -> Vote_read_only);
    m_commit =
      (fun ~scope ~action ->
        match find scope action with
        | None -> ()
        | Some inst ->
            (match Alist.find action inst.i_staged with
            | Some payload ->
                inst.i_committed <- payload;
                inst.i_version <- Store.Version.next inst.i_version ~committed_by:action;
                inst.i_staged <- Alist.remove action inst.i_staged;
                if tracing t then
                  tracef t "%s: %s instance-commit %a := %S %a" h.h_node action
                    Store.Uid.pp inst.i_uid payload Store.Version.pp inst.i_version
            | None ->
                if tracing t then
                  tracef t "%s: %s instance-commit %a: nothing staged" h.h_node
                    action Store.Uid.pp inst.i_uid);
            end_action inst action;
            checkpoint_to_cohorts t inst);
    m_abort =
      (fun ~scope ~action ->
        match find scope action with
        | None -> ()
        | Some inst ->
            inst.i_staged <- Alist.remove action inst.i_staged;
            end_action inst action;
            checkpoint_to_cohorts t inst);
    m_transfer =
      (fun ~scope ~action ~parent ->
        match find scope action with
        | None -> ()
        | Some inst ->
            (match Alist.find action inst.i_staged with
            | Some payload ->
                inst.i_staged <-
                  Alist.replace parent payload (Alist.remove action inst.i_staged)
            | None -> ());
            Lockmgr.Manager.transfer h.h_locks ~from_owner:action ~to_owner:parent scope;
            (* The child is finished as an owner here: a straggler
               invocation under the child's id would stage state its
               (gone) completion can never move to the parent. *)
            settle_action inst action;
            inst.i_ckpt_holders <-
              List.map
                (fun (o, m) -> if String.equal o action then (parent, m) else (o, m))
                inst.i_ckpt_holders;
            Action.Termination.transfer h.h_term ~scope ~action ~parent;
            checkpoint_to_cohorts t inst);
  }

(* A new instance, live on its host from now on, with the tombstones its
   passivated predecessor there left. *)
let make_instance h impl uid ~committed ~version role members =
  let inst =
    {
      i_uid = uid;
      i_impl = impl;
      i_host = h;
      i_committed = committed;
      i_version = version;
      i_staged = [];
      i_applied = [];
      i_role = role;
      i_members = members;
      i_ckpt_holders = [];
      i_ckpt_stamp = neg_infinity;
      i_settled = [||];
      i_settled_n = 0;
    }
  in
  let key = scope inst in
  (match Alist.find key h.h_passivated with
  | Some (ring, n) ->
      h.h_passivated <- Alist.remove key h.h_passivated;
      inst.i_settled <- ring;
      inst.i_settled_n <- n
  | None -> ());
  Hashtbl.replace h.h_instances key inst;
  inst

(* What an invocation by [action] starts from: the nearest stage among the
   action and its ancestors, else the committed state. A nested action
   sees its ancestors' uncommitted writes, and its commit hands its own
   stage to its parent ([m_transfer]). An action's ancestors are the
   [.]-separated prefixes of its id, as the lock manager reads them. *)
let rec base_payload inst action =
  match Alist.find action inst.i_staged with
  | Some staged -> staged
  | None -> (
      match String.rindex_opt action '.' with
      | Some i -> base_payload inst (String.sub action 0 i)
      | None -> inst.i_committed)

(* The state as it will be if [action] commits: its own stage at the next
   version, else the committed state, clean; and whether another request
   waits on the instance's lock now. *)
let view_of inst action =
  let cv_contended = Lockmgr.Manager.waiting inst.i_host.h_locks (scope inst) > 0 in
  match Alist.find action inst.i_staged with
  | Some staged ->
      let cv_version = Store.Version.next inst.i_version ~committed_by:action in
      { cv_payload = staged; cv_version; cv_dirty = true; cv_contended }
  | None ->
      {
        cv_payload = inst.i_committed;
        cv_version = inst.i_version;
        cv_dirty = false;
        cv_contended;
      }

(* Core invocation logic, shared by the RPC and multicast paths. Runs in a
   fiber on the instance's node. Every reply carries the action's commit
   view as of the reply, so a commit right after it need not ask again. *)
let do_invoke t h { v_uid; v_action; v_serial; v_last_acked; v_write; v_op } =
  match find_instance h v_uid with
  | None -> Not_active
  | Some inst -> (
      if inst.i_role = Cohort then Not_coordinator
      else if
        (* The client saw an earlier invocation of this action answered,
           but we have no trace of it: a failover lost the staged state
           (checkpoints were lazy). Executing from the committed state
           would silently drop the earlier updates — refuse instead. *)
        v_last_acked > 0
        && not (Alist.mem (applied_key v_action v_last_acked) inst.i_applied)
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
        match Alist.find key inst.i_applied with
        | Some cached ->
            (* exactly-once across retries *)
            Reply (cached, view_of inst v_action)
        | None -> (
            Action.Termination.touch h.h_term ~scope:(scope inst) ~action:v_action;
            let mode = if v_write then Lockmgr.Mode.Write else Lockmgr.Mode.Read in
            match
              Lockmgr.Manager.acquire h.h_locks ~owner:v_action ~mode (scope inst)
            with
            | Error `Timeout ->
                (* A holder whose coordinator is partitioned away may
                   never release: termination settles it. *)
                Action.Termination.refused h.h_term ~scope:(scope inst)
                  (List.map fst (holders_snapshot inst));
                Sim.Metrics.incr (metrics t) "server.lock_refusals";
                Locked
            | Ok () when is_settled inst v_action ->
                (* The action finished (timeout abort, usually) while this
                   fiber sat parked on the instance lock: executing now
                   would stage payload and hold locks for an owner whose
                   completion already ran. *)
                Lockmgr.Manager.release h.h_locks ~owner:v_action (scope inst);
                Sim.Metrics.incr (metrics t) "server.settled_refusals";
                tracef t "%s: refused settled action %s on %a" h.h_node v_action
                  Store.Uid.pp v_uid;
                Settled
            | Ok () ->
                let payload = base_payload inst v_action in
                let payload', reply = inst.i_impl.Object_impl.apply payload v_op in
                if v_write then begin
                  inst.i_staged <- Alist.replace v_action payload' inst.i_staged;
                  if tracing t then
                    tracef t "%s: %s writes %a: %S -> %S (base %a)" h.h_node
                      v_action Store.Uid.pp v_uid payload payload'
                      Store.Version.pp inst.i_version
                end;
                inst.i_applied <- Alist.replace key reply inst.i_applied;
                Sim.Metrics.incr (metrics t) "server.invocations";
                if t.eager_checkpoints then checkpoint_to_cohorts t inst;
                Reply (reply, view_of inst v_action)))

let apply_checkpoint t h msg =
  let fresh_enough inst = msg.k_stamp > inst.i_ckpt_stamp in
  let inst =
    match find_instance h msg.k_uid with
    | Some inst -> inst
    | None ->
        make_instance h (Object_impl.find t.impls msg.k_impl) msg.k_uid
          ~committed:msg.k_committed ~version:msg.k_version Cohort msg.k_members
  in
  if fresh_enough inst then begin
    inst.i_ckpt_stamp <- msg.k_stamp;
    inst.i_committed <- msg.k_committed;
    inst.i_version <- msg.k_version;
    inst.i_staged <- msg.k_staged;
    inst.i_applied <- msg.k_applied;
    inst.i_ckpt_holders <- msg.k_holders;
    inst.i_members <- msg.k_members
  end
  else Sim.Metrics.incr (metrics t) "server.checkpoints_stale_dropped"

(* A replica assuming the coordinator role must materialise the lock
   table of the last checkpoint: in-progress actions coordinated at the
   previous coordinator hold locks there, and a new writer arriving here
   must wait for them exactly as it would have at the original node. An
   action that already ended here is skipped: a read-only vote pushes no
   checkpoint, so a checkpoint sent before it can still name its locks. *)
let assume_coordinator (_ : runtime) inst =
  if inst.i_role <> Coordinator then begin
    inst.i_role <- Coordinator;
    List.iter
      (fun (owner, mode) ->
        if not (is_settled inst owner) then
          ignore
            (Lockmgr.Manager.try_acquire inst.i_host.h_locks ~owner ~mode
               (scope inst)))
      inst.i_ckpt_holders
  end

(* Cohort self-promotion: when the failure detector reports the
   coordinator's crash, the live member with the smallest node id takes
   over, installing the checkpointed lock table; other survivors re-watch
   whoever was elected. *)
let rec arrange_promotion_chain t h uid coordinator =
  let node = h.h_node in
  ignore
    (Net.Network.watch_crash (net t) coordinator (fun () ->
         Net.Network.spawn_on (net t) node ~name:(node ^ ".promote") (fun () ->
             match find_instance h uid with
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
                 match List.sort String.compare live with
                 | e :: _ when String.equal e node ->
                     tracef t "%s promoted to coordinator of %a (holders: %s)"
                       node Store.Uid.pp uid
                       (String.concat ","
                          (List.map fst inst.i_ckpt_holders));
                     assume_coordinator t inst;
                     Sim.Metrics.incr (metrics t) "server.promotions"
                 | e :: _ ->
                     (* Someone else took over: watch them in turn. *)
                     arrange_promotion_chain t h uid e
                 | [] -> ()))))

let do_activate t h { a_uid; a_impl; a_stores; a_role; a_members } =
  let node = h.h_node in
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
           arrange_promotion_chain t h a_uid coordinator
       | _ -> ());
    Activated inst.i_version
  in
  match find_instance h a_uid with
  | Some inst -> refresh inst
  | None -> (
      match Hashtbl.find_opt t.impls a_impl with
      | None -> Activation_failed ("unknown implementation " ^ a_impl)
      | Some impl -> (
          let sh = Action.Atomic.store_host t.art in
          (* The activation probe walks [StA] in order until one store
             yields a state. *)
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
                None a_stores
          in
          match (state, find_instance h a_uid) with
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
              let inst =
                make_instance h impl a_uid ~committed:state.Store.Object_state.payload
                  ~version:state.Store.Object_state.version a_role a_members
              in
              if a_role = Cohort then begin
                match a_members with
                | coordinator :: _ -> arrange_promotion_chain t h a_uid coordinator
                | [] -> ()
              end;
              Sim.Metrics.incr (metrics t) "server.activations";
              tracef t "activated %a on %s (%s)" Store.Uid.pp a_uid node
                (match a_role with
                | Plain -> "plain"
                | Coordinator -> "coordinator"
                | Cohort -> "cohort");
              Activated inst.i_version))

let do_view t h { cw_uid; cw_action; cw_last_acked } =
  match find_instance h cw_uid with
  | None -> None
  | Some inst when
      cw_last_acked > 0
      && not (Alist.mem (applied_key cw_action cw_last_acked) inst.i_applied)
    ->
      (* Behind the client: the invocation stream has not fully reached
         this replica (multicast in flight, or a lazily-checkpointed
         cohort). *)
      Sim.Metrics.incr (metrics t) "server.view_behind";
      None
  | Some inst -> Some (view_of inst cw_action)

let instance_quiescent inst =
  inst.i_staged = [] && holders_snapshot inst = []

(* How termination ends an action at one of [node]'s instances. *)
let termination_ops t node instances =
  let rh = Action.Atomic.resource_host t.art in
  let find scope = Hashtbl.find_opt instances scope in
  {
    Action.Termination.holds =
      (fun ~scope ~action ->
        match find scope with
        | Some inst ->
            List.mem_assoc action (holders_snapshot inst)
            || Alist.mem action inst.i_staged
        | None -> false);
    evidence =
      (fun ~scope ~action:_ ->
        match find scope with Some inst -> [ inst.i_uid ] | None -> []);
    complete =
      (fun ~scope ~action outcome ->
        match find scope with
        | None -> ()
        | Some inst -> (
            let kind = resource_kind in
            let local f = ignore (f rh ~from:node ~node ~kind ~scope ~action) in
            match outcome with
            | Action.Termination.Orphan_abort ->
                Sim.Metrics.incr (metrics t) "server.orphan_aborts";
                tracef t "%s: aborting orphaned action %s on %a" node action
                  Store.Uid.pp inst.i_uid;
                Action.Resource_host.abort_here rh ~node ~kind ~scope ~action
            | Commit -> local Action.Resource_host.commit
            | Abort -> local Action.Resource_host.abort
            | Presumed_abort ->
                local Action.Resource_host.abort;
                (* The action may in fact have committed, unreachably:
                   this volatile copy is suspect, so passivate it and let
                   the next activation rebuild from the stores. *)
                ignore
                  (Net.Rpc.call (Action.Atomic.rpc t.art) ~from:node ~dst:node
                     t.ep_passivate inst.i_uid)));
  }

let install_host t node =
  let rpc = Action.Atomic.rpc t.art in
  let instances = Hashtbl.create 8 in
  let h =
    {
      h_node = node;
      h_instances = instances;
      h_passivated = [];
      h_locks = Lockmgr.Manager.create ~metrics:(metrics t) (eng t);
      h_term =
        Action.Termination.create t.art ~node (termination_ops t node instances);
    }
  in
  Hashtbl.replace t.hosts node h;
  Net.Rpc.serve rpc ~node t.ep_activate (fun req -> do_activate t h req);
  Net.Rpc.serve rpc ~node t.ep_invoke (fun req -> do_invoke t h req);
  Net.Rpc.serve rpc ~node t.ep_view (fun req -> do_view t h req);
  Net.Rpc.serve rpc ~node t.ep_role (fun uid ->
      Option.map (fun i -> i.i_role) (find_instance h uid));
  Net.Rpc.serve rpc ~node t.ep_passivate (fun uid ->
      match find_instance h uid with
      | None -> true
      | Some inst ->
          if instance_quiescent inst then begin
            let key = Store.Uid.to_string uid in
            Hashtbl.remove instances key;
            if inst.i_settled_n > 0 then
              h.h_passivated <-
                Alist.replace key (inst.i_settled, inst.i_settled_n) h.h_passivated;
            tracef t "passivated %a on %s" Store.Uid.pp uid node;
            true
          end
          else false);
  Net.Rpc.serve rpc ~node t.ep_checkpoint (fun msg -> apply_checkpoint t h msg);
  Net.Multicast.listen t.mc ~node t.ch_invoke (fun ~seq:_ mi ->
      let result =
        do_invoke t h
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
        {
          mr_req = mi.mi_req;
          mr_replica = node;
          mr_incarnation = Net.Network.incarnation (net t) node;
          mr_result = result;
        });
  Action.Resource_host.register (Action.Atomic.resource_host t.art) ~node
    ~kind:resource_kind (make_manager t h);
  (* Instances are volatile: destroy them on crash — a recovered node
     re-activates from the stores — and with them the crash watches of
     what they held. *)
  Net.Network.on_crash (net t) node (fun () ->
      Hashtbl.reset instances;
      Action.Termination.forget_all h.h_term;
      h.h_passivated <- [];
      h.h_locks <- Lockmgr.Manager.create ~metrics:(metrics t) (eng t))

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

let instances t node = (Hashtbl.find t.hosts node).h_instances

let local_instances t ~node =
  Hashtbl.fold (fun _ inst acc -> inst.i_uid :: acc) (instances t node) []
  |> List.sort Store.Uid.compare

let instance_exists t ~node ~uid = Hashtbl.mem (instances t node) (Store.Uid.to_string uid)

let instance_residue t ~node =
  Hashtbl.fold
    (fun _ inst acc ->
      let holders =
        List.map fst (holders_snapshot inst) |> List.sort String.compare
      in
      let staged = List.map fst inst.i_staged |> List.sort String.compare in
      if holders = [] && staged = [] then acc
      else (inst.i_uid, holders, staged) :: acc)
    (instances t node) []
  |> List.sort (fun (a, _, _) (b, _, _) -> Store.Uid.compare a b)

let instance_payload t ~node ~uid =
  Option.map
    (fun i -> i.i_committed)
    (Hashtbl.find_opt (instances t node) (Store.Uid.to_string uid))
