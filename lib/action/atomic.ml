type status = Running | Committed | Aborted

exception Abort of string

type decision_reply = D_commit | D_abort | D_active | D_unknown

(* A closure participant: its phase-2 legs. It takes no part in phase 1;
   whatever it must prepare, a before-commit hook prepares. *)
type participant = { pa_commit : unit -> unit; pa_abort : unit -> unit }

type runtime = {
  sh : Store_host.t;
  rh : Resource_host.t;
  mutable next_serial : int;
  (* Volatile per-coordinator-node set of running top-level actions, used
     to answer D_active to recovering participants. Cleared by node crash
     hooks: a crashed coordinator forgets its running actions, which is
     exactly the presumed-abort semantics. *)
  active : (string, Net.Network.node_id) Hashtbl.t; (* action -> coordinator *)
  ep_decision : (string, decision_reply) Net.Rpc.endpoint;
  rt_retry : Net.Retry.t;
}

let make_runtime sh rh =
  {
    sh;
    rh;
    next_serial = 0;
    active = Hashtbl.create 32;
    ep_decision = Net.Rpc.endpoint "action.decision";
    rt_retry = Net.Retry.create (Net.Rpc.network (Store_host.rpc sh));
  }

let store_host rt = rt.sh
let resource_host rt = rt.rh
let rpc rt = Store_host.rpc rt.sh
let network rt = Net.Rpc.network (rpc rt)
let engine rt = Net.Network.engine (network rt)
let retry rt = rt.rt_retry

(* A resource's phase-1 vote as the coordinator knows it: not in yet,
   or the outcome of the vote step ([Fail] carries the abort reason). *)
type vote = Unasked | Yes | Read_only | Fail of string

(* One enlisted resource. [en_vote] is [Yes] from the start when the
   resource voted in its reply to the action's last request there; a
   vote asked before phase 1 is recorded here too, and phase 1 asks only
   a resource still [Unasked]. *)
type enlisted = {
  en_node : Net.Network.node_id;
  en_kind : string;
  en_scope : string;
  mutable en_required : bool; (* must a phase-1 failure abort? *)
  mutable en_vote : vote;
}

type t = {
  rt : runtime;
  aid : Action_id.t;
  coord : Net.Network.node_id;
  parent : t option;
  mutable kids : int;
  mutable st : status;
  mutable enlisted : enlisted list; (* newest first *)
  mutable participants : participant list; (* newest first *)
  mutable pre_hooks : (unit -> (unit, string) result) list; (* newest first *)
  mutable in_last_hook : bool; (* the before-commit hook running is the last *)
  mutable undo_hooks : (unit -> unit) list; (* newest first *)
  mutable post_hooks : (unit -> unit) list; (* newest first *)
  mutable post_abort_hooks : (unit -> unit) list; (* newest first *)
  mutable deadline : float option; (* absolute virtual time *)
  (* Top-level only: the claims on the decision record — phase 2 until
     it has run, each leg it could not confirm, each pin. The record goes
     with the last claim ([unclaim]). *)
  mutable claims : int;
}

let id t = t.aid
let node t = t.coord
let status t = t.st
let runtime_of t = t.rt
let owner t = Action_id.to_string t.aid

let metrics t = Net.Network.metrics (network t.rt)

let tracef t fmt =
  Sim.Trace.recordf
    (Net.Network.trace (network t.rt))
    ~now:(Sim.Engine.now (engine t.rt))
    ~tag:"action" fmt

(* Hot call sites check this first: a skipped [tracef] still evaluates and
   wraps its arguments. *)
let tracing t = Sim.Trace.enabled (Net.Network.trace (network t.rt))

(* Install the coordinator decision service on a node the first time it
   coordinates. Consults the volatile active set, then the stable decision
   record; absence of both is presumed abort. *)
let ensure_decision_service rt coord =
  if not (Net.Rpc.serving (rpc rt) ~node:coord rt.ep_decision) then begin
    Net.Rpc.serve (rpc rt) ~node:coord rt.ep_decision (fun action ->
        match Hashtbl.find_opt rt.active action with
        | Some c when String.equal c coord -> D_active
        | Some _ | None -> (
            if Store_host.hosted rt.sh coord then
              match
                Store.Intent_log.decision_of (Store_host.log rt.sh coord) ~action
              with
              | Some Store.Intent_log.Commit -> D_commit
              | Some Store.Intent_log.Abort -> D_abort
              | None -> D_unknown
            else D_unknown));
    Net.Network.on_crash (network rt) coord (fun () ->
        (* The crashed coordinator forgets its running actions. *)
        let stale =
          Hashtbl.fold
            (fun action c acc -> if String.equal c coord then action :: acc else acc)
            rt.active []
        in
        List.iter (Hashtbl.remove rt.active) stale)
  end

let query_decision rt ~from ~coordinator ~action =
  Net.Rpc.call (rpc rt) ~from ~dst:coordinator rt.ep_decision action

let begin_top ?deadline rt ~node =
  ensure_decision_service rt node;
  let serial = rt.next_serial in
  rt.next_serial <- serial + 1;
  let aid = Action_id.top ~origin:node ~serial in
  Hashtbl.replace rt.active (Action_id.to_string aid) node;
  Sim.Metrics.incr (Net.Network.metrics (network rt)) "action.begin_top";
  (* [deadline] is a relative budget; store it absolute so nested actions
     started later inherit the remaining (not a fresh) budget. *)
  let deadline =
    Option.map (fun d -> Sim.Engine.now (engine rt) +. d) deadline
  in
  {
    rt;
    aid;
    coord = node;
    parent = None;
    kids = 0;
    st = Running;
    enlisted = [];
    participants = [];
    pre_hooks = [];
    in_last_hook = false;
    undo_hooks = [];
    post_hooks = [];
    post_abort_hooks = [];
    deadline;
    claims = 1;
  }

let begin_nested parent =
  if parent.st <> Running then invalid_arg "begin_nested: parent not running";
  parent.kids <- parent.kids + 1;
  let aid = Action_id.child parent.aid ~serial:parent.kids in
  Sim.Metrics.incr (metrics parent) "action.begin_nested";
  {
    rt = parent.rt;
    aid;
    coord = parent.coord;
    parent = Some parent;
    kids = 0;
    st = Running;
    enlisted = [];
    participants = [];
    pre_hooks = [];
    in_last_hook = false;
    undo_hooks = [];
    post_hooks = [];
    post_abort_hooks = [];
    deadline = parent.deadline;
    claims = 1;
  }

let begin_nested_top t =
  let a = begin_top t.rt ~node:t.coord in
  (* A nested-top serves the same user operation: it inherits the
     enclosing action's remaining deadline budget. *)
  a.deadline <- t.deadline;
  a

let deadline t = t.deadline

let find_enlisted enlisted ~node ~kind ~scope =
  List.find_opt
    (fun e -> e.en_node = node && e.en_kind = kind && e.en_scope = scope)
    enlisted

(* How abort reasons and traces name a resource: "gvd", "obj:acct#3". *)
let resource_label e =
  if e.en_scope = "" then e.en_kind else e.en_kind ^ ":" ^ e.en_scope

let enlist t ?(required = true) ?(voted = false) ~node ~kind ~scope () =
  if t.st <> Running then invalid_arg "enlist: action not running";
  if voted && t.parent <> None then invalid_arg "enlist: a nested action cannot hold a vote";
  let vote = if voted then Yes else Unasked in
  match find_enlisted t.enlisted ~node ~kind ~scope with
  | Some e ->
      if required then e.en_required <- true;
      e.en_vote <- vote
  | None ->
      t.enlisted <-
        { en_node = node; en_kind = kind; en_scope = scope; en_required = required;
          en_vote = vote } :: t.enlisted

let add_participant t ~commit ~abort =
  if t.st <> Running then invalid_arg "add_participant: action not running";
  t.participants <- { pa_commit = commit; pa_abort = abort } :: t.participants

let before_commit t f = t.pre_hooks <- f :: t.pre_hooks
let on_abort t f = t.undo_hooks <- f :: t.undo_hooks
let after_commit t f = t.post_hooks <- f :: t.post_hooks
let after_abort t f = t.post_abort_hooks <- f :: t.post_abort_hooks

let deactivate t =
  if Action_id.is_top t.aid then Hashtbl.remove t.rt.active (owner t)

(* The top-level action whose phase 2 a leg of [t] belongs to: a nested
   action's participants and resources pass to it on nested commit. *)
let rec top t = match t.parent with None -> t | Some p -> top p

(* Presumed abort: once phase 2 has run and every participant confirmed
   its leg, nobody can ask for the outcome any more, so the coordinator
   forgets its decision record. A leg that never lands, or a pin, keeps
   it for good. *)
let unclaim t =
  t.claims <- t.claims - 1;
  if t.claims = 0 then
    Store_host.forget_decision t.rt.sh ~node:t.coord ~action:(owner t)

let claim t =
  let t = top t in
  t.claims <- t.claims + 1

let pin_decision = claim

(* The one release rule for a decided outcome at any 2PC participant —
   an enlisted resource or a store. A lost release must not be forgotten:
   it would leave the participant's locks, stage or reservation held by a
   completed action forever, since nobody asks a live coordinator. Nor
   may it block the action's completion: a coordinator wedged behind a
   partition would stall its client. So one inline attempt, and on
   failure with the node still up, a reaper fiber retries in the
   background until the release lands or the node dies (its volatile
   state dies with it; a store settles its intent on recovery). No
   [~dst]: the loop checks the node's liveness itself, since a release
   to a down node is not retried at all. *)
let release_later t ~node ~op call =
  let net = network t.rt in
  let up () = Net.Network.is_up net node in
  (* The leg claims the decision record until the retry lands; one that
     stops on the node's death or runs out keeps it for the
     participant's recovery to ask. *)
  claim t;
  if up () then begin
    let action = owner t in
    Sim.Metrics.incr (metrics t) "action.release_deferred";
    Net.Network.spawn_on net t.coord
      ~name:(Printf.sprintf "%s.release:%s@%s" t.coord action node)
      (fun () ->
        let landed = ref false in
        match
          Net.Retry.run t.rt.rt_retry ~op
            (Net.Retry.policy ~attempts:60 ~base:2.0 ~factor:1.5
               ~max_delay:8.0 ())
            (fun () ->
              if not (up ()) then Ok ()
              else
                match call () with
                | Ok () ->
                    landed := true;
                    Ok ()
                | Error _ when not (up ()) -> Ok ()
                | Error e -> Error (Net.Rpc.error_to_string e))
        with
        | Ok () ->
            if !landed then unclaim (top t)
        | Error e ->
            tracef t "%s phase-2 loss at %s: %s" action node e;
            Sim.Metrics.incr (metrics t) "action.phase2_losses")
  end

let release t ~node ~op call =
  match call () with Ok () -> () | Error _ -> release_later t ~node ~op call

(* The one per-resource vote step: ask a resource whose vote is not in
   yet, and record the outcome on its enlistment. Phase 1 runs it for
   every such resource; the last before-commit hook may run it earlier,
   beside its last request ([vote_beside]). *)
let ask t en =
  match en.en_vote with
  | Yes | Read_only | Fail _ -> ()
  | Unasked ->
      let action = owner t and rnode = en.en_node in
      en.en_vote <-
        (match
           Resource_host.prepare t.rt.rh ~from:t.coord ~node:rnode
             ~kind:en.en_kind ~scope:en.en_scope ~action
         with
        | Ok Resource_host.Vote_yes -> Yes
        | Ok Vote_read_only -> Read_only
        | Ok Vote_no ->
            Fail (Printf.sprintf "resource %s@%s voted no" (resource_label en) rnode)
        | Error e ->
            (* A crashed replica of a group is masked (its volatile state
               is gone anyway); a required resource aborts. Either may
               have voted yes before the reply was lost, so both stay in
               phase 2. *)
            if en.en_required then
              Fail
                (Printf.sprintf "resource %s@%s unreachable: %s"
                   (resource_label en) rnode (Net.Rpc.error_to_string e))
            else begin
              tracef t "%s: tolerating lost replica %s@%s (%s)" action
                (resource_label en) rnode (Net.Rpc.error_to_string e);
              Yes
            end)

let unasked en = match en.en_vote with Unasked -> true | _ -> false
let read_only en = match en.en_vote with Read_only -> true | _ -> false

(* The vote-step tasks of [resources] still unasked, in order. *)
let rec vote_tasks t = function
  | [] -> []
  | en :: rest ->
      if unasked en then (fun () -> ask t en) :: vote_tasks t rest
      else vote_tasks t rest

let last_hook t = t.in_last_hook

let vote_beside t ~kind ~scope request =
  if t.parent <> None then invalid_arg "vote_beside: a nested action cannot vote";
  let result = ref None in
  ignore
    (Sim.Join.all (engine t.rt)
       ((fun () -> result := Some (request ()))
       :: vote_tasks t
            (List.filter
               (fun en -> en.en_kind = kind && en.en_scope = scope)
               (List.rev t.enlisted))));
  Option.get !result

(* Abort: undo newest-first (strictly serial — each undo may depend on
   the effects of later-installed ones), then tell every participant and
   every resource in one parallel fan-out. *)
let abort t ~reason =
  if t.st = Running then begin
    t.st <- Aborted;
    tracef t "%s abort: %s" (owner t) reason;
    Sim.Metrics.incr (metrics t) "action.aborts";
    List.iter (fun undo -> undo ()) t.undo_hooks;
    let action = owner t in
    (* A resource that voted read-only has ended the action itself. *)
    let resources =
      if List.exists read_only t.enlisted then
        List.filter (fun e -> not (read_only e)) t.enlisted
      else t.enlisted
    in
    ignore
      (Sim.Join.all (engine t.rt)
         (List.fold_right
            (fun p tasks -> (fun () -> p.pa_abort ()) :: tasks)
            (List.rev t.participants)
            (List.map
               (fun e () ->
                 release t ~node:e.en_node ~op:"action.release_abort" (fun () ->
                     Resource_host.abort t.rt.rh ~from:t.coord ~node:e.en_node
                       ~kind:e.en_kind ~scope:e.en_scope ~action))
               (List.rev resources))));
    deactivate t;
    List.iter (fun post -> post ()) (List.rev t.post_abort_hooks)
  end

let commit_nested t parent =
  (* Everything folds into the parent; nothing becomes durable. *)
  let child_owner = owner t in
  let parent_owner = owner parent in
  let enlisted = List.rev t.enlisted in
  (* Scatter the transfer RPCs (independent resources), then merge into
     the parent's enlistment serially — the merge mutates shared state. *)
  let transfers =
    Sim.Join.all (engine t.rt)
      (List.map
         (fun e () ->
           Resource_host.transfer t.rt.rh ~from:t.coord ~node:e.en_node
             ~kind:e.en_kind ~scope:e.en_scope ~action:child_owner ~parent:parent_owner)
         enlisted)
  in
  List.iter2
    (fun e transferred ->
      (match transferred with
      | Ok () -> ()
      | Error err ->
          (* The resource's node crashed: its volatile locks are gone;
             nothing to transfer. *)
          tracef t "%s transfer to %s lost at %s: %s" child_owner parent_owner
            e.en_node (Net.Rpc.error_to_string err));
      (* The child holds no vote, so its stage is a re-enlistment without
         one: it clears a vote the parent holds there. *)
      match find_enlisted parent.enlisted ~node:e.en_node ~kind:e.en_kind ~scope:e.en_scope with
      | Some p ->
          if e.en_required then p.en_required <- true;
          p.en_vote <- Unasked
      | None -> parent.enlisted <- e :: parent.enlisted)
    enlisted transfers;
  parent.participants <- t.participants @ parent.participants;
  parent.pre_hooks <- t.pre_hooks @ parent.pre_hooks;
  parent.undo_hooks <- t.undo_hooks @ parent.undo_hooks;
  parent.post_hooks <- t.post_hooks @ parent.post_hooks;
  parent.post_abort_hooks <- t.post_abort_hooks @ parent.post_abort_hooks;
  t.st <- Committed;
  Sim.Metrics.incr (metrics t) "action.nested_commits";
  Ok ()

let commit_top t =
  let action = owner t in
  (* Before-commit hooks: the paper's commit-time state copy and StA
     exclusion run here and may still abort the action. *)
  let rec run_pre = function
    | [] -> Ok ()
    | hook :: rest -> (
        t.in_last_hook <- rest = [];
        match hook () with
        | Ok () -> run_pre rest
        | Error reason -> Error reason)
  in
  match run_pre (List.rev t.pre_hooks) with
  | Error reason ->
      abort t ~reason;
      Error reason
  | Ok () -> (
      (* Phase 1, scattered: every resource whose vote is not in yet
         prepares at once. The first failed vote (in enlistment order,
         for deterministic abort reasons) decides; a loser that prepared
         anyway is cleaned up by the abort fan-out, which notifies every
         participant and every resource that did not vote read-only. *)
      t.in_last_hook <- false;
      let eng = engine t.rt in
      let participants = List.rev t.participants in
      let resources = List.rev t.enlisted in
      if tracing t then
        tracef t "%s phase 1: %d prepares" action
          (List.length (List.filter unasked resources));
      ignore (Sim.Join.all eng (vote_tasks t resources));
      (* A read-only voter ended the action itself: it gets no phase 2. *)
      let resources =
        if List.exists read_only resources then
          List.filter (fun en -> not (read_only en)) resources
        else resources
      in
      match
        List.find_map
          (fun en -> match en.en_vote with Fail reason -> Some reason | _ -> None)
          resources
      with
      | Some reason ->
          abort t ~reason;
          Error reason
      | None ->
          (* Decision point: durably record Commit on the coordinator
             (presumed abort records only commits). An action left with
             no participant and no resource for phase 2 records nothing:
             nobody can ever ask for its outcome. *)
          if participants <> [] || resources <> [] then
            Store_host.record_decision t.rt.sh ~node:t.coord ~action
              Store.Intent_log.Commit;
          deactivate t;
          t.st <- Committed;
          if tracing t then tracef t "%s commit" action;
          Sim.Metrics.incr (metrics t) "action.commits";
          (* Phase 2, one scatter: every participant's leg and every
             resource's release at once, so the stores' state copy and the
             server's lock release leave together. Best effort; a crashed
             participant resolves through recovery against our decision
             record. *)
          ignore
            (Sim.Join.all eng
               (List.fold_right
                  (fun p tasks -> (fun () -> p.pa_commit ()) :: tasks)
                  participants
                  (List.map
                     (fun e () ->
                       release t ~node:e.en_node ~op:"action.release_commit"
                         (fun () ->
                           Resource_host.commit t.rt.rh ~from:t.coord
                             ~node:e.en_node ~kind:e.en_kind ~scope:e.en_scope
                             ~action))
                     resources)));
          unclaim t;
          List.iter (fun post -> post ()) (List.rev t.post_hooks);
          Ok ())

let commit t =
  if t.st <> Running then Error "action not running"
  else
    match t.parent with
    | Some parent when parent.st = Running -> commit_nested t parent
    | Some _ -> Error "parent no longer running"
    | None -> commit_top t

let run_body t body =
  match body t with
  | v -> (
      match commit t with Ok () -> Ok v | Error reason -> Error reason)
  | exception Abort reason ->
      abort t ~reason;
      Error reason
  | exception e ->
      abort t ~reason:(Printexc.to_string e);
      raise e

let atomically ?deadline rt ~node body =
  run_body (begin_top ?deadline rt ~node) body
let atomically_nested parent body = run_body (begin_nested parent) body
let atomically_nested_top parent body = run_body (begin_nested_top parent) body
