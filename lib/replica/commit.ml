(* Validated attempts before a commit gives up on a churning [St]. *)
let max_attempts = 3

let attach rt act group ~snapshot_stores ~validate ~exclude =
  let srv = Group.server_runtime rt in
  let art = Server.atomic_runtime srv in
  let sh = Action.Atomic.store_host art in
  let eng = Action.Atomic.engine art in
  let metrics = Net.Network.metrics (Action.Atomic.network art) in
  let gc = Server.groupcommit srv in
  (* Group-commit plane: the action's first write invocation through the
     group announces this commit as approaching, so open batches hold
     their window for it while the action runs to its commit. The token
     settles at the prepare, at any earlier exit of the hook (commit-view
     error, read-optimised commit, an exception unwinding it) or when the
     action aborts. A commit that must copy without one takes it then. *)
  let tok = ref None in
  let token () =
    match !tok with
    | Some t -> t
    | None ->
        let t = Groupcommit.enter gc ~client:(Action.Atomic.node act) in
        tok := Some t;
        t
  in
  let settle () = Option.iter (Groupcommit.leave gc) !tok in
  group.Group.g_on_write <-
    (fun () ->
      (* An action that has ended already will never settle a new token. *)
      if Action.Atomic.status act = Action.Atomic.Running then ignore (token ()));
  Action.Atomic.on_abort act settle;
  Action.Atomic.before_commit act (fun () ->
      (* A nested action's hook runs at its top-level ancestor's commit,
         after the nested commit handed its stage up: the copy-back acts
         for that ancestor. *)
      let act = Action.Atomic.top act in
      let body () =
      match Group.commit_view rt group ~act with
      | Error why -> Error ("commit view: " ^ why)
      | Ok view when not view.Server.cv_dirty ->
          (* Read optimisation: no state change, no copy, no exclusion. *)
          Sim.Metrics.incr metrics "commit.read_optimised";
          Ok ()
      | Ok view ->
          let tok = token () in
          let client = Action.Atomic.node act in
          let action = Action.Atomic.owner act in
          let uid = group.Group.g_uid in
          let version = view.Server.cv_version in
          let full_state =
            Store.Object_state.make ~payload:view.Server.cv_payload ~version
          in
          (* The action's deadline rides on the phase-1 prepares issued
             for this commit alone (see {!Groupcommit.prepare}) so
             shedding servers can refuse votes this commit already gave
             up on. Phase 2 carries no deadline: a decided outcome must
             reach the stores even when the initiator stopped waiting. *)
          let deadline_at = Action.Atomic.deadline act in
          (* Another action waits on this object's lock, which this one
             holds until its commit ends: its group-commit batches close
             at once rather than hold the waiter for batchmates. *)
          let contended = view.Server.cv_contended in
          let full_bytes = Store.Object_state.bytes full_state in
          let writes = [ (uid, full_state) ] in
          (* Every store that may hold this action's prepare: it voted yes
             in some attempt, or its latest prepare timed out and may have
             staged all the same. Nothing is withdrawn between attempts: a
             retry's prepare re-stages the same intent, so no abort can
             overtake a later prepare. *)
          let reached = ref [] in
          let reach store how =
            reached := (store, how) :: List.remove_assoc store !reached
          in
          (* Stores that may hold this action's prepare without having
             answered: the prepare ended [Crashed] (the intent log
             survives the crash), or a peel-out discarded the store's
             batch yes vote and the solo retry did not hear from it. One
             that ends up unreached gets no phase-2 leg and asks the
             coordinator on recovery, so it pins the decision record. *)
          let unheard = ref [] in
          (* The validated attempt's yes voters. *)
          let sealed = ref None in
          (* The phase-2 token, taken when the commit first joins phase 1:
             phase-2 batches then hold for it while it prepares and
             validates, since nothing may suspend between its seal and
             its phase 2. *)
          let p2 = lazy (Groupcommit.expect_phase2 gc ~client) in
          let leave_p2 () = if Lazy.is_val p2 then Groupcommit.leave gc (Lazy.force p2) in
          let release_abort store =
            Action.Atomic.release_later act ~node:store ~op:"action.release_abort"
              (fun () -> Action.Store_host.abort sh ~from:client ~store ~action)
          in
          (* Abort every reached store but those of [keep] by Atomic's
             release rule: one inline round to those that answered; a
             store whose prepare timed out goes straight to the
             background, since an inline round to a cut store would stall
             the client. *)
          let abort_reached ~keep =
            let answered, timed_out =
              List.partition_map
                (fun (store, how) ->
                  if how = `Answered then Left store else Right store)
                (List.filter
                   (fun (s, _) -> not (List.mem_assoc s keep))
                   (List.rev !reached))
            in
            if answered <> [] then
              List.iter
                (fun (store, r) -> if Result.is_error r then release_abort store)
                (Action.Store_host.abort_all sh ~from:client ~stores:answered
                   action);
            List.iter release_abort timed_out
          in
          (* One phase-2 participant for the store set, registered before
             the first prepare so that every exit ends every reached store.
             Phase 2 commits the validated attempt's yes voters; every
             other reached store gets the abort. A failed leg to a store
             that is up is delivered again in the background. *)
          Action.Atomic.add_participant act
            ~commit:(fun () ->
              match !sealed with
              | None -> leave_p2 ()
              | Some ok ->
                  if
                    List.exists
                      (fun s -> not (List.mem_assoc s !reached))
                      !unheard
                  then Action.Atomic.pin_decision act;
                  List.iter
                    (fun (store, r) ->
                      if Result.is_error r then
                        Action.Atomic.release_later act ~node:store
                          ~op:"action.release_commit" (fun () ->
                            Action.Store_host.commit sh ~from:client ~store ~action))
                    (Groupcommit.commit gc (Lazy.force p2) ~contended ~client
                       ~action ok);
                  abort_reached ~keep:ok)
            ~abort:(fun () ->
              leave_p2 ();
              abort_reached ~keep:[]);
          (* One copy-back attempt against a committed [St] and its
             revision, taken from [snapshot_stores]: scatter the prepares
             against it, detect staleness, exclude unreachable stores,
             then validate the revision inside the prepare round. A
             conflict retries at once against fresh [St]; a store's
             blocked vote retries the prepare against the same pair.
             After [max_attempts] attempts the commit aborts. *)
          let rec attempt n stores =
            match stores with
            | Error why -> Error ("commit-time St read: " ^ why)
            | Ok (current_st, rev) -> (
                List.iter
                  (fun _ ->
                    Sim.Metrics.incr metrics "commit.bytes_shipped" ~by:full_bytes)
                  current_st;
                (* The paper's parallel write to all of StA: one concurrent
                   prepare per store, votes gathered in store order. Latency is
                   the slowest round-trip, not the sum. The prepare joins (or
                   leads) a group-commit batch; the votes come back one per
                   store of [per_store], in its order, with any non-yes member
                   already peeled out to a retry inside. *)
                let scattered = Sim.Engine.now eng in
                let per_store = List.map (fun s -> (s, writes)) current_st in
                ignore (Lazy.force p2);
                let votes, peeled_yes =
                  Groupcommit.prepare gc tok ?deadline_at ~contended ~client
                    ~action per_store
                in
                Sim.Metrics.observe metrics "commit.fanout"
                  (Sim.Engine.now eng -. scattered);
                (* [ok]: the yes voters' sub-records, which phase 2
                   commits. *)
                let ok, blocked, stale, failed =
                  List.fold_left2
                    (fun (ok, blocked, stale, failed) ((store, _) as sub)
                         (_, vote) ->
                      match vote with
                      | Ok Action.Store_host.Vote_yes ->
                          reach store `Answered;
                          (sub :: ok, blocked, stale, failed)
                      | Ok Action.Store_host.Vote_blocked ->
                          (ok, true, stale, failed)
                      | Ok Action.Store_host.Vote_stale ->
                          (ok, blocked, true, failed)
                      | Error e ->
                          if e = Net.Rpc.Timed_out then reach store `Timed_out
                          else if e = Net.Rpc.Crashed || List.mem store peeled_yes
                          then unheard := store :: !unheard;
                          (ok, blocked, stale, store :: failed))
                    ([], false, false, []) per_store votes
                in
                let ok = List.rev ok and failed = List.rev failed in
                let again why next =
                  if n + 1 < max_attempts then attempt (n + 1) (next ())
                  else Error why
                in
                let conflict () = again "St kept changing" snapshot_stores in
                (* Validate the revision inside the prepare round. A moved
                   one, or a fence another action holds, retries at once
                   against fresh St. *)
                let validated outcome k =
                  match outcome with
                  | `Failed why -> Error ("validate refused: " ^ why)
                  | `Conflict ->
                      Sim.Metrics.incr metrics "commit.validate_conflict";
                      conflict ()
                  | `Validated -> k ()
                in
                if stale then
                  (* A store found this action's base version behind its
                     own. If St moved since the attempt's snapshot, the
                     store may be one an exclusion left behind: retry
                     against the fresh St. *)
                  validated (validate act ~version ~rev ~vote:false) (fun () ->
                      (* Backward validation failed against the current St:
                         this action worked from a stale activation
                         (disjoint replica sets during churn — the
                         split-brain Arjuna's persistent lock store
                         physically prevents). Abort, and once the abort
                         has drained the action's locks, passivate the
                         group's instances so the next bind re-activates
                         from the latest committed state. *)
                      Sim.Metrics.incr metrics "commit.conflicts";
                      Action.Atomic.after_abort act (fun () ->
                          List.iter
                            (fun m ->
                              ignore
                                (Server.passivate (Group.server_runtime rt)
                                   ~from:client ~server:m ~uid:group.Group.g_uid))
                            (Group.live_members rt group));
                      Error "stale activation: version conflict at object stores")
                else if blocked then begin
                  (* Another action's prepare holds the object at a store
                     and its outcome has not reached it yet: prepare again
                     against the same St. *)
                  Sim.Metrics.incr metrics "commit.blocked";
                  again "blocked by a pending write at object stores" (fun () ->
                      stores)
                end
                else if ok = [] then Error "all object stores unavailable at commit"
                else
                  let excluded =
                    if failed = [] then `Excluded
                    else begin
                      Sim.Metrics.incr metrics "commit.exclusions"
                        ~by:(List.length failed);
                      exclude act failed
                    end
                  in
                  match excluded with
                  | `Failed why -> Error ("exclude failed: " ^ why)
                  | `Conflict -> conflict ()
                  | `Excluded ->
                      let outcome =
                        if Action.Atomic.last_hook act then
                          (* The validate is the action's last naming
                             request: the shard votes in its reply, and
                             the group's members vote beside it, so
                             phase 1 has nobody left to ask. *)
                          Action.Atomic.vote_beside act
                            ~kind:Server.resource_kind
                            ~scope:(Store.Uid.to_string uid) (fun () ->
                              validate act ~version ~rev ~vote:true)
                        else validate act ~version ~rev ~vote:false
                      in
                      validated outcome (fun () ->
                          Sim.Metrics.incr metrics "commit.validate_ok";
                          Sim.Metrics.incr metrics ~by:(List.length ok)
                            "commit.state_copies";
                          sealed := Some ok;
                          Ok ()))
          in
          attempt 0 (snapshot_stores ())
      in
      Fun.protect ~finally:settle body)
