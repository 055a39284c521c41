let attach rt act group ?current_stores ?note_version ~snapshot_stores
    ~validate ~exclude () =
  let srv = Group.server_runtime rt in
  let art = Server.atomic_runtime srv in
  let sh = Action.Atomic.store_host art in
  let eng = Action.Atomic.engine art in
  let metrics = Net.Network.metrics (Action.Atomic.network art) in
  let gc = Server.groupcommit srv in
  let read_stores =
    match current_stores with
    | Some f -> f
    | None -> fun _ -> Ok group.Group.g_stores
  in
  Action.Atomic.before_commit act (fun () ->
      (* Group-commit plane: announce this commit as approaching so open
         batches hold their window for it; the token settles at the
         prepare, or here at any earlier exit (commit-view error,
         read-optimised commit, an exception unwinding the hook). *)
      let tok = Groupcommit.enter gc ~client:(Action.Atomic.node act) in
      let body () =
      match Group.commit_view rt group ~act with
      | Error why -> Error ("commit view: " ^ why)
      | Ok view when not view.Server.cv_dirty ->
          (* Read optimisation: no state change, no copy, no exclusion. *)
          Sim.Metrics.incr metrics "commit.read_optimised";
          Ok ()
      | Ok view ->
          let client = Action.Atomic.node act in
          let action = Action.Atomic.owner act in
          let uid = group.Group.g_uid in
          let full_state =
            Store.Object_state.make ~payload:view.Server.cv_payload
              ~version:view.Server.cv_version
          in
          (* The action's deadline rides on the phase-1 prepares issued
             for this commit alone (see {!Groupcommit.prepare}) so
             shedding servers can refuse votes this commit already gave
             up on. Phase-2 commit/abort deliberately carries no
             deadline: a decided outcome must reach the stores even when
             the initiator stopped waiting — shedding it would leak
             reservations. Every store scatter names [current_st], so a
             leg's backup copy may go to a sibling replica
             ({!Action.Store_host.prepare_all}); a sibling win surfaces
             as the leg's own error, flowing into the ordinary §4.2
             exclude — never a substituted answer. *)
          let deadline_at = Action.Atomic.deadline act in
          let full_bytes = Store.Object_state.bytes full_state in
          (* One copy-back attempt against the membership [current_st]:
             scatter the prepares, detect staleness, exclude unreachable
             stores, then [seal] the naming tier's view of the commit —
             the optimistic validate-and-note, or the locked fallback's
             version note. [`Conflict] (validation only: a membership
             change committed under our feet) withdraws the prepares so
             the caller can retry against fresh [St]. *)
          let run current_st ~seal =
            List.iter
              (fun _ ->
                Sim.Metrics.incr metrics "commit.bytes_shipped" ~by:full_bytes)
              current_st;
            (* The paper's parallel write to all of StA: one concurrent
               prepare per store, votes gathered in store order. Latency is
               the slowest round-trip, not the sum. The prepare joins (or
               leads) a group-commit batch; the votes come back shaped
               exactly like [prepare_each]'s, with any non-yes member
               already peeled out to a solo retry inside. *)
            let scattered = Sim.Engine.now eng in
            let per_store =
              List.map (fun s -> (s, [ (uid, full_state) ])) current_st
            in
            let votes =
              Groupcommit.prepare gc tok ?deadline_at ~st:current_st ~client
                ~action per_store
            in
            Sim.Metrics.observe metrics "commit.fanout"
              (Sim.Engine.now eng -. scattered);
            let ok, stale, unreachable =
              List.fold_left
                (fun (ok, stale, unreachable) (store, vote) ->
                  match vote with
                  | Ok Action.Store_host.Vote_yes ->
                      (store :: ok, stale, unreachable)
                  | Ok Action.Store_host.Vote_stale ->
                      (ok, store :: stale, unreachable)
                  | Error _ -> (ok, stale, store :: unreachable))
                ([], [], []) votes
            in
            let ok = List.rev ok and failed = List.rev unreachable in
            (* Any early abort from here on must withdraw the prepare
               records just written: a prepared record is a write
               reservation at the store, and leaking one blocks every
               future writer of the object. *)
            let withdraw_prepares () =
              ignore
                (Action.Store_host.abort_all sh ~from:client ~st:current_st
                   ~stores:ok action)
            in
            if stale <> [] then begin
              withdraw_prepares ();
              (* Backward validation failed: this action worked from a stale
                 activation (disjoint replica sets during churn — the
                 split-brain Arjuna's persistent lock store physically
                 prevents). Abort, and once the abort has drained the
                 action's locks, passivate the group's instances so the
                 next bind re-activates from the latest committed state. *)
              Sim.Metrics.incr metrics "commit.conflicts";
              Action.Atomic.after_abort act (fun () ->
                  List.iter
                    (fun m ->
                      ignore
                        (Server.passivate (Group.server_runtime rt)
                           ~from:client ~server:m ~uid:group.Group.g_uid))
                    (Group.live_members rt group));
              `Done
                (Error "stale activation: version conflict at object stores")
            end
            else
              match ok with
              | [] -> `Done (Error "all object stores unavailable at commit")
              | _ -> (
                  let proceed =
                    if failed = [] then Ok ()
                    else begin
                      Sim.Metrics.incr metrics "commit.exclusions"
                        ~by:(List.length failed);
                      exclude act failed
                    end
                  in
                  match proceed with
                  | Error why ->
                      withdraw_prepares ();
                      `Done (Error ("exclude failed: " ^ why))
                  | Ok () -> (
                      match seal () with
                      | `Fail why ->
                          withdraw_prepares ();
                          `Done (Error why)
                      | `Conflict ->
                          withdraw_prepares ();
                          `Conflict
                      | `Sealed ->
                          Sim.Metrics.incr metrics ~by:(List.length ok)
                            "commit.state_copies";
                          (* One phase-2 participant for the whole store
                             set: its commit/abort scatters to every
                             prepared store concurrently instead of
                             registering |St| serially notified
                             participants. *)
                          let p2 = Groupcommit.expect_phase2 gc ~client in
                          Action.Atomic.add_participant act ~name:"st-copy"
                            ~prepare:(fun () -> true)
                            ~commit:(fun () ->
                              Groupcommit.commit gc p2 ~st:current_st ~client
                                ~stores:ok action)
                            ~abort:(fun () ->
                              Groupcommit.abort gc p2 ~st:current_st ~client
                                ~stores:ok action);
                          `Done (Ok ())))
          in
          (* The locked fallback: re-read [St] under a read lock owned by
             the action (held to action end — the Include fence), then note
             the version under the write fence. *)
          let locked () =
            match read_stores act with
            | Error why -> Error ("commit-time GetView: " ^ why)
            | Ok current_st -> (
                let seal () =
                  match note_version with
                  | None -> `Sealed
                  | Some note -> (
                      match note act view.Server.cv_version with
                      | Ok () -> `Sealed
                      | Error why -> `Fail ("version note refused: " ^ why))
                in
                match run current_st ~seal with
                | `Done r -> r
                | `Conflict -> Error "version note conflict")
          in
          (* Take [St] and its revision from a lock-free snapshot, fan the
             copy-back out against it, and validate the revision inside
             the prepare round. A conflict — an Include/Exclude committed
             in between — withdraws the prepares and retries against fresh
             [St]; the validation kept the write fence, so the re-read
             revision can no longer move and the retry converges. Bounded
             attempts, then the locked path so churn cannot starve a
             commit. *)
          let max_attempts = 3 in
          let rec go attempt =
            match snapshot_stores () with
            | Error _ ->
                (* Snapshot read unreachable: the locked path talks to the
                   same shard and will surface the real error. *)
                Sim.Metrics.incr metrics "commit.validate_fallbacks";
                locked ()
            | Ok (current_st, rev) -> (
                let seal () =
                  match validate act ~version:view.Server.cv_version ~rev with
                  | `Validated ->
                      Sim.Metrics.incr metrics "commit.validate_ok";
                      `Sealed
                  | `Conflict ->
                      Sim.Metrics.incr metrics "commit.validate_conflict";
                      `Conflict
                  | `Failed why -> `Fail ("validate refused: " ^ why)
                in
                match run current_st ~seal with
                | `Done r -> r
                | `Conflict ->
                    if attempt + 1 < max_attempts then go (attempt + 1)
                    else begin
                      (* Churn outran the retries: starve-proof fallback
                         to the locked re-read. *)
                      Sim.Metrics.incr metrics "commit.validate_fallbacks";
                      locked ()
                    end)
          in
          go 0
      in
      Fun.protect ~finally:(fun () -> Groupcommit.leave gc tok) body)
