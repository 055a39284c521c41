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
      let tok = Groupcommit.enter gc in
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
          let target = view.Server.cv_version.Store.Version.counter in
          let delta_on = Server.delta_shipping srv in
          let olog = Server.oplog srv in
          (* Gray-failure plane (live only under a profile, see
             {!Net.Network.gray_failure}): hedge the idempotent 2PC
             scatters with health-delayed backups, and ride the action's
             deadline on the phase-1 prepares issued for this commit
             alone (see {!Groupcommit.prepare}) so shedding servers can
             refuse votes this commit already gave up on.
             Phase-2 commit/abort deliberately carries no deadline: a
             decided outcome must reach the stores even when the initiator
             stopped waiting — shedding it would leak reservations and
             stall the acked floor. *)
          let net = Action.Atomic.network art in
          let hedge =
            if Net.Network.hedged net then Some (Net.Rpc.hedge ()) else None
          in
          let deadline_at = Action.Atomic.deadline act in
          (* Sibling-hedge map for one membership [current_st]: when the
             primary of a 2PC leg is sustainedly slow, route the leg's
             hedged backup copy to the healthiest other [St] member
             instead of re-sending to the slow node. The sibling holds
             the same object (it is in [St]), so a duplicate prepare or
             phase-2 there is idempotent; a sibling win surfaces as the
             leg's own error ({!Action.Store_host.prepare_each}), flowing
             into the ordinary §4.2 exclude / forget-ack conservatism —
             the win buys latency (the gather stops waiting on the
             browned node after one healthy round-trip), never a
             substituted answer. Live only under the [Autonomic]
             profile. *)
          let alt_map current_st =
            match Net.Network.gray_failure net with
            | None | Some Net.Network.Hedged -> None
            | Some Net.Network.Autonomic ->
                let h = Net.Network.health net in
                Some
                  (fun dst ->
                    let now = Sim.Engine.now eng in
                    if Net.Health.sustained_slow h ~now dst then
                      match
                        Net.Health.rank h ~now
                          (List.filter (fun s -> s <> dst) current_st)
                      with
                      | best :: _
                        when not (Net.Health.sustained_slow h ~now best) ->
                          Some best
                      | _ -> None
                    else None)
          in
          (* Golden shadow for the audit: whatever mix of deltas and full
             states the stores end up applying, their committed bytes for
             this version must equal this payload. *)
          if delta_on then
            Oplog.record_golden olog ~uid ~version:view.Server.cv_version
              ~payload:view.Server.cv_payload;
          let write_bytes = function
            | Action.Store_host.Full s -> Store.Object_state.bytes s
            | Action.Store_host.Delta d ->
                List.fold_left
                  (fun acc (_, ops) ->
                    List.fold_left
                      (fun acc op -> acc + String.length op)
                      acc ops)
                  0 d.Action.Store_host.d_steps
          in
          (* Per-store delta-vs-full decision: ship the op suffix
             [(v_store, v_commit]] iff the version knowledge (this client's
             acknowledged vector, else the shared floor other writers'
             votes seeded) says where the store stands and the commit
             view's chain covers the whole gap — and the suffix actually
             encodes smaller than the full state (an op-heavy history on a
             tiny object can outweigh its payload; [Server.force_delta]
             skips the size check to keep chaos coverage of the delta
             path). A store never heard from, a vector entry at the target
             already, or a truncated chain all fall back to full state. *)
          let choose store =
            if not delta_on then Action.Store_host.Full full_state
            else
              let fallback () =
                Sim.Metrics.incr metrics "commit.delta_fallbacks";
                Action.Store_host.Full full_state
              in
              match Oplog.known_version olog ~client ~store ~uid with
              | Some base when base < target -> (
                  match
                    Oplog.suffix_of view.Server.cv_delta ~base ~upto:target
                  with
                  | Some steps ->
                      let delta =
                        Action.Store_host.Delta
                          {
                            Action.Store_host.d_impl = group.Group.g_impl;
                            d_base = base;
                            d_steps = steps;
                          }
                      in
                      if
                        Server.force_delta srv
                        || write_bytes delta <= write_bytes (Full full_state)
                      then delta
                      else begin
                        Sim.Metrics.incr metrics "commit.delta_oversize";
                        Action.Store_host.Full full_state
                      end
                  | None -> fallback ())
              | _ -> fallback ()
          in
          let charge w =
            Sim.Metrics.incr metrics "commit.bytes_shipped" ~by:(write_bytes w)
          in
          (* Fold the committed levels a yes-vote piggybacks into the
             shared per-(store,object) floor: the next writer — any
             client — can start its copy-back from a delta based there. *)
          let seed_levels store vote =
            if delta_on then
              match vote with
              | Ok (Action.Store_host.Vote_yes levels) ->
                  List.iter
                    (fun (u, c) -> Oplog.note_store olog ~store ~uid:u c)
                    levels
              | _ -> ()
          in
          (* One copy-back attempt against the membership [current_st]:
             scatter the prepares, absorb delta misses, detect staleness,
             exclude unreachable stores, then [seal] the naming tier's
             view of the commit — the optimistic validate-and-note, or the
             locked fallback's version note. [`Conflict] (validation only:
             a membership change committed under our feet) withdraws the
             prepares so the caller can retry against fresh [St]. *)
          let run current_st ~seal =
            let alt_of = alt_map current_st in
            let writes =
              List.map (fun store -> (store, choose store)) current_st
            in
            List.iter (fun (_, w) -> charge w) writes;
            (* The paper's parallel write to all of StA: one concurrent
               prepare per store, votes gathered in store order. Latency is
               the slowest round-trip, not the sum. The prepare joins (or
               leads) a group-commit batch; the votes come back shaped
               exactly like [prepare_each]'s, with any non-yes member
               already peeled out to a solo retry inside. *)
            let scattered = Sim.Engine.now eng in
            let per_store = List.map (fun (s, w) -> (s, [ (uid, w) ])) writes in
            let votes =
              Groupcommit.prepare gc tok ?deadline_at ?alt_of ~client ~action
                per_store
            in
            if delta_on then
              List.iter
                (fun (store, vote) ->
                  match (List.assoc_opt store writes, vote) with
                  | ( Some (Action.Store_host.Delta _),
                      Ok
                        ( Action.Store_host.Vote_yes _
                        | Action.Store_host.Vote_stale ) ) ->
                      Sim.Metrics.incr metrics "commit.delta_hits"
                  | _ -> ())
                votes;
            let ok, stale, missed, unreachable =
              List.fold_left
                (fun (ok, stale, missed, unreachable) (store, vote) ->
                  seed_levels store vote;
                  match vote with
                  | Ok (Action.Store_host.Vote_yes _) ->
                      (store :: ok, stale, missed, unreachable)
                  | Ok Action.Store_host.Vote_stale ->
                      (ok, store :: stale, missed, unreachable)
                  | Ok (Action.Store_host.Vote_delta_miss counter) ->
                      (ok, stale, (store, counter) :: missed, unreachable)
                  | Error _ -> (ok, stale, missed, store :: unreachable))
                ([], [], [], []) votes
            in
            (* A delta miss means the vector was wrong about that store
               (recovered with an older state, or our last commit's
               acknowledgement never arrived). Nothing was staged there:
               reseed the vector from the counter the store reported and
               retry those stores — and only those — with full state. *)
            let retry_votes =
              match missed with
              | [] -> []
              | missed ->
                  List.iter
                    (fun (store, counter) ->
                      Oplog.note_acked olog ~client ~store ~uid counter;
                      Sim.Metrics.incr metrics "commit.delta_fallbacks";
                      charge (Action.Store_host.Full full_state))
                    missed;
                  Action.Store_host.prepare_each sh ~from:client ?hedge
                    ?deadline_at ?alt_of ~action ~coordinator:client
                    (List.map
                       (fun (store, _) ->
                         (store, [ (uid, Action.Store_host.Full full_state) ]))
                       missed)
            in
            Sim.Metrics.observe metrics "commit.fanout"
              (Sim.Engine.now eng -. scattered);
            let ok, stale, unreachable =
              List.fold_left
                (fun (ok, stale, unreachable) (store, vote) ->
                  seed_levels store vote;
                  match vote with
                  | Ok (Action.Store_host.Vote_yes _) ->
                      (store :: ok, stale, unreachable)
                  | Ok
                      ( Action.Store_host.Vote_stale
                      | Action.Store_host.Vote_delta_miss _ ) ->
                      (ok, store :: stale, unreachable)
                  | Error _ -> (ok, stale, store :: unreachable))
                (ok, stale, unreachable) retry_votes
            in
            let ok = List.rev ok and failed = List.rev unreachable in
            (* Any early abort from here on must withdraw the prepare
               records just written: a prepared record is a write
               reservation at the store, and leaking one blocks every
               future writer of the object. *)
            let withdraw_prepares () =
              ignore
                (Action.Store_host.abort_all sh ~from:client ?hedge ?alt_of
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
                             participants. A store's commit
                             acknowledgement is what advances the
                             acknowledged-version vector: only then is the
                             store known to hold [target], so only then
                             may the next copy ship it a delta based
                             there. A lost acknowledgement clears the
                             entry instead — the store may or may not have
                             applied, and the next copy must not presume. *)
                          Groupcommit.expect_phase2 gc;
                          Action.Atomic.add_participant act ~name:"st-copy"
                            ~prepare:(fun () -> true)
                            ~commit:(fun () ->
                              let results =
                                Groupcommit.commit gc ?alt_of ~client
                                  ~stores:ok action
                              in
                              if delta_on then
                                List.iter
                                  (fun (store, r) ->
                                    match r with
                                    | Ok () ->
                                        Oplog.note_acked olog ~client ~store
                                          ~uid target;
                                        Oplog.note_store olog ~store ~uid
                                          target
                                    | Error _ ->
                                        Oplog.forget_ack olog ~client ~store
                                          ~uid)
                                  results)
                            ~abort:(fun () ->
                              ignore
                                (Groupcommit.abort gc ?alt_of ~client
                                   ~stores:ok action));
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
