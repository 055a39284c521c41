let art t = Replica.Server.atomic_runtime (Replica.Group.server_runtime (Binder.group_runtime t))

let netw t = Action.Atomic.network (art t)

let tracef t fmt =
  Sim.Trace.recordf
    (Net.Network.trace (netw t))
    ~now:(Sim.Engine.now (Action.Atomic.engine (art t)))
    ~tag:"reintegrate" fmt

(* Fetch the newest committed state of [uid] among the given store nodes. *)
let newest_state t ~from ~stores uid =
  let sh = Action.Atomic.store_host (art t) in
  List.fold_left
    (fun best store ->
      if String.equal store from then best
      else
        match Action.Store_host.read sh ~from ~store uid with
        | Ok (Some s) -> (
            match best with
            | Some b when not (Store.Object_state.newer_than s b) -> best
            | _ -> Some s)
        | Ok None | Error _ -> best)
    None stores

let reintegrate_store_one t ~node uid =
  let r = Binder.router t in
  let sh = Action.Atomic.store_host (art t) in
  Action.Atomic.atomically (art t) ~node (fun act ->
      (* Include first: its write lock serialises us against every client
         holding a read lock on the entry, so the fetch below sees the
         final committed state. The granted fence is the committed
         version this node must reach before the inclusion may commit. *)
      let fence =
        match Router.update r ~act [ (uid, Gvd.Include node) ] with
        | Ok o -> o.Gvd.o_fence
        | Error f -> raise (Action.Atomic.Abort (Router.failure_to_string f))
      in
      let sources =
        match Router.entry_info r ~from:node uid with
        | Ok (Some info) -> info.Gvd.ei_st_home
        | Ok None | Error _ -> []
      in
      let ours = Store.Object_store.read (Action.Store_host.objects sh node) uid in
      let best =
        match (newest_state t ~from:node ~stores:sources uid, ours) with
        | Some fetched, Some mine ->
            if Store.Object_state.newer_than fetched mine then Some fetched
            else Some mine
        | Some fetched, None -> Some fetched
        | None, mine -> mine
      in
      match best with
      | Some candidate
        when Store.Version.compare candidate.Store.Object_state.version fence >= 0
        ->
          let stale =
            match ours with
            | Some mine -> Store.Object_state.newer_than candidate mine
            | None -> true
          in
          if stale then begin
            Action.Store_host.seed sh node uid candidate;
            tracef t "%s refreshed %a to %a" node Store.Uid.pp uid
              Store.Version.pp candidate.Store.Object_state.version
          end
      | Some _ | None ->
          (* Every reachable copy is older than the committed fence: the
             newest state lives only on nodes that are currently down.
             Joining StA now would serve rewound activations — stay out
             and retry later. *)
          Sim.Metrics.incr (Net.Network.metrics (netw t)) "reintegrate.fenced";
          raise (Action.Atomic.Abort "latest committed state unreachable"))

let reintegrate_store_now t ~node =
  let uids =
    match Router.stored_on (Binder.router t) ~from:node node with
    | Ok uids -> uids
    | Error _ -> []
  in
  List.iter
    (fun uid ->
      match
        Net.Retry.run
          (Action.Atomic.retry (art t))
          ~op:"reintegrate.include"
          (Net.Retry.policy ~attempts:20 ~base:2.0 ~factor:1.5
             ~max_delay:8.0 ())
          (fun () -> reintegrate_store_one t ~node uid)
      with
      | Ok () ->
          Sim.Metrics.incr (Net.Network.metrics (netw t)) "reintegrate.includes"
      | Error _ -> ())
    uids

let attach_store_node t ~node =
  Net.Network.on_recover (netw t) node (fun () -> reintegrate_store_now t ~node)

(* Bounded validated Exclude attempts before falling back to the classic
   locked round (mirrors {!Replica.Commit}'s validate retries). *)
let validated_attempts = 3

(* Exclude a sick (but possibly still-up) store from one object's [St],
   driven by an observer node — the autonomic controller's half of §4.2,
   where the exclusion is proposed by whoever detected the failure
   rather than by a commit that tripped over it. The St revision is read
   lock-free and validated inside the Exclude round (an [Evict] update
   with [~if_rev]); a conflict kept the fence, so the bounded retry
   converges, and exhaustion or an unreachable snapshot falls back to
   the classic locked round. *)
let exclude_store_one t ~from ~node uid =
  let r = Binder.router t in
  Action.Atomic.atomically (art t) ~node:from (fun act ->
      let update ?if_rev op =
        match Router.update r ~act ?if_rev [ (uid, op) ] with
        | Ok o -> o.Gvd.o_applied
        | Error f -> raise (Action.Atomic.Abort (Router.failure_to_string f))
      in
      let classic () = ignore (update (Gvd.Exclude [ node ]) : bool) in
      let rec go attempt =
        match Router.read r ~act uid Gvd.Committed with
        | Ok { Gvd.v_stores = st; v_rev = rev; _ } ->
            if not (List.mem node st) then
              raise (Action.Atomic.Abort "not an St member")
            else if List.length st <= 1 then
              raise (Action.Atomic.Abort "would empty St")
            else if not (update ~if_rev:rev (Gvd.Evict node)) then
              if attempt + 1 < validated_attempts then go (attempt + 1)
              else begin
                Sim.Metrics.incr
                  (Net.Network.metrics (netw t))
                  "reintegrate.optimistic_fallbacks";
                classic ()
              end
        | Error _ -> classic ()
      in
      go 0)

let exclude_store_now t ~from ~node () =
  let r = Binder.router t in
  let uids =
    match Router.stored_on r ~from node with Ok uids -> uids | Error _ -> []
  in
  List.fold_left
    (fun excluded uid ->
      (* Skip objects where [node] is no longer a member (a commit's own
         §4.2 exclusion beat us to it) or is the last copy: excluding
         the only replica would lose the object. *)
      match Router.snapshot r ~from uid with
      | Ok { Gvd.v_stores = st; _ } when List.mem node st && List.length st > 1
        -> (
          match exclude_store_one t ~from ~node uid with
          | Ok () ->
              Sim.Metrics.incr
                (Net.Network.metrics (netw t))
                "reintegrate.excludes";
              excluded + 1
          | Error why ->
              tracef t "%s could not exclude %s from %a: %s" from node
                Store.Uid.pp uid why;
              excluded)
      | _ -> excluded)
    0 uids

let reinsert_server_now t ~node =
  let eng = Action.Atomic.engine (art t) in
  let r = Binder.router t in
  let uids =
    match Router.served_by r ~from:node node with
    | Ok uids -> uids
    | Error _ -> []
  in
  List.iter
    (fun uid ->
      let started = Sim.Engine.now eng in
      let outcome =
        Net.Retry.run
          (Action.Atomic.retry (art t))
          ~op:"reintegrate.insert"
          (Net.Retry.policy ~attempts:60 ~base:2.0 ~factor:1.3
             ~max_delay:8.0 ())
          (fun () ->
            let res =
              Action.Atomic.atomically (art t) ~node (fun act ->
                  match Router.update r ~act [ (uid, Gvd.Insert node) ] with
                  | Ok _ -> `Done
                  | Error (Router.Busy _) -> `Busy
                  | Error (Router.Refused why | Router.Unreachable why) ->
                      raise (Action.Atomic.Abort why))
            in
            match res with
            | Ok `Done -> Ok ()
            | Ok `Busy ->
                (* Quiescence-pull: the Insert is blocked on use-list
                   counters that may only be waiting out the coalescing
                   window — flush those credits now instead of sleeping
                   the window out. *)
                Binder.pull_credits t ~uid;
                Error "object not quiescent"
            | Error e -> Error e)
      in
      match outcome with
      | Ok () ->
          let elapsed = Sim.Engine.now eng -. started in
          Sim.Metrics.observe
            (Net.Network.metrics (netw t))
            "reintegrate.insert_delay" elapsed;
          tracef t "%s reinserted into Sv(%a) after %.2f" node Store.Uid.pp uid
            elapsed
      | Error _ ->
          Sim.Metrics.incr
            (Net.Network.metrics (netw t))
            "reintegrate.insert_gave_up")
    uids

let attach_server_node t ~node =
  Net.Network.on_recover (netw t) node (fun () -> reinsert_server_now t ~node)
