type t = {
  b_router : Router.t;
  b_grt : Replica.Group.runtime;
  b_cache : Bind_cache.t option;
  b_deltas : Use_delta.t;
  b_crash_hooked : (Net.Network.node_id, unit) Hashtbl.t;
}

(* How long credited Decrements wait for a cancelling rebind before the
   flush fiber sends them. *)
let flush_delay = 5.0

let create ?cache b_router b_grt =
  {
    b_router;
    b_grt;
    b_cache = cache;
    b_deltas = Use_delta.create ();
    b_crash_hooked = Hashtbl.create 8;
  }

let router t = t.b_router
let cache t = t.b_cache
let group_runtime t = t.b_grt
let deltas t = t.b_deltas

type binding = {
  bd_uid : Store.Uid.t;
  bd_scheme : Scheme.t;
  bd_group : Replica.Group.t;
  bd_servers : Net.Network.node_id list;
  bd_stores : Net.Network.node_id list;
}

type bind_error = Name_refused of string | No_server of string

let bind_error_to_string = function
  | Name_refused why -> "naming service refused: " ^ why
  | No_server why -> "no server: " ^ why

type prebinding = {
  pb_uid : Store.Uid.t;
  pb_client : Net.Network.node_id;
  pb_group : Replica.Group.t;
  pb_servers : Net.Network.node_id list;
  pb_incremented : Net.Network.node_id list;
      (* the servers whose use lists the bind action incremented — the
         Decrement must mirror exactly this set, not the (possibly
         smaller) set that actually activated *)
  pb_stores : Net.Network.node_id list;
  mutable pb_released : bool;
}

let art t = Replica.Server.atomic_runtime (Replica.Group.server_runtime t.b_grt)
let netw t = Action.Atomic.network (art t)
let metrics t = Net.Network.metrics (netw t)

let take k xs =
  let rec go k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: go (k - 1) rest
  in
  go k xs

(* ------------------------------------------------------------------ *)
(* Exclusion, per scheme (§4.2) *)

let or_why r = Result.map_error Router.failure_to_string r

let exclusion t ~scheme ~uid act failed =
  let run act' =
    or_why (Router.update t.b_router ~act:act' [ (uid, Gvd.Exclude failed) ])
    |> Result.map ignore
  in
  match scheme with
  | Scheme.Standard -> run act
  | Scheme.Independent | Scheme.Nested_toplevel -> (
      (* The database update is its own durable (nested top-level)
         action: it commits even if the client action later aborts, which
         is safe — the excluded nodes are genuinely dead. *)
      match
        Action.Atomic.atomically_nested_top act (fun a ->
            match run a with
            | Ok () -> ()
            | Error why -> raise (Action.Atomic.Abort why))
      with
      | Ok () -> Ok ()
      | Error why -> Error why)

(* The optimistic commit's two naming rounds, shared with the hybrid
   scheme: the lock-free (St, revision) read when commit processing
   starts, and the validate-and-note inside the prepare round. *)
let committed_stores router ~act uid =
  or_why (Router.read router ~act uid Gvd.Committed)
  |> Result.map (fun v -> (v.Gvd.v_stores, v.Gvd.v_rev))

let validate_note router ~uid act ~version ~rev =
  match Router.update router ~act ~if_rev:rev [ (uid, Gvd.Note_version version) ] with
  | Ok { Gvd.o_applied = true; _ } -> `Validated
  | Ok { Gvd.o_applied = false; _ } | Error (Router.Busy _ | Router.Refused _) ->
      (* A refusal means the write fence is held by a membership change in
         flight right now — morally the same as a revision conflict: retry
         against the St that change is about to commit. *)
      `Conflict
  | Error (Router.Unreachable why) -> `Failed why

let attach_commit t ~scheme ~act ~uid group =
  (* Commit processing re-reads StA at commit time: the bind-time view
     can be outdated by a recovered store's Include under the
     independent/nested-top-level schemes (§4.2.1(ii)'s elided
     enhancement), and the copy-back must target the current members.
     The Include fence that read provides — a recovering store must not
     be re-admitted (with a state at the old version fence) between the
     copy-back's target choice and its commit, or St members end up at
     different versions — is a lock-free snapshot of (St, revision) when
     commit processing starts, re-validated under the write fence inside
     the prepare round: an interleaved membership change is detected as a
     revision conflict and the copy-back retries against fresh St. Churn
     that outruns the retries falls back to a LOCKED GetView, the read
     lock held from commit start to action end, blocking the Include
     outright ({!Replica.Commit.attach}).

     The bind-time snapshot path is unrelated: it serves reads only and
     provides no fence. *)
  let current_stores act' =
    or_why (Router.read t.b_router ~act:act' uid Gvd.Stores)
    |> Result.map (fun v -> v.Gvd.v_stores)
  in
  let note_version act' version =
    or_why (Router.update t.b_router ~act:act' [ (uid, Gvd.Note_version version) ])
    |> Result.map ignore
  in
  let exclude act' failed = exclusion t ~scheme ~uid act' failed in
  let snapshot_stores () = committed_stores t.b_router ~act uid in
  let validate = validate_note t.b_router ~uid in
  Replica.Commit.attach t.b_grt act group ~current_stores ~note_version
    ~snapshot_stores ~validate ~exclude ()

(* ------------------------------------------------------------------ *)
(* Activation with futile-bind accounting *)

let activate_counted t ~client ~uid ~impl ~policy ~servers ~stores =
  match
    Replica.Group.activate t.b_grt ~client ~uid ~impl ~policy ~servers ~stores
  with
  | Error why -> Error (No_server why)
  | Ok group ->
      let futile =
        List.length servers - List.length group.Replica.Group.g_members
      in
      if futile > 0 then Sim.Metrics.incr (metrics t) ~by:futile "bind.futile";
      Sim.Metrics.incr (metrics t) "bind.ok";
      Ok group

(* ------------------------------------------------------------------ *)
(* Figure 6: standard nested actions *)

(* Figure 6's naming reads are one [Locked] bind request inside a nested
   action: its Read locks on [sv:] and [st:] pass to [act] on nested
   commit and are held to top-level completion — the exclusion fence. *)
let bind_standard t ~act ~uid ~policy =
  let client = Action.Atomic.node act in
  match
    Action.Atomic.atomically_nested act (fun nested ->
        match Router.bind t.b_router ~act:nested ~uid Gvd.Locked with
        | Ok bv -> bv
        | Error f -> raise (Action.Atomic.Abort (Router.failure_to_string f)))
  with
  | Error why -> Error (Name_refused why)
  | Ok { Gvd.bv_impl = impl; bv_servers = sv; bv_stores = st; _ } -> (
      (* Static Sv: pick the first k entries, dead or not ("the hard
         way", §4.1.2), in the network's preference order
         ({!Net.Network.rank_servers}), which steers the static pick away
         from browned-out servers. *)
      let sv = Net.Network.rank_servers (netw t) sv in
      let chosen = take (Replica.Policy.replicas policy) sv in
      if chosen = [] then Error (No_server "SvA is empty")
      else
        match
          activate_counted t ~client ~uid ~impl ~policy ~servers:chosen
            ~stores:st
        with
        | Error e -> Error e
        | Ok group ->
            attach_commit t ~scheme:Scheme.Standard ~act ~uid group;
            Sim.Metrics.observe (metrics t) "bind.naming_rounds" 1.0;
            Ok
              {
                bd_uid = uid;
                bd_scheme = Scheme.Standard;
                bd_group = group;
                bd_servers = group.Replica.Group.g_members;
                bd_stores = st;
              })

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: use lists, removal of dead servers *)

(* The database half of a Figure-7/8 bind: ONE [Counted] bind round —
   GetServer + Remove(dead) + Increment + GetView collapsed server-side,
   with the caller's pending decrement credits piggybacked. Runs inside a
   top-level action of its own. *)
let fresh_bind_db t ~uid ~policy ~credits act =
  match
    Router.bind t.b_router ~act ~uid
      (Gvd.Counted { replicas = Replica.Policy.replicas policy; credits })
  with
  | Ok bv ->
      if bv.Gvd.bv_removed <> [] then
        Sim.Metrics.incr (metrics t)
          ~by:(List.length bv.Gvd.bv_removed)
          "bind.removed_dead";
      bv
  | Error f -> raise (Action.Atomic.Abort (Router.failure_to_string f))

let decrement_db t ~client ~uid ~servers act =
  match Router.update t.b_router ~act [ (uid, Gvd.Decrement { client; servers }) ] with
  | Ok _ -> ()
  | Error f -> raise (Action.Atomic.Abort (Router.failure_to_string f))

(* Expand credits into the node list the Decrement endpoint expects: a
   node listed k times decrements k counts. *)
let expand_credits credits =
  List.concat_map (fun (node, count) -> List.init count (fun _ -> node)) credits

(* Flush one object's credits as a single merged Decrement action. The
   flush must not leak counters on transient lock refusals: a leaked
   counter of a live client poisons quiescence forever (the cleanup
   daemon only repairs dead clients). Retry through the shared policy
   engine before giving up. *)
let run_flush t ~client ~uid ~credits =
  let servers = expand_credits credits in
  if servers = [] then true
  else
    match
      Net.Retry.run
        (Action.Atomic.retry (art t))
        ~op:"bind.flush"
        (Net.Retry.policy ~attempts:8 ~base:2.0 ~factor:1.5 ~max_delay:8.0 ())
        (fun () ->
          Action.Atomic.atomically (art t) ~node:client (fun act ->
              decrement_db t ~client ~uid ~servers act))
    with
    | Ok () ->
        Sim.Metrics.incr (metrics t) "bind.flushes";
        true
    | Error _ ->
        (* Give the credits back rather than dropping them: a dropped
           credit of a live client poisons quiescence forever (cleanup
           only repairs dead clients). The caller re-arms the flush. *)
        Sim.Metrics.incr (metrics t) "bind.decrement_failed";
        Use_delta.restore t.b_deltas ~client ~uid credits;
        false

(* The delta buffer is world-global but a client's credits are volatile
   state of that client: when it crashes they must die with it. Dropping
   them keeps the next incarnation sound — the orphaned counters are the
   cleanup protocol's job, and decrementing them again after a cleanup
   zero would corrupt the count. The drop also clears the
   scheduled-flush flag, which the crashed flush fiber can no longer
   clear itself (a stale flag would wedge all future flushes for the
   recovered client). *)
let hook_client_crash t ~client =
  if not (Hashtbl.mem t.b_crash_hooked client) then begin
    Hashtbl.add t.b_crash_hooked client ();
    Net.Network.on_crash (netw t) client (fun () ->
        Use_delta.drop_client t.b_deltas ~client)
  end

(* Arrange for the client's buffered credits to be flushed after the
   coalescing window. One one-shot fiber per client at a time; it drains
   the whole buffer and exits (no periodic daemon — the simulation must
   be able to run dry). The fiber lives on the client node, so it dies
   with a client crash — leaving exactly the orphaned counters the
   cleanup protocol repairs. Cooperative scheduling makes the
   empty-check/flag-clear at the end race-free: there is no suspension
   point between them, so a credit arriving later always finds the flag
   down and schedules a fresh fiber. *)
let rec schedule_flush t ~client =
  hook_client_crash t ~client;
  if not (Use_delta.flush_scheduled t.b_deltas ~client) then begin
    Use_delta.set_flush_scheduled t.b_deltas ~client true;
    Net.Network.spawn_on (netw t) client ~name:(client ^ ".use-flush")
      (fun () ->
        Sim.Engine.sleep (Action.Atomic.engine (art t)) flush_delay;
        let flush_one uid =
          let credits = Use_delta.take t.b_deltas ~client ~uid in
          credits = [] || run_flush t ~client ~uid ~credits
        in
        (* One pass over the distinct pending objects; a failed flush
           restored its credits, so recursing on the raw buffer head
           would spin — skip objects that already failed this pass. *)
        let rec drain stuck =
          match
            List.find_opt
              (fun u -> not (List.exists (Store.Uid.equal u) stuck))
              (Use_delta.pending_uids t.b_deltas ~client)
          with
          | None -> ()
          | Some uid -> drain (if flush_one uid then stuck else uid :: stuck)
        in
        drain [];
        Use_delta.set_flush_scheduled t.b_deltas ~client false;
        (* Anything restored by a failed flush waits out one more window. *)
        if Use_delta.pending_uids t.b_deltas ~client <> [] then
          schedule_flush t ~client)
  end

(* Quiescence-pull: flush every live client's pending credits for [uid]
   right now, without waiting out the coalescing window. Called on behalf
   of an [Insert] blocked on use-list quiescence. Each flush runs as a
   fresh fiber on its owning client (a credit must decrement its own
   client's counters); crashed clients are skipped — their credits are
   dropped by the crash hook and their counters belong to cleanup. *)
let pull_credits t ~uid =
  List.iter
    (fun client ->
      if Net.Network.is_up (netw t) client then begin
        let credits = Use_delta.take t.b_deltas ~client ~uid in
        if credits <> [] then begin
          Sim.Metrics.incr (metrics t) "bind.flush_pulled";
          Net.Network.spawn_on (netw t) client
            ~name:(client ^ ".use-flush-pull") (fun () ->
              if not (run_flush t ~client ~uid ~credits) then
                schedule_flush t ~client)
        end
      end)
    (Use_delta.clients_with t.b_deltas ~uid)

(* The trailing Decrement of Figures 7/8, coalesced: credit the buffer
   and let the deferred flush — or the next bind's request, which
   cancels the pair in its own round — carry it to the database. *)
let credit_release t ~client ~uid ~servers =
  List.iter
    (fun node -> Use_delta.credit t.b_deltas ~client ~uid ~node ~count:1)
    servers;
  Sim.Metrics.incr (metrics t) ~by:(List.length servers) "bind.credits";
  schedule_flush t ~client

(* Take the client's pending credits for piggybacking on a counted bind;
   [restore_credits] puts them back (and re-arms the flush) when the
   bind action failed — its staged deltas, credits included, were
   dropped server-side. *)
let take_credits t ~client ~uid =
  let credits = Use_delta.take t.b_deltas ~client ~uid in
  if credits <> [] then Sim.Metrics.incr (metrics t) "bind.coalesced_sends";
  credits

let restore_credits t ~client ~uid credits =
  if credits <> [] then begin
    Use_delta.restore t.b_deltas ~client ~uid credits;
    schedule_flush t ~client
  end

let bind_independent t ~client ~uid ~policy =
  let credits = take_credits t ~client ~uid in
  match
    Action.Atomic.atomically (art t) ~node:client (fun act ->
        fresh_bind_db t ~uid ~policy ~credits act)
  with
  | Error why ->
      restore_credits t ~client ~uid credits;
      Error (Name_refused why)
  | Ok bv -> (
      Sim.Metrics.observe (metrics t) "bind.naming_rounds" 1.0;
      let chosen = bv.Gvd.bv_servers and st = bv.Gvd.bv_stores in
      match
        activate_counted t ~client ~uid ~impl:bv.Gvd.bv_impl ~policy
          ~servers:chosen ~stores:st
      with
      | Error e ->
          (* The bind action already incremented use lists; pair it with
             the Decrement even though activation failed. *)
          credit_release t ~client ~uid ~servers:chosen;
          Error e
      | Ok group ->
          Ok
            {
              pb_uid = uid;
              pb_client = client;
              pb_group = group;
              pb_servers = group.Replica.Group.g_members;
              pb_incremented = chosen;
              pb_stores = st;
              pb_released = false;
            })

let use_prebinding t ~act pb =
  attach_commit t ~scheme:Scheme.Independent ~act ~uid:pb.pb_uid pb.pb_group;
  Ok
    {
      bd_uid = pb.pb_uid;
      bd_scheme = Scheme.Independent;
      bd_group = pb.pb_group;
      bd_servers = pb.pb_servers;
      bd_stores = pb.pb_stores;
    }

let release_independent t pb =
  if not pb.pb_released then begin
    pb.pb_released <- true;
    credit_release t ~client:pb.pb_client ~uid:pb.pb_uid
      ~servers:pb.pb_incremented
  end

let bind_nested_toplevel t ~act ~uid ~policy =
  let client = Action.Atomic.node act in
  let credits = take_credits t ~client ~uid in
  match
    Action.Atomic.atomically_nested_top act (fun dbact ->
        fresh_bind_db t ~uid ~policy ~credits dbact)
  with
  | Error why ->
      restore_credits t ~client ~uid credits;
      Error (Name_refused why)
  | Ok bv -> (
      Sim.Metrics.observe (metrics t) "bind.naming_rounds" 1.0;
      let chosen = bv.Gvd.bv_servers and st = bv.Gvd.bv_stores in
      match
        activate_counted t ~client ~uid ~impl:bv.Gvd.bv_impl ~policy
          ~servers:chosen ~stores:st
      with
      | Error e ->
          credit_release t ~client ~uid ~servers:chosen;
          Error e
      | Ok group ->
          attach_commit t ~scheme:Scheme.Nested_toplevel ~act ~uid group;
          let release () = credit_release t ~client ~uid ~servers:chosen in
          (* The trailing Decrement is credited when the client action
             ends, whichever way. *)
          Action.Atomic.after_commit act release;
          Action.Atomic.on_abort act release;
          Ok
            {
              bd_uid = uid;
              bd_scheme = Scheme.Nested_toplevel;
              bd_group = group;
              bd_servers = group.Replica.Group.g_members;
              bd_stores = st;
            })

let bind_uncached t ~act ~scheme ~uid ~policy =
  match scheme with
  | Scheme.Standard -> bind_standard t ~act ~uid ~policy
  | Scheme.Nested_toplevel -> bind_nested_toplevel t ~act ~uid ~policy
  | Scheme.Independent -> (
      let client = Action.Atomic.node act in
      match bind_independent t ~client ~uid ~policy with
      | Error e -> Error e
      | Ok pb ->
          let release () = release_independent t pb in
          Action.Atomic.after_commit act release;
          Action.Atomic.on_abort act release;
          use_prebinding t ~act pb)

(* ------------------------------------------------------------------ *)
(* The lease cache fast path: a hit skips every bind-time naming RPC and
   activates straight from the cached (impl, SvA', StA). Staleness is
   safe, only slow: dead cached servers cost futile activation attempts
   (scheme A's "hard way"); a stale StA is caught by the object stores'
   backward validation at commit, which aborts the action — and the abort
   hook below invalidates the entry so the retry takes the full path. *)

let bind_cached t cache ~act ~scheme ~uid ~policy (e : Bind_cache.entry) =
  let client = Action.Atomic.node act in
  match
    Replica.Group.activate t.b_grt ~client ~uid ~impl:e.Bind_cache.ce_impl
      ~policy ~servers:e.Bind_cache.ce_servers ~stores:e.Bind_cache.ce_stores
  with
  | Error _ -> None
  | Ok group ->
      let futile =
        List.length e.Bind_cache.ce_servers
        - List.length group.Replica.Group.g_members
      in
      if futile > 0 then Sim.Metrics.incr (metrics t) ~by:futile "bind.futile";
      Sim.Metrics.incr (metrics t) "bind.ok";
      attach_commit t ~scheme ~act ~uid group;
      Action.Atomic.on_abort act (fun () ->
          Bind_cache.invalidate cache ~client uid);
      (* A commit just revalidated the entry (StA re-read under lock,
         stores backward-validated the activation): renew its lease. *)
      Action.Atomic.after_commit act (fun () ->
          Bind_cache.renew cache ~now:(Sim.Engine.now (Action.Atomic.engine (art t)))
            ~client uid);
      Sim.Metrics.observe (metrics t) "bind.naming_rounds" 0.0;
      Some
        {
          bd_uid = uid;
          bd_scheme = scheme;
          bd_group = group;
          bd_servers = group.Replica.Group.g_members;
          bd_stores = e.Bind_cache.ce_stores;
        }

let bind t ~act ~scheme ~uid ~policy =
  let eng = Action.Atomic.engine (art t) in
  let started = Sim.Engine.now eng in
  let finish r =
    Sim.Metrics.observe (metrics t) "bind.latency"
      (Sim.Engine.now eng -. started);
    r
  in
  let client = Action.Atomic.node act in
  let via_cache =
    match t.b_cache with
    | None -> None
    | Some cache -> (
        match Bind_cache.find cache ~now:started ~client uid with
        | None -> None
        | Some entry -> (
            match bind_cached t cache ~act ~scheme ~uid ~policy entry with
            | Some binding -> Some binding
            | None ->
                (* Every cached server failed to activate: drop the entry
                   and take the full path within this same bind. *)
                Bind_cache.invalidate cache ~client uid;
                Sim.Metrics.incr (metrics t) "cache.fallbacks";
                None))
  in
  match via_cache with
  | Some binding -> finish (Ok binding)
  | None ->
      let r = bind_uncached t ~act ~scheme ~uid ~policy in
      (match (r, t.b_cache) with
      | Ok b, Some cache ->
          Bind_cache.fill cache ~now:(Sim.Engine.now eng) ~client uid
            ~impl:b.bd_group.Replica.Group.g_impl ~servers:b.bd_servers
            ~stores:b.bd_stores
      | _ -> ());
      finish r
