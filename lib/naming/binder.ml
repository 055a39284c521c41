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
  pb_view : Gvd.bind_view;
      (* the counted bind's reply: its [bv_servers] are the servers whose
         use lists the bind action incremented — the Decrement must mirror
         exactly this set, not the (possibly smaller) set that actually
         activated — and ([bv_stores], [bv_rev]) a committed St pair *)
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
    or_why (Router.update t.b_router ~act:act' uid (Gvd.Exclude failed))
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

(* Commit processing must copy back to the current St members: the
   bind-time view can be outdated by a recovered store's Include under
   the independent/nested-top-level schemes (§4.2.1(ii)'s elided
   enhancement). The Include fence — a recovering store must not be
   re-admitted (with a state at the old version fence) between the
   copy-back's target choice and its commit, or St members end up at
   different versions — is a [Note_version] update with [if_rev] under
   the write fence, inside the prepare round: an interleaved membership
   change is a revision conflict and the copy-back retries against fresh
   St ({!Replica.Commit.attach}).

   So each attempt's target need only be a committed (St, revision)
   pair, not a fresh one: a stale pair costs one conflict. The first
   attempt takes [committed] when the bind has one (a [Counted] reply
   reads both from one snapshot) and sends no read; every other attempt
   reads lock-free. Scheme A's [Locked] reply is no such pair: its St is
   the working one, which may hold a staged Exclude that later aborts.

   A validation refused because another action holds the fence is a
   conflict too, but retrying at once would only find the fence still
   held: a membership change holds it through its whole catch-up, which
   a browned-out store can stretch well past three attempts. So the
   next attempt's read is [Settled], which answers once that holder has
   ended, after the copy-back withdrew its prepares. One wait is
   bounded by the lock timeout (30.0), so a read waits up to
   [fence_waits] times, and not past the action's deadline: that
   outlasts a re-inclusion whose every round trip is browned out (its
   catch-up held the fence for up to 130 in random autonomic brownout
   schedules). *)
let fence_waits = 10

let rec settled_read t ~act uid waits =
  match Router.read t.b_router ~act uid Gvd.Settled with
  | Error (Router.Refused _)
    when waits > 1
         && Option.fold ~none:true
              ~some:(fun d -> Sim.Engine.now (Action.Atomic.engine (art t)) < d)
              (Action.Atomic.deadline act) ->
      settled_read t ~act uid (waits - 1)
  | r -> r

(* The one step every bind ends in: attach commit processing to the
   activated group and describe the binding. [rev] is the committed St
   revision of [stores] when the bind holds that pair (a [Counted]
   reply); the first copy-back attempt then targets it. *)
let attach t ~scheme ~act ~uid ?rev ~stores group =
  (* Where the next attempt takes its (St, revision) pair from. *)
  let next = ref (match rev with Some rev -> `Bind (stores, rev) | None -> `Committed) in
  let snapshot_stores () =
    let source = !next in
    next := `Committed;
    match source with
    | `Bind pair -> Ok pair
    | (`Committed | `Settled) as read ->
        or_why
          (if read = `Settled then settled_read t ~act uid fence_waits
           else Router.read t.b_router ~act uid Gvd.Committed)
        |> Result.map (fun v -> (v.Gvd.v_stores, v.Gvd.v_rev))
  in
  let validate act ~version ~rev =
    match Router.update t.b_router ~act ~if_rev:rev uid (Gvd.Note_version version) with
    | Ok { Gvd.o_applied = true; _ } -> `Validated
    | Ok { Gvd.o_applied = false; _ } -> `Conflict
    | Error (Router.Busy _ | Router.Refused _) ->
        (* The write fence is held by a membership change in flight right
           now: retry against the St it commits, once it has. *)
        next := `Settled;
        `Conflict
    | Error (Router.Unreachable why) -> `Failed why
  in
  let exclude act' failed = exclusion t ~scheme ~uid act' failed in
  Replica.Commit.attach t.b_grt act group ~snapshot_stores ~validate ~exclude;
  {
    bd_uid = uid;
    bd_scheme = scheme;
    bd_group = group;
    bd_servers = group.Replica.Group.g_members;
    bd_stores = stores;
  }

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

(* Scheme A's static pick: the first k entries of the static Sv, dead or
   not ("the hard way", §4.1.2), in the network's preference order
   ({!Net.Network.rank_servers}), which steers the pick away from
   browned-out servers. *)
let bind_static t ~act ~uid ~policy ~impl ~servers ~stores =
  let servers = Net.Network.rank_servers (netw t) servers in
  match take (Replica.Policy.replicas policy) servers with
  | [] -> Error (No_server "SvA is empty")
  | chosen -> (
      match
        activate_counted t ~client:(Action.Atomic.node act) ~uid ~impl ~policy
          ~servers:chosen ~stores
      with
      | Error e -> Error e
      | Ok group -> Ok (attach t ~scheme:Scheme.Standard ~act ~uid ~stores group))

(* Figure 6's naming reads are one [Locked] bind request inside a nested
   action: its Read locks on [sv:] and [st:] pass to [act] on nested
   commit and are held to top-level completion — the exclusion fence. A
   writer's commit stages its version note under [act] at the shard, so
   they last to phase 2; a reader's end at its read-only prepare. *)
let bind_standard t ~act ~uid ~policy =
  match
    Action.Atomic.atomically_nested act (fun nested ->
        match Router.bind t.b_router ~act:nested ~uid Gvd.Locked with
        | Ok bv -> bv
        | Error f -> raise (Action.Atomic.Abort (Router.failure_to_string f)))
  with
  | Error why -> Error (Name_refused why)
  | Ok { Gvd.bv_impl = impl; bv_servers; bv_stores; _ } ->
      let bound = bind_static t ~act ~uid ~policy ~impl ~servers:bv_servers ~stores:bv_stores in
      if Result.is_ok bound then Sim.Metrics.observe (metrics t) "bind.naming_rounds" 1.0;
      bound

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: use lists, removal of dead servers *)

(* The database half of a Figure-7/8 bind: ONE [Counted] bind round —
   GetServer + Remove(dead) + Increment + GetView collapsed server-side,
   with the caller's pending decrement credits piggybacked. Runs inside a
   top-level action of its own, as that action's only request, so the
   shard votes in the reply: the action's commit sends the shard no
   prepare, only phase 2. *)
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
  match Router.update t.b_router ~act uid (Gvd.Decrement { client; servers }) with
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

(* The rest of a Figure-7/8 bind once its bind action, which carried
   [credits], has ended: activation, as a prebinding. *)
let counted_activation t ~client ~uid ~policy ~credits bind_action =
  match bind_action with
  | Error why ->
      restore_credits t ~client ~uid credits;
      Error (Name_refused why)
  | Ok bv -> (
      Sim.Metrics.observe (metrics t) "bind.naming_rounds" 1.0;
      let chosen = bv.Gvd.bv_servers in
      match
        activate_counted t ~client ~uid ~impl:bv.Gvd.bv_impl ~policy
          ~servers:chosen ~stores:bv.Gvd.bv_stores
      with
      | Error e ->
          (* The bind action already incremented use lists; pair it with
             the Decrement even though activation failed. *)
          credit_release t ~client ~uid ~servers:chosen;
          Error e
      | Ok group ->
          Ok { pb_uid = uid; pb_client = client; pb_group = group; pb_view = bv; pb_released = false })

let bind_independent t ~client ~uid ~policy =
  let credits = take_credits t ~client ~uid in
  counted_activation t ~client ~uid ~policy ~credits
    (Action.Atomic.atomically (art t) ~node:client (fun act ->
         fresh_bind_db t ~uid ~policy ~credits act))

(* A Figure-7/8 bind's copy-back starts from its reply's committed
   (StA, revision) pair. *)
let attach_prebinding t ~scheme ~act pb =
  attach t ~scheme ~act ~uid:pb.pb_uid ~rev:pb.pb_view.Gvd.bv_rev ~stores:pb.pb_view.Gvd.bv_stores
    pb.pb_group

let use_prebinding t ~act pb = Ok (attach_prebinding t ~scheme:Scheme.Independent ~act pb)

let release_independent t pb =
  if not pb.pb_released then begin
    pb.pb_released <- true;
    credit_release t ~client:pb.pb_client ~uid:pb.pb_uid ~servers:pb.pb_view.Gvd.bv_servers
  end

let bind_nested_toplevel t ~act ~uid ~policy =
  let client = Action.Atomic.node act in
  let credits = take_credits t ~client ~uid in
  match
    counted_activation t ~client ~uid ~policy ~credits
      (Action.Atomic.atomically_nested_top act (fun dbact ->
           fresh_bind_db t ~uid ~policy ~credits dbact))
  with
  | Error e -> Error e
  | Ok pb ->
      let binding = attach_prebinding t ~scheme:Scheme.Nested_toplevel ~act pb in
      let release () = credit_release t ~client ~uid ~servers:pb.pb_view.Gvd.bv_servers in
      (* The trailing Decrement is credited when the client action
         ends, whichever way. *)
      Action.Atomic.after_commit act release;
      Action.Atomic.on_abort act release;
      Ok binding

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
  let stores = e.Bind_cache.ce_stores in
  match
    activate_counted t ~client ~uid ~impl:e.Bind_cache.ce_impl ~policy
      ~servers:e.Bind_cache.ce_servers ~stores
  with
  | Error _ -> None
  | Ok group ->
      let binding = attach t ~scheme ~act ~uid ~stores group in
      Action.Atomic.on_abort act (fun () ->
          Bind_cache.invalidate cache ~client uid);
      (* A commit just revalidated the entry (its copy-back target
         validated against the committed St revision, stores
         backward-validated the activation): renew its lease. *)
      Action.Atomic.after_commit act (fun () ->
          Bind_cache.renew cache ~now:(Sim.Engine.now (Action.Atomic.engine (art t)))
            ~client uid);
      Sim.Metrics.observe (metrics t) "bind.naming_rounds" 0.0;
      Some binding

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
