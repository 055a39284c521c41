(** Coordinator-side group commit: concurrent 2PC copy-backs whose store
    sets overlap merge into one batch that pays one prepare round and one
    phase-2 round per store, each carrying the members' per-action
    sub-records ({!Action.Store_host.prepare_all} /
    {!Action.Store_host.commit_all}).

    Both phases run one mechanism: a member joins (or opens and leads)
    a batch, and the leader scatters the phase's round for all of them
    and hands each member its own result per store. Batches close on a
    fixed {!window} with quiescence-pull: the window ends early as soon
    as no commit that could still join is in flight, so a lone commit
    never waits. A member whose object has waiters closes its batch at
    once: the window trades a member's latency for fewer store rounds,
    which pays only when nobody waits on the member's lock. Every commit
    of {!Commit.attach} goes through the plane; a batch of one scatters
    the same rounds with one sub-record each.
    Everything transactional stays per action — a member refused at any
    store is peeled out and prepares again in a batch of one; its
    batchmates are unaffected. A member whose leader died runs the same
    round as a batch of one too. Every store scatter the plane issues is
    idempotent at the store, so under a gray-failure profile each races
    a health-delayed backup copy ({!Net.Rpc.call_all}'s [idempotent]). *)

type t

val create :
  engine:Sim.Engine.t ->
  store_host:Action.Store_host.t ->
  metrics:Sim.Metrics.t ->
  t
(** One plane per {!Server.runtime}. *)

val window : float
(** The batch window in simulated time (2.0). *)

(** {2 Phase 1} *)

type token
(** A commit known to be approaching a phase of the plane. While any
    token of a phase is outstanding, that phase's open batches hold for
    it (up to their window). *)

val enter : t -> client:Net.Network.node_id -> token
(** Commit processing started for some action of [client]: open phase-1
    batches may no longer quiesce-close until the token arrives
    ({!prepare}) or leaves, or [client] crashes (a crash releases every
    token its client holds). *)

val leave : t -> token -> unit
(** The commit is no longer approaching — it prepared, aborted early, or
    turned out read-only — or a sealed commit aborted after all, so its
    phase 2 will never come. Idempotent; {!prepare} and {!commit} settle
    their own token. Aborts are not batched: the caller sends them. *)

val prepare :
  t ->
  token ->
  ?deadline_at:float ->
  contended:bool ->
  client:Net.Network.node_id ->
  action:string ->
  (Net.Network.node_id * (Store.Uid.t * Store.Object_state.t) list) list ->
  (Net.Network.node_id * (Action.Store_host.vote, Net.Rpc.error) result) list
  * Net.Network.node_id list
(** Join (or open and lead) a batch and return this member's vote per
    store, in the order of the list passed. Suspends up to the window
    (plus an orphan grace if the batch leader died, after which the
    member prepares in a batch of one). [contended] (another action
    waits on the lock the member's action holds,
    {!Server.commit_view}'s [cv_contended]) closes the batch at once,
    once the member is in it: the leader sends the round, and members
    that joined before ride along. A multi-member batch vote short
    of all-yes prepares again in a batch of one and returns its verdict
    instead (peel-out). Must run in a fiber on [client].

    The second component lists the stores whose yes vote a peel-out
    discarded: they staged the member's intent, whatever the retry's
    verdict says about them. It is empty unless the member peeled.

    [deadline_at] (the action's deadline) applies only to the rounds
    issued on this member's own behalf: its batches of one. A
    multi-member prepare round carries no deadline, because one
    member's expiry must not shed its batchmates' prepares. *)

(** {2 Phase 2} *)

val expect_phase2 : t -> client:Net.Network.node_id -> token
(** Register a commit of [client] whose phase 2 is still to come, taken
    when the commit first joins phase 1: phase-2 batches hold their
    window open for every such token until it settles through {!commit}
    or {!leave}, or [client] crashes. Taking it at the seal instead would
    hold phase-2 batches for nobody: a commit whose votes all came
    before its seal reaches phase 2 without suspending, so every
    phase-2 round would go out alone. *)

val commit :
  t ->
  token ->
  contended:bool ->
  client:Net.Network.node_id ->
  action:string ->
  (Net.Network.node_id * (Store.Uid.t * Store.Object_state.t) list) list ->
  (Net.Network.node_id * (unit, Net.Rpc.error) result) list
(** [commit t tok ~contended ~client ~action prepared]: batched phase-2
    commit of the sub-records [action] prepared, one per store that voted
    yes. It returns once this member's commit round has been answered,
    with its result per store in [prepared] order, the way {!prepare}
    hands out votes; [contended] closes the batch at once as there. A failed leg is the caller's to deliver again
    ({!Action.Atomic.release_later}): the plane never retries. Must run
    in a fiber on [client]. *)
