(** Coordinator-side group commit: concurrent 2PC copy-backs whose store
    sets overlap merge into one batch that pays one prepare round and one
    phase-2 round per store, each carrying the members' per-action
    sub-records ({!Action.Store_host.prepare_all} /
    {!Action.Store_host.commit_all}).

    Batches close on a fixed {!window} with quiescence-pull: the window
    ends early as soon as no commit that could still join is in flight,
    so a lone commit never waits. Every commit of {!Commit.attach} goes
    through the plane; a batch of one scatters the same rounds with one
    sub-record each.
    Everything transactional stays per action — a member refused at any
    store is peeled out for a solo retry; its batchmates are
    unaffected. Every store scatter the plane issues (batch rounds,
    peel-out and orphan retries, phase-2 commit/abort) is idempotent at
    the store, so under a gray-failure profile each races a
    health-delayed backup copy ({!Net.Rpc.call_all}'s [idempotent]). *)

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
    turned out read-only. Idempotent; {!prepare}, {!commit} and {!abort}
    settle their own token. *)

val prepare :
  t ->
  token ->
  ?deadline_at:float ->
  st:Net.Network.node_id list ->
  client:Net.Network.node_id ->
  action:string ->
  (Net.Network.node_id * (Store.Uid.t * Store.Object_state.t) list) list ->
  (Net.Network.node_id * (Action.Store_host.vote, Net.Rpc.error) result) list
(** Join (or open and lead) a batch and return this member's per-store
    votes, shaped exactly like {!Action.Store_host.prepare_each}'s
    result. Suspends up to the window (plus an orphan grace if the batch
    leader died). A multi-member batch vote short of all-yes re-runs the
    solo prepare and returns its verdict instead (peel-out). Must run in
    a fiber on [client].

    [deadline_at] (the action's deadline) and [st] (the object's store
    set, {!Action.Store_host.prepare_all}) apply only to the scatters
    issued on this member's own behalf — a batch of one, the peel-out
    retry and the orphan fallback. A multi-member prepare round carries
    no deadline, because one member's expiry must not shed its
    batchmates' prepares, and never sibling-routes (see
    {!Action.Store_host.prepare_all}). *)

(** {2 Phase 2} *)

val expect_phase2 : t -> client:Net.Network.node_id -> token
(** Register a sealed commit of [client] whose phase 2 is still to come:
    phase-2 batches hold their window open for every such token until it
    settles through {!commit} or {!abort}, or [client] crashes. *)

val commit :
  t ->
  token ->
  st:Net.Network.node_id list ->
  client:Net.Network.node_id ->
  stores:Net.Network.node_id list ->
  string ->
  unit
(** Batched phase-2 commit: returns once this member's commit round has
    been answered (or has failed; a store that missed it resolves the
    action through in-doubt recovery). Must run in a fiber on [client].

    [st] serves the orphan fallback and — as the leader's — the batch's
    commit round, whatever its size (safe: an unknown action resolves as
    a no-op at the store). *)

val abort :
  t ->
  token ->
  st:Net.Network.node_id list ->
  client:Net.Network.node_id ->
  stores:Net.Network.node_id list ->
  string ->
  unit
(** Phase-2 abort: settles the {!expect_phase2} token and issues the
    ordinary solo abort scatter (aborts are not batched). *)
