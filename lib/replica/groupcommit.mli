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
    unaffected. Under a gray-failure profile ({!Net.Network.hedged})
    every store scatter the plane issues (batch rounds, peel-out and
    orphan retries, phase-2 commit/abort) races a health-delayed backup copy
    ({!Net.Rpc.call_all}'s [?hedge]) — safe because every one of them is
    idempotent at the store. *)

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
(** A commit known to be approaching its prepare. While any token is
    outstanding, open batches hold for it (up to their window). *)

val enter : t -> token
(** Commit processing started for some action: open batches may no longer
    quiesce-close until the token arrives ({!prepare}) or leaves. *)

val leave : t -> token -> unit
(** The commit is no longer approaching — it prepared, aborted early, or
    turned out read-only. Idempotent; {!prepare} settles its own token. *)

val prepare :
  t ->
  token ->
  ?deadline_at:float ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  client:Net.Network.node_id ->
  action:string ->
  (Net.Network.node_id * (Store.Uid.t * Action.Store_host.write) list) list ->
  (Net.Network.node_id * (Action.Store_host.vote, Net.Rpc.error) result) list
(** Join (or open and lead) a batch and return this member's per-store
    votes, shaped exactly like {!Action.Store_host.prepare_each}'s
    result. Suspends up to the window (plus an orphan grace if the batch
    leader died). A multi-member batch vote short of all-yes re-runs the
    solo prepare and returns its verdict instead (peel-out). Must run in
    a fiber on [client].

    [deadline_at] (the action's deadline) and [alt_of] (the member's
    sibling-hedge map, {!Action.Store_host.prepare_all}) apply only to
    the scatters issued on this member's own behalf — a batch of one,
    the peel-out retry and the orphan fallback. A multi-member prepare
    round carries no deadline, because one member's expiry must not shed
    its batchmates' prepares, and never alt-routes (see
    {!Action.Store_host.prepare_all}). *)

(** {2 Phase 2} *)

val expect_phase2 : t -> unit
(** Register a sealed commit whose phase 2 is still to come: phase-2
    batches hold their window open for every registration until it
    settles through {!commit} or {!abort}. *)

val commit :
  t ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  client:Net.Network.node_id ->
  stores:Net.Network.node_id list ->
  string ->
  (Net.Network.node_id * (unit, Net.Rpc.error) result) list
(** Batched phase-2 commit: this member's per-store acks. Must run in a
    fiber on [client].

    [alt_of] sibling-routes the orphan fallback and — as the leader's
    map — the batch's commit round, whatever its size (safe: an unknown
    action resolves as a no-op at the store, and a sibling win surfaces
    as the leg's error). *)

val abort :
  t ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  client:Net.Network.node_id ->
  stores:Net.Network.node_id list ->
  string ->
  (Net.Network.node_id * (unit, Net.Rpc.error) result) list
(** Phase-2 abort: settles the {!expect_phase2} registration and issues
    the ordinary solo abort scatter (aborts are not batched). *)
