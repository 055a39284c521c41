(** The group view database — the paper's naming-and-binding service.

    One persistent object (as in Arjuna, §5) hosted on a designated service
    node, combining the two databases of §4:

    - the {e Object Server database}: per object [A], the set [SvA] of
      nodes able to run a server for [A], with per-node {e use lists}
      [<client, count>] ({!Use_list});
    - the {e Object State database}: per object, the set [StA] of nodes
      whose object stores hold a state of [A].

    Every entry is concurrency-controlled independently, with separate
    lock keys for its server list and its state list. Operations execute
    as RPC handlers on the service node {e on behalf of the caller's
    atomic action}: they take locks owned by that action and record
    before-images, and the database participates in the action's
    completion through a {!Action.Resource_host} manager — commit drops
    the before-images and releases the locks, abort restores and
    releases, nested commit transfers both to the parent action. An
    action whose record here staged nothing (read locks only, or a fence
    whose op changed nothing) votes read-only at prepare: its locks and
    record go there, and it gets no phase 2. A [Counted] {!bind}, and a
    commit's {!validate} asked to vote, instead carry the yes vote in
    their reply; the shard then refuses
    ([Refused "action already prepared"]) every later {!read}, {!update},
    {!validate} or {!bind} of that action.

    The paper's type-specific concurrency control is implemented exactly:
    [Exclude] first tries to promote the caller's read lock to the
    {e exclude-write} mode, which is compatible with other readers
    (§4.2.1); construction flag [use_exclude_write] turns this off for the
    ablation benchmark (plain write promotion).

    The service node is assumed always available (§3.1); this module
    therefore keeps its state in memory of that node and never crashes
    it in experiments. *)

type t
(** The database runtime (client handle and server state). *)

val install :
  ?use_exclude_write:bool ->
  ?durable:bool ->
  ?service_time:float ->
  Action.Atomic.runtime ->
  node:Net.Network.node_id ->
  t
(** [install art ~node] hosts the database on [node] and registers its
    endpoints and resource manager. Lock waits inside handlers are
    bounded by {!Lockmgr.Manager.wait_bound}; a timed-out wait refuses
    the operation.
    [use_exclude_write] (default true) selects the §4.2.1 lock type for
    [Exclude].

    [durable] (default false) drops the paper's always-available
    assumption for the service node: entries behave as a persistent
    object (committed images survive a crash of the node), while its lock
    table and the before-images of in-flight actions are volatile — after
    a crash, every action started before it votes {e no} at prepare, so
    nothing half-done ever commits against the restored database.

    [service_time] (default 0.0) models the CPU cost of one database
    operation: each workload-path handler first queues for the node's
    single service unit and holds it that long. The default keeps the
    node infinitely fast, byte-for-byte the seed behaviour; a positive
    value makes a single naming node a measurable bottleneck, which is
    what the sharded tier ({!Router}) relieves.

    Every request carrying a database operation — {!read}, {!update},
    {!bind} — pays [service_time].

    The plain reads issued outside any action — {!lookup},
    {!entry_info}, {!snapshot} — are idempotent calls
    ({!Net.Rpc.call}'s [idempotent]): under a gray-failure profile they
    race a health-delayed backup copy. Requests issued for an action are
    {e not} idempotent and are never hedged: they take locks and stage
    counter updates, and a hedged duplicate would ride below the RPC
    duplicate guard (e.g. a double-staged Increment in a [Counted]
    {!bind}). *)

val node : t -> Net.Network.node_id
(** The service node. *)

(** Outcome of a database operation: [Refused] means a lock could not be
    granted or a precondition failed (the caller should abort its
    action); [Busy] means the object is not quiescent ([Insert],
    [Retire_sv]) or, for a handoff, locked; [Moved] is the wrong-shard
    bounce — the entry was handed off to the given naming node and the
    caller (normally {!Router}) should retry there. *)
type 'a reply =
  | Granted of 'a
  | Busy of string
  | Refused of string
  | Moved of Net.Network.node_id

(** {2 Administrative operations} (no locking; used at world setup and by
    tests) *)

val register_direct :
  t ->
  uid:Store.Uid.t ->
  name:string ->
  impl:string ->
  sv:Net.Network.node_id list ->
  st:Net.Network.node_id list ->
  unit
(** Out-of-band registration at world-setup time, before the simulation
    starts: applies immediately, no fiber or network round trip. *)

val lookup :
  t -> from:Net.Network.node_id -> string -> (Store.Uid.t option, Net.Rpc.error) result
(** Name → UID resolution (§2.2). *)

type entry_info = {
  ei_impl : string;
  ei_sv_home : Net.Network.node_id list;
      (** every node ever admitted to [SvA] (the static capability set) *)
  ei_st_home : Net.Network.node_id list;
      (** every node ever admitted to [StA] *)
}

val entry_info :
  t -> from:Net.Network.node_id -> Store.Uid.t -> (entry_info option, Net.Rpc.error) result

val stored_on :
  t -> from:Net.Network.node_id -> Net.Network.node_id -> (Store.Uid.t list, Net.Rpc.error) result
(** Objects whose [st_home] contains the node; recovery uses this to know
    what to reintegrate. *)

val served_by :
  t -> from:Net.Network.node_id -> Net.Network.node_id -> (Store.Uid.t list, Net.Rpc.error) result
(** Objects whose [sv_home] contains the node. *)

(** {2 The paper's operations}

    Three request shapes serve the eight operations of §4 (GetServer,
    Insert, Remove, Increment, Decrement; GetView, Exclude, Include) and
    the extensions built on them: one {!read}, one typed {!update} and
    the single-round {!bind}. Every committing action installs a
    fresh immutable snapshot of the entry halves it touched and bumps a
    per-entry version; lock-free reads see only these snapshots. *)

(** What a read returns and which lock it takes. *)
type read =
  | Servers
      (** GetServer (§4.1): a Read lock on [SvA] for the action, held to
          its end (its prepare, if it stages nothing here); enlisted.
          [v_servers] is the working [SvA]. *)
  | Stores
      (** GetView (§4.2): a Read lock on [StA] for the action; enlisted.
          [v_stores] is the working [StA]. *)
  | Committed
      (** The lock-free committed read: no lock, no enlistment, nothing
          to undo or release. Every field comes from the committed
          snapshot. *)
  | Settled
      (** The [Committed] read, answered once no membership change holds
          [StA]'s write lock: the handler waits for a Read grant on
          [StA] for the action and gives it back at once, so the action
          holds nothing afterwards and is not enlisted. An action that
          holds a lock on [StA] itself answers at once. A wait past
          {!Lockmgr.Manager.wait_bound} is [Refused], like any lock
          wait. A commit whose validation found the write fence held by
          another action reads its next [St] this way. *)

type view = {
  v_servers : Net.Network.node_id list;  (** [SvA] *)
  v_stores : Net.Network.node_id list;  (** [StA] *)
  v_version : int;  (** entry snapshot version *)
  v_rev : int;
      (** committed St revision, the [if_rev] of {!update}. It is always
          the committed one: a locked [Stores] read pairs the {e working}
          [v_stores] (which may hold another action's staged [Exclude])
          with it, so only a [Committed] read gives a (St, revision) pair
          that validation can rely on. *)
}
(** One view of an entry. The half a locked read covers comes from the
    working image; everything else from the committed snapshot. *)

val read :
  t -> act:Action.Atomic.t -> Store.Uid.t -> read -> (view reply, Net.Rpc.error) result
(** [read t ~act uid r], issued from [act]'s node. Never hedged. *)

val snapshot :
  t -> from:Net.Network.node_id -> Store.Uid.t -> (view reply, Net.Rpc.error) result
(** The [Committed] read issued outside any action, an idempotent call
    like {!lookup}. *)

val get_server :
  t -> act:Action.Atomic.t -> Store.Uid.t -> (view reply, Net.Rpc.error) result
(** GetServer: [read t ~act uid Servers]. *)

val get_view :
  t -> act:Action.Atomic.t -> Store.Uid.t -> (view reply, Net.Rpc.error) result
(** GetView: [read t ~act uid Stores]. *)

(** A mutation of one entry. Each op declares the half it writes, the
    lock it takes there and a pure transform of that half:

    - [Sv] half, blocking [Write] lock, applied in place behind a
      before-image: [Insert] (needs quiescence — all use lists empty —
      else [Busy], §4.1.2), [Remove], [Zero] (drop every counter of a
      crashed client, §4.1.3) and [Retire_sv] (leave [SvA] and
      [sv_home] for good, so recovery will not re-insert; needs
      quiescence).
    - [Sv] half, blocking {!Lockmgr.Mode.Delta} lock, staged as a redo
      record applied at commit and dropped at abort: [Increment] and
      [Decrement] of [client]'s counter in the use list of each listed
      server (§4.1.3). Counter updates commute, so concurrent binders do
      not serialise.
    - [St] half, blocking [Write] lock: [Include] (re-admit a store) and
      [Retire_st] (leave [StA] and [st_home] for good).
    - [St] half, the §4.2.1 write fence — exclude-write, compatible with
      readers, taken without waiting (promoting the action's read lock
      when it has one): [Exclude] (§4.2; refused rather than empty
      [StA] — the last state holder is never excluded, however sick) and
      [Note_version] (record the version the committing action installs;
      the fence {!outcome} reports). *)
type op =
  | Insert of Net.Network.node_id
  | Remove of Net.Network.node_id
  | Increment of { client : Net.Network.node_id; servers : Net.Network.node_id list }
  | Decrement of { client : Net.Network.node_id; servers : Net.Network.node_id list }
  | Zero of Net.Network.node_id  (** the crashed client *)
  | Include of Net.Network.node_id
  | Exclude of Net.Network.node_id list
  | Retire_sv of Net.Network.node_id
  | Retire_st of Net.Network.node_id
  | Note_version of Store.Version.t

type outcome = {
  o_applied : bool;  (** false only when [if_rev] did not match *)
  o_fence : Store.Version.t;
      (** the entry's committed-version fence. After
          an [Include], the caller must hold (or fetch) a state at least
          that new before its inclusion action may commit, else a store
          whose state was rewound by unlucky crash timing would serve
          stale activations. *)
}

val update :
  t ->
  act:Action.Atomic.t ->
  ?if_rev:int ->
  Store.Uid.t ->
  op ->
  (outcome reply, Net.Rpc.error) result
(** [update t ~act uid op] runs one op on one entry for [act], enlisted,
    never hedged. The handler runs every request in the same order: the
    ownership check (an entry this shard does not hold answers [Moved]
    or [Refused "unknown object"] before anything is recorded for the
    action), the op's lock ([Refused] if a blocking lock times out after
    {!Lockmgr.Manager.wait_bound} or a fence is unavailable), the
    [if_rev] check, the precondition ([Busy] or [Refused]), then stage
    or apply. A refusal leaves the entry untouched; a lock already
    granted stays with [act] until it ends.

    [if_rev] is decide-then-mutate in one round (§13): apply the op only
    if the entry's committed St revision still equals it.
    On a mismatch nothing is applied ([o_applied = false]) but the fence
    just taken is {e kept}, so the caller's re-read sees a revision that
    can no longer move and a moved revision costs one retry. A fence
    that cannot be had is a [Refused] and keeps nothing. With
    [Note_version], this is the optimistic commit's validate-and-note,
    inside the prepare round; with [Exclude], the autonomic controller's
    validated exclusion. Idempotent under duplicate delivery except for
    staged counter ops. *)

val validate :
  t ->
  act:Action.Atomic.t ->
  rev:int ->
  vote:bool ->
  Store.Uid.t ->
  Store.Version.t ->
  (outcome reply, Net.Rpc.error) result
(** [validate t ~act ~rev ~vote uid version] is the optimistic commit's
    validate-and-note: [update ~if_rev:rev uid (Note_version version)].
    With [vote] — the validate is the last request of [act]'s last
    before-commit hook ({!Action.Atomic.last_hook}), so nothing more of
    [act] comes here — a validate that applies also prepares [act] at
    the shard and votes yes in its reply, as a [Counted] bind does
    ({!Action.Resource_host}): the shard is enlisted as voted, commit
    sends it no prepare, and every later request of [act] is refused. A
    moved revision ([o_applied = false]) or a refusal carries no vote,
    so the retry validates again. A lost reply fails the call, and the
    commit aborts. *)

(** {2 Single-round bind}

    One request carries the whole database half of a bind under every
    scheme; the schemes differ only in what the request asks of the
    entry. *)

(** What a bind needs from the entry. *)
type bind_use =
  | Locked
      (** Scheme A (Figure 6): GetServer then GetView — a Read lock on
          [SvA] and then on [StA] for the action, held to its end (its
          prepare, if it stages nothing here). Changes nothing. The
          reply's halves are the working [SvA] and [StA]. *)
  | Counted of { replicas : int; credits : (Net.Network.node_id * int) list }
      (** Schemes B/C (Figures 7/8): GetServer + Remove(dead) +
          Increment(chosen) + GetView, with the caller's coalesced pending
          Decrements ([credits], one count per server node) piggybacked.
          Runs in [Delta] lock mode unless a listed server is detectably
          dead (then a structural write). [replicas] is the
          activation-subset size wanted when no server is in use yet.

          A granted [Counted] bind prepares the action in the same
          handler — the vote in the reply of {!Action.Resource_host}:
          the action's stage becomes stable and the client stub
          enlists the shard as already voted, so commit sends it no
          [resource.prepare]. It must therefore be the only request its
          top-level action sends to that shard: the shard refuses every
          later request of an action it has prepared. A lost reply
          leaves the shard enlisted unvoted and not required; the failed
          bind aborts the action, and the abort reaches the shard as
          usual. *)

type bind_view = {
  bv_impl : string;  (** implementation name (saves the impl lookup) *)
  bv_servers : Net.Network.node_id list;
      (** [Locked]: the working [SvA]; [Counted]: the activation subset
          whose counters were incremented *)
  bv_removed : Net.Network.node_id list;
      (** detectably dead servers pruned from [SvA] in the same round
          ([Counted] only) *)
  bv_stores : Net.Network.node_id list;
      (** [Locked]: the working [StA]; [Counted]: the committed [StA]
          snapshot *)
  bv_rev : int;
      (** the committed St revision. [Counted]: read from the same
          snapshot as [bv_stores], so ([bv_stores], [bv_rev]) is a
          committed pair — the one a scheme-B/C commit validates its
          first copy-back attempt against, with no commit-time read.
          [Locked]: paired with the {e working} [StA], which may include
          another action's staged [Exclude] (the exclude-write lock is
          compatible with Read) while the revision is still the committed
          one; not a pair to validate against. *)
}

val bind :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> bind_use ->
  (bind_view reply, Net.Rpc.error) result
(** The whole database half of a bind in one RPC round, for [act] and
    from [act]'s node (the client whose counters a [Counted] bind
    bumps). Enlisted, never hedged; a granted [Counted] bind is enlisted
    as voted. *)

val committed_version : t -> Store.Uid.t -> Store.Version.t
(** Introspection: the current committed-version fence. *)

(** {2 Replicating the service itself} (§3.1's deferred extension)

    The paper notes the naming service "can be replicated in order to be
    able to provide highly available service" and then assumes it always
    available. These hooks implement a primary-backup pair: the primary
    pushes the committed images of every entry an action touched to the
    backup, synchronously, when the action ends; a recovering instance
    pulls a full snapshot from its peer before resuming. Mastership is
    decided by the clients' failure detector (bind against the backup only
    while the primary is down); install both instances with
    [~durable:true] so their volatile halves fence correctly across
    crashes. *)

val mirror_to : t -> t -> unit
(** [mirror_to primary backup]: push committed images to [backup] at every
    action end. Push failures are tolerated (the backup resynchronises on
    recovery). Set in both directions for a symmetric pair. *)

val resync_from :
  t -> source:t -> from:Net.Network.node_id -> (unit, Net.Rpc.error) result
(** Pull a full snapshot of committed images from [source] (an RPC issued
    from [from], normally the caller's own recovering node) and install it
    locally. *)

(** {2 Shard handoff} (online rebalance; used by {!Router})

    An entry migrates shard-to-shard without quiescing the workload: the
    source removes it and leaves a [Moved] marker in one atomic handler
    (only when no locks are held or queued on it — [Busy] otherwise, and
    the router retries until in-flight actions drain), and the receiving
    instance installs it in-process immediately after the reply. Requests
    racing the migration are healed by the [Moved] bounce.

    The source keeps the handed-off image beside its marker until the
    router reports it installed ({!settle_handoff}): a handoff whose
    reply was lost was still applied, and a repeated handoff to the same
    destination grants the same image again instead of answering with
    the marker. *)

type handoff
(** A migrating entry in flight: image, names, use lists and the
    committed-version fence travel together. *)

val handoff_out :
  t ->
  from:Net.Network.node_id ->
  uid:Store.Uid.t ->
  dest:Net.Network.node_id ->
  (handoff reply, Net.Rpc.error) result
(** Ask this instance to release [uid] for migration to [dest] (RPC; must
    run in a fiber). [Busy] if the entry has lock activity. *)

val accept_handoff : t -> handoff -> unit
(** Install a migrated entry on this instance (direct, no network). *)

val settle_handoff : t -> Store.Uid.t -> unit
(** On the source of a handoff, once the destination installed the entry
    (direct, no network): drop the kept image; the [Moved] marker
    stays. *)

val unsettled_handoff : t -> Store.Uid.t -> handoff option
(** On the source of a handoff, the image it keeps for [uid] because the
    destination has not installed it yet (direct, no network). *)

val owns : t -> Store.Uid.t -> bool
(** Whether this instance currently holds the entry for [uid]. *)

(** {2 Introspection} (tests, experiments; direct access) *)

val current_sv : t -> Store.Uid.t -> Net.Network.node_id list
val current_st : t -> Store.Uid.t -> Net.Network.node_id list
val current_uses : t -> Store.Uid.t -> (Net.Network.node_id * Use_list.t) list
val quiescent : t -> Store.Uid.t -> bool
val all_uids : t -> Store.Uid.t list

val snapshot_version : t -> Store.Uid.t -> int
(** The entry's committed snapshot version: bumped exactly once per
    committing action that touched the entry, never decremented. *)

val st_revision : t -> Store.Uid.t -> int
(** The committed St revision: bumped exactly once per committing action
    that changed the [StA] member list, never by version notes or
    use-list traffic. Always ≤ {!snapshot_version}'s growth — audits
    assert the monotone relation. *)

val residual_locks :
  t -> (string * (Lockmgr.Manager.owner * Lockmgr.Mode.t) list) list
(** Database lock-table keys still held by some action. A quiesced world
    has released everything: audits assert this is empty. *)

val residual_actions : t -> string list
(** Actions that still have staged deltas or before-images on this shard
    — empty once every action has completed (committed or aborted). *)
