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
    releases, nested commit transfers both to the parent action.

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
    bounded at 30.0; a timed-out wait refuses the operation.
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

val resource : string
(** The {!Action.Resource_host} resource name, ["gvd"]. *)

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
          its end; enlisted. [v_servers] is the working [SvA]. *)
  | Stores
      (** GetView (§4.2): a Read lock on [StA] for the action; enlisted.
          [v_stores] is the working [StA]. *)
  | Committed
      (** The lock-free committed read: no lock, no enlistment, nothing
          to undo or release. Every field comes from the committed
          snapshot. *)

type view = {
  v_servers : Net.Network.node_id list;  (** [SvA] *)
  v_stores : Net.Network.node_id list;  (** [StA] *)
  v_version : int;  (** entry snapshot version *)
  v_rev : int;  (** committed St revision, the [if_rev] of {!update} *)
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
      when it has one): [Exclude] (§4.2), [Evict] (exclude one store,
      refused rather than empty [StA] — the last state holder is never
      evicted, however sick) and [Note_version] (record the version the
      committing action installs; the fence {!outcome} reports). *)
type op =
  | Insert of Net.Network.node_id
  | Remove of Net.Network.node_id
  | Increment of { client : Net.Network.node_id; servers : Net.Network.node_id list }
  | Decrement of { client : Net.Network.node_id; servers : Net.Network.node_id list }
  | Zero of Net.Network.node_id  (** the crashed client *)
  | Include of Net.Network.node_id
  | Exclude of Net.Network.node_id list
  | Evict of Net.Network.node_id
  | Retire_sv of Net.Network.node_id
  | Retire_st of Net.Network.node_id
  | Note_version of Store.Version.t

type outcome = {
  o_applied : bool;  (** false only when [if_rev] did not match *)
  o_fence : Store.Version.t;
      (** the newest committed-version fence of the named entries. After
          an [Include], the caller must hold (or fetch) a state at least
          that new before its inclusion action may commit, else a store
          whose state was rewound by unlucky crash timing would serve
          stale activations. *)
}

val update :
  t ->
  act:Action.Atomic.t ->
  ?if_rev:int ->
  (Store.Uid.t * op) list ->
  (outcome reply, Net.Rpc.error) result
(** Run the ops for [act], enlisted, never hedged. One handler runs every
    request in the same order: the ownership check (any entry this shard
    does not hold answers [Moved] or [Refused "unknown object"] before
    anything is recorded for the action), the lock of every op in request
    order ([Refused] if a blocking lock times out after 30.0 or a fence
    is unavailable), the [if_rev] check, the preconditions ([Busy] or
    [Refused]), then stage or apply. A refusal leaves the entries
    untouched; locks already granted stay with [act] until it ends.

    [if_rev] is decide-then-mutate in one round (§13): apply the ops only
    if the committed St revision of every named entry still equals it.
    On a mismatch nothing is applied ([o_applied = false]) but the fence
    just taken is {e kept}, so the caller's re-read sees a revision that
    can no longer move and one conflict costs one retry. With
    [Note_version], this is the optimistic commit's validate-and-note,
    inside the prepare round; with [Evict], the autonomic controller's
    validated exclusion. Idempotent under duplicate delivery except for
    staged counter ops. *)

(** {2 Single-round bind}

    One request carries the whole database half of a bind under every
    scheme; the schemes differ only in what the request asks of the
    entry. *)

(** What a bind needs from the entry. *)
type bind_use =
  | Locked
      (** Scheme A (Figure 6): GetServer then GetView — a Read lock on
          [SvA] and then on [StA] for the action, held to its end. Changes
          nothing. The reply's halves are the working [SvA] and [StA]. *)
  | Counted of { replicas : int; credits : (Net.Network.node_id * int) list }
      (** Schemes B/C (Figures 7/8): GetServer + Remove(dead) +
          Increment(chosen) + GetView, with the caller's coalesced pending
          Decrements ([credits], one count per server node) piggybacked.
          Runs in [Delta] lock mode unless a listed server is detectably
          dead (then a structural write). [replicas] is the
          activation-subset size wanted when no server is in use yet. *)

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
}

val bind :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> bind_use ->
  (bind_view reply, Net.Rpc.error) result
(** The whole database half of a bind in one RPC round, for [act] and
    from [act]'s node (the client whose counters a [Counted] bind
    bumps). Enlisted, never hedged. *)

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
    racing the migration are healed by the [Moved] bounce. *)

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
