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

    Under a gray-failure profile ({!Net.Network.hedged}) the plain
    idempotent reads — {!lookup}, {!entry_info}, {!get_view_snapshot} —
    race a health-delayed backup copy
    ({!Net.Rpc.call_hedged}). The enlisted operations are {e never}
    hedged: they take locks and stage counter updates, and a hedged
    duplicate would ride below the RPC duplicate guard (e.g. a
    double-staged Increment in [bind_batch]). *)

val node : t -> Net.Network.node_id
(** The service node. *)

val resource : string
(** The {!Action.Resource_host} resource name, ["gvd"]. *)

(** Outcome of a database operation: [Refused] means a lock could not be
    granted (the caller should abort its action); [Busy] is
    [Insert]-specific — the object is not quiescent; [Moved] is the
    wrong-shard bounce — the entry was handed off to the given naming
    node and the caller (normally {!Router}) should retry there. *)
type 'a reply =
  | Granted of 'a
  | Busy of string
  | Refused of string
  | Moved of Net.Network.node_id

type server_view = {
  sv_servers : Net.Network.node_id list;  (** current [SvA] *)
  sv_uses : (Net.Network.node_id * Use_list.t) list;
      (** use list per server node (same order as [sv_servers]) *)
}

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

(** {2 Object Server database operations} (§4.1) *)

val get_server :
  t ->
  act:Action.Atomic.t ->
  Store.Uid.t ->
  (server_view reply, Net.Rpc.error) result
(** Read [SvA] and the use lists under a read lock owned by [act]. *)

val insert :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Net.Network.node_id ->
  (unit reply, Net.Rpc.error) result
(** Add a server node to [SvA]. Requires the write lock and quiescence
    (all use lists empty): returns [Busy] otherwise — a recovered server
    node retries until the object is quiescent (§4.1.2). *)

val remove :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Net.Network.node_id ->
  (unit reply, Net.Rpc.error) result
(** Remove a server node from [SvA] (write lock). *)

val increment :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> client:Net.Network.node_id ->
  Net.Network.node_id list -> (unit reply, Net.Rpc.error) result
(** Bump [client]'s counter in the use list of each listed server node —
    §4.1.3. Counter updates commute, so this takes the {!Lockmgr.Mode.Delta}
    lock (compatible with other increments/decrements and with readers)
    and stages a redo record that is applied when [act] commits. *)

val decrement :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> client:Net.Network.node_id ->
  Net.Network.node_id list -> (unit reply, Net.Rpc.error) result
(** Undo one [increment] (also [Delta]-mode, staged until commit). *)

val zero_client :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> client:Net.Network.node_id ->
  (unit reply, Net.Rpc.error) result
(** Drop every counter of [client] on the object — the cleanup protocol's
    repair for crashed clients (§4.1.3). *)

(** {2 Single-round batched bind and snapshot reads}

    Every committing action installs a fresh immutable snapshot of the
    entry halves it touched and bumps a per-entry version. Schemes B/C
    read these snapshots lock-free; scheme A keeps the locked
    {!get_server}/{!get_view} path so Figure 6's read-lock semantics are
    untouched. *)

type batch_view = {
  bv_impl : string;  (** implementation name (saves the impl_of round) *)
  bv_chosen : Net.Network.node_id list;
      (** the activation subset whose counters were incremented *)
  bv_removed : Net.Network.node_id list;
      (** detectably dead servers pruned from [SvA] in the same round *)
  bv_stores : Net.Network.node_id list;  (** committed [StA] snapshot *)
  bv_version : int;  (** entry snapshot version *)
}

val bind_batch :
  t ->
  act:Action.Atomic.t ->
  uid:Store.Uid.t ->
  client:Net.Network.node_id ->
  replicas:int ->
  credits:(Net.Network.node_id * int) list ->
  (batch_view reply, Net.Rpc.error) result
(** The whole database half of a scheme-B/C bind in one RPC round:
    GetServer + Remove(dead) + Increment(chosen) + GetView, with the
    caller's coalesced pending Decrements ([credits], one count per
    server node) piggybacked. Runs in [Delta] lock mode unless a listed
    server is detectably dead (then a structural write). [replicas] is
    the activation-subset size wanted when no server is in use yet. *)

val get_view_snapshot :
  t -> from:Net.Network.node_id ->
  Store.Uid.t -> ((Net.Network.node_id list * int) reply, Net.Rpc.error) result
(** Lock-free read of the committed [StA] snapshot and its version. Not
    enlisted in any action (there is nothing to undo or release). *)

(** {2 Object State database operations} (§4.2) *)

val get_view :
  t -> act:Action.Atomic.t -> Store.Uid.t ->
  (Net.Network.node_id list reply, Net.Rpc.error) result
(** Read [StA] under a read lock owned by [act]. *)

val exclude :
  t -> act:Action.Atomic.t -> (Store.Uid.t * Net.Network.node_id list) list ->
  (unit reply, Net.Rpc.error) result
(** Batch-remove store nodes from the [St] sets (§4.2): for each object,
    promote the caller's read lock to exclude-write (or acquire it
    afresh); refusal means the caller must abort. *)

val include_ :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Net.Network.node_id ->
  (Store.Version.t reply, Net.Rpc.error) result
(** Re-admit a store node to [StA] (write lock). The granted value is the
    {e committed-version fence}: the caller must hold (or fetch) a state
    at least that new before its inclusion action may commit, else a
    store whose state was rewound by unlucky crash timing would serve
    stale activations. *)

val note_version :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Store.Version.t ->
  (unit reply, Net.Rpc.error) result
(** Record, within the committing action, the version its commit installs
    (exclude-write lock, like [Exclude]); the fence {!include_} checks.
    Refusal must abort the action. *)

val committed_version : t -> Store.Uid.t -> Store.Version.t
(** Introspection: the current committed-version fence. *)

(** {2 Optimistic commit validation}

    The classic commit-time re-read ({!get_view} + {!note_version}) holds
    a read lock on [StA] from commit start across the copy-back fan-out
    to fence concurrent Includes. The optimistic path replaces the lock
    with validation: read the committed snapshot and its {e St revision}
    lock-free when commit processing starts ({!get_view_commit}), fan the
    copy-back out against it, then {!validate_view} inside the prepare
    round — if a membership change committed in between, the revision
    moved and the commit retries against fresh [St]; if not, the
    validation takes the same write fence the classic note took and the
    guarantee is re-established, with zero naming-tier lock waits on the
    conflict-free path. The St revision counts only committed
    Include/Exclude/retire changes, so concurrent binds (use-list
    traffic) never conflict a committer. *)

val get_view_commit :
  t -> from:Net.Network.node_id ->
  Store.Uid.t -> ((Net.Network.node_id list * int) reply, Net.Rpc.error) result
(** Lock-free read of the committed [StA] snapshot and its {e St
    revision} (not the per-entry snapshot version — see above). Not
    enlisted; nothing to undo or release. *)

val validate_view :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t ->
  version:Store.Version.t -> rev:int ->
  (bool reply, Net.Rpc.error) result
(** Validate-and-note in one round, inside the prepare fan-out:
    re-acquire the exclude-write fence (non-blocking — [Refused] if held
    by a membership change in flight), compare [rev] against the
    committed St revision, and on match record [version] exactly as
    {!note_version} would, answering [Granted true]. On mismatch answers
    [Granted false] {e keeping the fence}: the retried copy-back then
    validates against a revision that can no longer move, so one conflict
    costs exactly one retry. Idempotent under duplicate delivery. *)

(** {2 Validated Exclude}

    The §13 discipline applied to §4.2's own Exclude: a caller that
    decided to drop a store off a lock-free [(St, rev)] snapshot
    ({!get_view_commit}) asks for the drop to be applied {e only if the
    revision still stands} — decide-then-mutate becomes one atomic round,
    with no blocking lock wait on the conflict-free path. On a moved
    revision the reply is [Granted (false, _)] and the just-taken fence
    is deliberately kept (as in {!validate_view}), so the caller's
    re-read sees a revision that can no longer move and a re-decided
    retry must succeed: one conflict costs one retry. [Refused] (fence
    unavailable) callers fall back to the classic blocking {!exclude}. *)

val exclude_validated :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> rev:int ->
  Net.Network.node_id ->
  ((bool * Store.Version.t) reply, Net.Rpc.error) result
(** Remove one store node from [StA] iff the committed St revision still
    equals [rev]. Refuses outright (never mutating) if the removal would
    empty [St]: the last state holder is never evicted, however sick. *)

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

(** {2 Retirement} (administrative changes to the replication degree) *)

val retire_server_home :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Net.Network.node_id ->
  (unit reply, Net.Rpc.error) result
(** Permanently remove a node from [SvA] {e and} from [sv_home], so
    recovery will not re-insert it. Requires the write lock and, like
    [Insert], quiescence ([Busy] otherwise) — retiring a server out from
    under bound clients would break their bindings. *)

val retire_store_home :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Net.Network.node_id ->
  (unit reply, Net.Rpc.error) result
(** Permanently remove a node from [StA] and [st_home] (write lock), so
    recovery will not re-include it. *)

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
