(** Object binding: turning a UID into a bound, activated replica group
    under one of the paper's three database access schemes.

    Binding (§3.2, §4.1) resolves [SvA]/[StA] through the group view
    database, selects the activation subset [SvA'] according to the
    replication policy, activates the replicas, and attaches commit-time
    processing (state copy-back with [Exclude]) to the client's action.

    Every scheme sends the database half of a bind as one {!Router.bind}
    request; the schemes differ in the action that owns it and in what
    the request asks of the entry ({!Gvd.bind_use}).

    - {!bind_standard} (Figure 6) sends a [Locked] request from a nested
      action of the client action: GetServer and GetView's read locks
      pass to the client action when the nested action commits and are
      held to its end. Selection works on the {e static} [SvA]: crashed
      servers are only discovered by failed activation attempts, counted
      in the [bind.futile] metric.
    - {!bind_independent} (Figure 7) runs {e before} the client action(s):
      the whole database half — read [SvA] with use lists, remove
      detectably-dead servers, increment the chosen subset, read [StA] —
      is one [Counted] request inside one independent top-level
      action, whose reply carries the shard's vote: the action's commit
      sends the shard no [resource.prepare], only phase 2.
      {!use_prebinding} attaches the resulting group to each client
      action; {!release_independent} {e credits} the trailing
      [Decrement] into the {!Use_delta} buffer instead of sending it
      immediately.
    - {!bind} under [Nested_toplevel] (Figure 8) sends the same
      [Counted] request, vote included, from {e inside} the client
      action using a nested top-level action, and credits the
      [Decrement] when the client action ends (whether it commits or
      aborts — the use-list update is durable either way, as nested
      top-level actions are).

    Every bind — standard, each use of a prebinding, nested top-level,
    cache hit and {!Hybrid.bind} — ends in the same step: commit
    processing ({!Replica.Commit.attach}) is attached to the activated
    group and the {!binding} is built from it.

    Buffered credits leave the client in one of two coalesced forms: the
    next bind of the same (client, object) piggybacks them on its bind
    request — cancelling the increment/decrement pair within that one
    round — or a deferred flush fiber (after a 5.0 coalescing window
    that a blocked [Insert] can cut short, see {!pull_credits}) sends every
    remaining credit for an object as one merged [Decrement] action. A
    client crash with unflushed credits leaves exactly the orphaned
    counters the cleanup protocol repairs.

    The [bind.naming_rounds] distribution records the bind-time naming
    RPC rounds per bind: 1 for a fresh bind under every scheme, 0 on a
    cache hit.

    The commit-time [Exclude] follows the scheme as well: under
    [Standard] it runs inside the client action by promoting the held read
    lock (§4.2.1); under the other two it runs as a nested top-level
    action acquiring the exclude-write lock afresh. The copy-back target
    is a committed [(StA, revision)] pair validated inside the prepare
    round under every scheme ({!Gvd.validate}: a [Note_version] update
    with [~if_rev]; a moved revision or a refused fence is a conflict);
    that validation is the only commit-time fence, and three conflicts
    abort the commit. The last before-commit hook's validate also
    carries the shard's vote ({!Replica.Commit.attach}).
    Schemes B/C take the first pair from their [Counted] bind reply
    ([bv_stores], [bv_rev]) and send no commit-time read; scheme A's
    [Locked] reply holds no committed pair, so scheme A, cache hits,
    hybrid binds and every retry read it lock-free at commit. A
    validation refused because another action holds the fence — a
    membership change whose catch-up can hold it far longer than three
    immediate attempts — makes the next attempt's read a {!Gvd.read}
    [Settled]: it answers once that holder has ended. A wait past the
    lock timeout is repeated, up to 10 waits and not past the action's
    deadline. *)

type t
(** Binder runtime. *)

val create : ?cache:Bind_cache.t -> Router.t -> Replica.Group.runtime -> t
(** [create router grt] binds through the sharded naming tier. [cache]
    (default none) enables the lease-based client cache: a fresh entry
    lets {!bind} skip every bind-time naming RPC and activate straight
    from the cached [(impl, SvA', StA)]. Staleness only slows a bind
    down (futile activations, a commit-time version-conflict abort that
    invalidates the entry); it can never commit against a stale store —
    commit processing reads the committed [StA] and validates its
    revision, and the stores backward-validate. *)

val router : t -> Router.t

val cache : t -> Bind_cache.t option
val group_runtime : t -> Replica.Group.runtime

type binding = {
  bd_uid : Store.Uid.t;
  bd_scheme : Scheme.t;
  bd_group : Replica.Group.t;
  bd_servers : Net.Network.node_id list;  (** the selected [SvA'] *)
  bd_stores : Net.Network.node_id list;  (** the [StA] view at bind time *)
}

type bind_error =
  | Name_refused of string  (** database lock refused or object unknown *)
  | No_server of string  (** no listed server could be activated *)

val bind_error_to_string : bind_error -> string

val bind_standard :
  t ->
  act:Action.Atomic.t ->
  uid:Store.Uid.t ->
  policy:Replica.Policy.t ->
  (binding, bind_error) result
(** Figure-6 binding inside [act]. *)

val bind_static :
  t ->
  act:Action.Atomic.t ->
  uid:Store.Uid.t ->
  policy:Replica.Policy.t ->
  impl:string ->
  servers:Net.Network.node_id list ->
  stores:Net.Network.node_id list ->
  (binding, bind_error) result
(** Scheme A's static pick and the rest of its bind, given the entry's
    [impl], static [servers] ([SvA]) and [stores] ([StA]): the first
    [k] servers in the network's preference order
    ({!Net.Network.rank_servers}), dead or not, are activated ("the hard
    way", §4.1.2) and bound to [act] under the standard scheme.
    {!bind_standard} and {!Hybrid.bind} share it. *)

type prebinding
(** A Figure-7 binding established outside any client action. *)

val bind_independent :
  t ->
  client:Net.Network.node_id ->
  uid:Store.Uid.t ->
  policy:Replica.Policy.t ->
  (prebinding, bind_error) result
(** Figure-7 pre-action bind; must run in a fiber on [client]. *)

val use_prebinding :
  t -> act:Action.Atomic.t -> prebinding -> (binding, bind_error) result
(** Attach a prebinding's group to a client action (commit-time processing
    included). May be used for several successive actions. *)

val release_independent : t -> prebinding -> unit
(** The trailing [Decrement] (Figure 7, last ellipse), coalesced: the
    counts are credited to the delta buffer and either cancelled by the
    client's next bind of the same object or flushed after the
    coalescing window. Must run in a fiber on the binding client. Safe to
    call once. *)

val bind :
  t ->
  act:Action.Atomic.t ->
  scheme:Scheme.t ->
  uid:Store.Uid.t ->
  policy:Replica.Policy.t ->
  (binding, bind_error) result
(** Scheme-dispatching convenience for single-action usage. For
    [Independent] it performs the pre-bind, attach and (at action end)
    release as one unit; long-lived Figure-7 usage should call the
    explicit functions. *)

val deltas : t -> Use_delta.t
(** The client-side decrement credit buffer (tests, diagnostics). *)

val pull_credits : t -> uid:Store.Uid.t -> unit
(** Quiescence-pull: flush every live client's pending credits for [uid]
    immediately instead of waiting out the coalescing window. Called when
    an [Insert] is blocked on use-list quiescence (reintegration); crashed
    clients are skipped — their counters are the cleanup protocol's. *)
