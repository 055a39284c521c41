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
      action. {!use_prebinding} attaches the
      resulting group to each client action; {!release_independent}
      {e credits} the trailing [Decrement] into the {!Use_delta} buffer
      instead of sending it immediately.
    - {!bind_nested_toplevel} (Figure 8) sends the same [Counted]
      request from {e inside} the client action using a nested top-level
      action, and credits the [Decrement] when the client action ends
      (whether it commits or aborts — the use-list update is durable
      either way, as nested top-level actions are).

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
    action acquiring the exclude-write lock afresh. Commit-time [StA]
    re-reads are lock-free snapshots validated inside the prepare round
    under every scheme ({!attach_commit}); that validation is the only
    commit-time fence, and three conflicts abort the commit. *)

type t
(** Binder runtime. *)

val create : ?cache:Bind_cache.t -> Router.t -> Replica.Group.runtime -> t
(** [create router grt] binds through the sharded naming tier. [cache]
    (default none) enables the lease-based client cache: a fresh entry
    lets {!bind} skip every bind-time naming RPC and activate straight
    from the cached [(impl, SvA', StA)]. Staleness only slows a bind
    down (futile activations, a commit-time version-conflict abort that
    invalidates the entry); it can never commit against a stale store —
    commit processing re-reads [StA] and the stores backward-validate. *)

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

val bind_nested_toplevel :
  t ->
  act:Action.Atomic.t ->
  uid:Store.Uid.t ->
  policy:Replica.Policy.t ->
  (binding, bind_error) result
(** Figure-8 binding from inside [act]; the decrement is scheduled for the
    end of [act] automatically. *)

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

val attach_commit :
  t ->
  scheme:Scheme.t ->
  act:Action.Atomic.t ->
  uid:Store.Uid.t ->
  Replica.Group.t ->
  unit
(** Attach commit processing ({!Replica.Commit.attach}) for a group bound
    under [scheme]: the lock-free [(StA, St revision)] read, the
    validate-and-note (a [Note_version] update with [~if_rev]; a moved
    revision or a refused fence is a conflict) and the scheme's
    [Exclude]. Every bind of this module calls it; {!Hybrid.bind} calls
    it with [Standard]. *)
