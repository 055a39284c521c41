(** Per-node lock manager with strict two-phase locking discipline.

    Resources are named by strings (a database entry per object UID, or an
    object instance on a server). Owners are action identifiers: locks are
    held by {e actions}, not fibers, and are released (or transferred to a
    parent action) when the action ends. An action ends one key at a time,
    with {!release} or {!transfer}: the resource that took the locks keeps
    the list of keys its action asked for, and ends them in its own
    order.

    Owners are hierarchical ({!Action.Action_id} strings): a request is
    also granted when every blocking lock is held by an {e ancestor}
    action ("c:1" for "c:1.2") — Arjuna's lock inheritance for nested
    actions. The nested action's grant is recorded under its own name and
    merges into the parent on [transfer].

    Grant policy is queue-fair: a request is granted only when it is
    compatible with every current holder {e and} no earlier waiter is still
    blocked, which prevents writer starvation. Lock {e promotion}
    ([promote]) is the paper's try-operation: it succeeds immediately or
    fails without waiting, and a failed promotion aborts the client action
    (§4.2.1).

    The lock table holds only locked keys: a key's entry goes when its
    last holder and last waiter leave, so the table's size follows the
    locks held now, not every key ever locked. The manager keeps no
    per-owner index: ending an action costs the keys its caller names.

    One manager may serve several independent resources, each under its
    own key: a naming shard keys its entries' halves, a server node its
    object instances. Ending an action on one key leaves its locks and
    requests on the others alone. *)

type t
(** A lock manager. *)

type owner = string
(** Action identifier. *)

val wait_bound : float
(** [30.0]: the one bound on a protocol's lock wait. The naming database
    refuses an entry lock not granted within it, a server refuses an
    instance lock likewise, and a client gives up on a multicast
    invocation no replica answered within it. *)

val create : ?metrics:Sim.Metrics.t -> Sim.Engine.t -> t
(** [create eng] is an empty manager. If [metrics] is given, the manager
    counts grants, waits, promotion failures and timeouts. *)

val acquire : t -> owner:owner -> mode:Mode.t -> string -> (unit, [ `Timeout ]) result
(** [acquire t ~owner ~mode key] blocks the calling fiber until the lock is
    granted (re-entrant: a covering lock held by [owner] is granted
    immediately; a non-covering re-request is treated as a promotion
    attempt and, if it cannot be granted {e immediately}, fails as
    [`Timeout] to avoid self-deadlock). A wait gives up with [`Timeout]
    after {!wait_bound} of virtual time. Must run in a fiber. *)

val try_acquire : t -> owner:owner -> mode:Mode.t -> string -> bool
(** Non-blocking acquire; [false] if it would have to wait. *)

val available : t -> owner:owner -> mode:Mode.t -> string -> bool
(** Validate-under-mode query: [true] iff an immediate grant of [mode] to
    [owner] on [key] would succeed — a covering lock is already held, or
    the request is compatible with every other holder (promotion rule) and,
    for a fresh request, no earlier waiter is queued. Never mutates the
    lock table: callers probe before touching state the grant would
    protect (the optimistic commit validation peeks here before staging
    its version note). *)

val promote : t -> owner:owner -> to_mode:Mode.t -> string -> bool
(** [promote t ~owner ~to_mode key] upgrades [owner]'s lock on [key]
    without waiting: [true] iff [owner] holds a lock and [to_mode] is
    compatible with every other holder. On failure the caller is expected
    to abort its action. *)

val release : t -> owner:owner -> string -> unit
(** [release t ~owner key] ends [owner] on [key]: cancel its queued
    requests there, drop its lock (no-op if none) and wake the waiters
    that now fit. Its locks and requests on other keys stay. Called when
    the owning action commits (top-level) or aborts; a caller ending an
    action on several keys wakes their waiters key by key in the order it
    releases them. *)

val release_everything : ?keep:(owner -> bool) -> t -> unit
(** Drop every lock and cancel every waiter — a crash of the hosting node
    wipes its volatile lock table. Waiting fibers are never resumed (they
    died with the node or will time out). Locks of owners satisfying
    [keep] (default none) survive: a prepared participant's locks are
    stable. *)

val transfer : t -> from_owner:owner -> to_owner:owner -> string -> unit
(** [transfer t ~from_owner ~to_owner key] moves [from_owner]'s lock on
    [key] to [to_owner], merging modes by strength — the Arjuna
    nested-commit rule (locks pass to the parent) — and grants the queued
    descendants of [to_owner] the move unblocks. [from_owner]'s locks on
    other keys, and any request it still has queued on [key], stay. *)

val holds : t -> owner:owner -> string -> Mode.t option
(** The mode [owner] holds on [key], if any. *)

val holders : t -> string -> (owner * Mode.t) list
(** Current holders of [key], sorted by owner. *)

val all_held : t -> (string * (owner * Mode.t) list) list
(** Every key with at least one holder, with its holders — sorted both
    ways. Quiescence audits assert this is empty after a world drains. *)

val waiting : t -> string -> int
(** Number of queued (unsatisfied) requests on [key]. A cancelled
    request does not count. *)

val tracked_keys : t -> string list
(** The keys the lock table has an entry for, sorted: exactly the keys
    with a holder or a queued request. *)
