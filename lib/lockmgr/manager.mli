(** Per-node lock manager with strict two-phase locking discipline.

    Resources are named by strings (a database entry per object UID, or an
    object instance on a server). Owners are action identifiers: locks are
    held by {e actions}, not fibers, and are released (or transferred to a
    parent action) when the action ends — the action layer drives this via
    {!release_all} and {!transfer_all}.

    Owners are hierarchical ({!Action.Action_id} strings): a request is
    also granted when every blocking lock is held by an {e ancestor}
    action ("c:1" for "c:1.2") — Arjuna's lock inheritance for nested
    actions. The nested action's grant is recorded under its own name and
    merges into the parent on [transfer_all].

    Grant policy is queue-fair: a request is granted only when it is
    compatible with every current holder {e and} no earlier waiter is still
    blocked, which prevents writer starvation. Lock {e promotion}
    ([promote]) is the paper's try-operation: it succeeds immediately or
    fails without waiting, and a failed promotion aborts the client action
    (§4.2.1).

    The lock table holds only locked keys: a key's entry goes when its
    last holder and last waiter leave, so the table's size follows the
    locks held now, not every key ever locked. The manager also indexes
    each owner's keys, so {!release_all} and {!transfer_all} cost the
    owner's own locks. *)

type t
(** A lock manager. *)

type owner = string
(** Action identifier. *)

val create : ?metrics:Sim.Metrics.t -> Sim.Engine.t -> t
(** [create eng] is an empty manager. If [metrics] is given, the manager
    counts grants, waits, promotion failures and timeouts. *)

val acquire :
  t -> owner:owner -> mode:Mode.t -> ?timeout:float -> string -> (unit, [ `Timeout ]) result
(** [acquire t ~owner ~mode key] blocks the calling fiber until the lock is
    granted (re-entrant: a covering lock held by [owner] is granted
    immediately; a non-covering re-request is treated as a promotion
    attempt and, if it cannot be granted {e immediately}, fails as
    [`Timeout] to avoid self-deadlock). With [timeout], gives up after that
    much virtual time. Must run in a fiber. *)

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
(** Release [owner]'s lock on [key] (no-op if none), waking waiters. *)

val release_all : t -> owner:owner -> unit
(** Release every lock held by [owner] and cancel its waiting requests;
    called when the owning action commits (top-level) or aborts. Visits
    only [owner]'s keys, in [String.compare] order: when the release
    unblocks waiters on several keys, they are granted — and their fibers
    resume — key by key in that order. *)

val release_everything : ?keep:(owner -> bool) -> t -> unit
(** Drop every lock and cancel every waiter — a crash of the hosting node
    wipes its volatile lock table. Waiting fibers are never resumed (they
    died with the node or will time out). Locks of owners satisfying
    [keep] (default none) survive: a prepared participant's locks are
    stable. *)

val transfer_all : t -> from_owner:owner -> to_owner:owner -> unit
(** Move every lock held by [from_owner] to [to_owner], merging modes by
    strength — the Arjuna nested-commit rule (locks pass to the parent).
    A waiter the move unblocks (a descendant of [to_owner] that now
    inherits the lock) is granted at once, keys in [String.compare]
    order as in {!release_all}. *)

val holds : t -> owner:owner -> string -> Mode.t option
(** The mode [owner] holds on [key], if any. *)

val holders : t -> string -> (owner * Mode.t) list
(** Current holders of [key], sorted by owner. *)

val all_held : t -> (string * (owner * Mode.t) list) list
(** Every key with at least one holder, with its holders — sorted both
    ways. Quiescence audits assert this is empty after a world drains. *)

val waiting : t -> string -> int
(** Number of queued (unsatisfied) requests on [key]. *)

val locked_keys : t -> owner:owner -> string list
(** All keys on which [owner] holds a lock, sorted. *)

val tracked_keys : t -> string list
(** The keys the lock table has an entry for, sorted: exactly the keys
    with a holder or a queued request. *)

val pp : Format.formatter -> t -> unit
(** Dump the lock table (holders and queue lengths). *)
