(** Per-object, version-indexed operation logs for delta state shipping.

    Commit copy-back ({!Commit.attach}) historically wrote the whole
    object state to every store in [StA] — the dominant byte cost for a
    large object receiving small writes. This subsystem records, on every
    server replica, the operations each committed version applied (the
    log is appended at instance commit, before the action's locks drop,
    so it is version-indexed by the same counters backward validation
    uses). At copy-back the coordinating client consults a per-store
    {e acknowledged-version vector} and ships only the log suffix
    [(v_store, v_commit]] as a {e delta prepare}; stores fold the ops over
    their committed state and stage the resulting full state, so phase 2
    and crash recovery are untouched.

    Everything here is advisory with a safe failure mode: a truncated
    log, a stale vector entry or an unknown implementation only forces a
    full-state fallback (or one extra prepare round), never an incorrect
    state. Logs are volatile — they die with the server node, like the
    instances whose history they record.

    Metrics: [oplog.truncations] counts compacted records,
    [oplog.resident_records] is the live record population (incremented
    and decremented as a gauge). *)

type t

val create : ?max_records:int -> ?max_age:float -> Sim.Metrics.t -> t
(** [create metrics] is an empty log store. [max_records] (default 12)
    bounds each (node, object) log's length; [max_age] (default 180.0,
    virtual seconds) bounds record age. Both are enforced on append. *)

val set_limits : t -> ?max_records:int -> ?max_age:float -> unit -> unit
(** Adjust the compaction policy (tests force truncation with this). *)

(** {2 Version-indexed logs} (keyed by server node and object) *)

val append :
  t ->
  now:float ->
  node:Net.Network.node_id ->
  uid:Store.Uid.t ->
  version:Store.Version.t ->
  ops:string list ->
  unit
(** Record that [version] was produced by applying [ops] (in order) to
    its predecessor. Called at instance commit, then compacted. *)

val records :
  t ->
  node:Net.Network.node_id ->
  uid:Store.Uid.t ->
  (Store.Version.t * string list) list
(** The retained log, oldest first. *)

val install :
  t ->
  now:float ->
  node:Net.Network.node_id ->
  uid:Store.Uid.t ->
  (Store.Version.t * string list) list ->
  unit
(** Replace the log with [entries] (oldest first) — checkpoint-anchored
    truncation: a cohort installing a coordinator checkpoint adopts the
    coordinator's retained suffix, so cohort logs never outgrow what the
    checkpoint anchors. Re-stamped at [now], then compacted. *)

val truncate_below :
  t -> node:Net.Network.node_id -> uid:Store.Uid.t -> counter:int -> unit
(** Drop records with versions below [counter]. *)

val drop_node : t -> Net.Network.node_id -> unit
(** Forget every log of [node] (crash hook: logs are volatile). *)

val suffix_of :
  (Store.Version.t * string list) list ->
  base:int ->
  upto:int ->
  (Store.Version.t * string list) list option
(** [suffix_of chain ~base ~upto] is the delta decision rule: the
    contiguous run of versions [base+1 .. upto] out of [chain] (oldest
    first), or [None] if any step is missing or op-less — the caller must
    then fall back to full-state shipping. *)

(** {2 Per-store acknowledged-version vector} (keyed by client, store,
    object) *)

val last_acked :
  t ->
  client:Net.Network.node_id ->
  store:Net.Network.node_id ->
  uid:Store.Uid.t ->
  int option
(** The last committed counter [store] is known to have applied. *)

val note_acked :
  t ->
  client:Net.Network.node_id ->
  store:Net.Network.node_id ->
  uid:Store.Uid.t ->
  int ->
  unit
(** Learn a store's counter: from its phase-2 commit acknowledgement, or
    from the counter reported in a delta-miss vote. A negative counter
    (store holds nothing) clears the entry. *)

val forget_ack :
  t ->
  client:Net.Network.node_id ->
  store:Net.Network.node_id ->
  uid:Store.Uid.t ->
  unit
(** Drop the entry (a phase-2 commit whose acknowledgement was lost: the
    store's level is unknown, so the next copy must not presume it). *)

val drop_client : t -> Net.Network.node_id -> unit
(** Forget every vector entry of [client] (crash hook). *)

(** {2 Shared per-store floor} (keyed by store and object only)

    Two sources feed it, both only under delta shipping: the pre-stage
    committed counter a yes-vote piggybacks per prepared object, and the
    coordinator's own phase-2 acknowledgements (the store now holds the
    committed version). Every coordinator folds those levels into this
    client-independent vector, so the {e first} commit from a new client
    can already start from a delta instead of full state. Monotone max-merge: versions are
    global per object, so the floor is a valid lower bound; staleness
    costs one delta-miss retry, never correctness. *)

val note_store : t -> store:Net.Network.node_id -> uid:Store.Uid.t -> int -> unit
(** Fold an observed committed counter into the shared floor (ignored if
    not above the current floor; negative levels never install). *)

val store_floor : t -> store:Net.Network.node_id -> uid:Store.Uid.t -> int option
(** The shared floor, if any client ever observed the store's level. *)

val known_version :
  t ->
  client:Net.Network.node_id ->
  store:Net.Network.node_id ->
  uid:Store.Uid.t ->
  int option
(** The delta-base lookup: the max of the per-client ack and the shared
    floor — both are lower bounds on the store's monotone committed
    counter, and under interleaved writers only the floor keeps pace. An
    overshooting base costs a delta-miss retry, never correctness. *)

val drop_store : t -> Net.Network.node_id -> unit
(** Forget the shared floor of every object on [store] (crash hook for
    store nodes: a restored store may have rewound). *)

(** {2 Golden full-state shadow} (audit support) *)

val record_golden :
  t -> uid:Store.Uid.t -> version:Store.Version.t -> payload:string -> unit
(** Remember what a full-state install of [version] would write (recorded
    by the copy-back before it ships anything, over a bounded sliding
    window of versions). *)

val golden : t -> uid:Store.Uid.t -> version:Store.Version.t -> string option
(** The recorded full-state payload of exactly [version] — counter AND
    committing action — if still in the window. {!Audit.chaos} checks
    every store's final state against this: a delta-applied state must be
    byte-equal to the full-state replay. The lookup is identity-exact
    because shadows are recorded before 2PC decides: a racing copy-back
    that loses backward validation still recorded its (never-installed)
    payload, and matching by counter alone would compare the winner's
    committed bytes against the loser's ghost. *)

val resident : t -> int
(** Current [oplog.resident_records] reading. *)
