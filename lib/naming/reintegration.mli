(** Recovery-time reintegration: the Include/Insert protocols of §4.

    {b Store nodes} (§4.2): a crashed node with an object store must,
    upon recovery, bring its object states up to the latest committed
    versions and then [Include] itself back into the [St] sets. The
    update and the [Include] run in one atomic action per object, with
    the [Include]'s write lock taken {e first}: the write lock conflicts
    with the read locks held by in-progress clients (standard scheme), so
    the state fetched afterwards cannot be made stale by a racing commit.

    {b Server nodes} (§4.1.2): a recovered node that can act as a server
    executes [Insert(UID, self)] before serving again, even though it is
    already listed in [SvA]: the write lock plus the quiescence check
    ensure bindings are managed correctly across the crash. [Insert]
    returns [Busy] while clients are using the object; the protocol
    retries until quiescent, and the elapsed time is the {e reintegration
    delay} measured by the Figure-6/7 experiments. *)

val attach_store_node : Binder.t -> node:Net.Network.node_id -> unit
(** Arrange that whenever [node] recovers, it reintegrates every object
    whose [st_home] lists it. Must be attached {e after}
    {!Action.Termination.attach} so in-doubt 2PC records are resolved
    first. *)

val attach_server_node : Binder.t -> node:Net.Network.node_id -> unit
(** Arrange that whenever [node] recovers, it re-runs [Insert] for every
    object whose [sv_home] lists it, retrying while [Busy]. Records the
    per-object delay in the [reintegrate.insert_delay] metric. *)

val reintegrate_store_now : Binder.t -> node:Net.Network.node_id -> unit
(** Run the store protocol immediately (from a fiber on [node]); retries
    start 2.0 apart. *)

val exclude_store_now :
  Binder.t ->
  from:Net.Network.node_id ->
  node:Net.Network.node_id ->
  unit ->
  int
(** Observer-driven Exclude (the autonomic controller's half of §4.2):
    from a fiber on [from], exclude the sick store [node] from the [St]
    of every object it holds, one atomic action per object, and return
    how many exclusions committed. Objects where [node] is already out
    of [St], or is the last remaining copy, are skipped. Each Exclude
    validates the St revision inside its round (an [Exclude] update with
    [~if_rev]); three conflicts, a refused fence or a failed read abort
    that object's exclusion. *)

val reinsert_server_now : Binder.t -> node:Net.Network.node_id -> unit
(** Run the server protocol immediately (from a fiber on [node]); retries
    start 2.0 apart. *)
