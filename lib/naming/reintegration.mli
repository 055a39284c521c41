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

val newest_state :
  Binder.t ->
  from:Net.Network.node_id ->
  skip:Net.Network.node_id ->
  Store.Uid.t ->
  Store.Object_state.t option
(** The catch-up fetch: from a fiber on [from], read [uid] from every
    node ever admitted to its [StA] ([ei_st_home]) except [skip], the
    node being brought up to date, and return the newest state found.
    Unreachable stores are passed over. The caller checks the result
    against its [Include] fence. Store reintegration and
    {!Admin.add_store} both use it. *)

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
