(** Administration: changing the degree of replication at runtime.

    §2.3(1) requires that "changes to the degree of replication for an
    object ... are reflected in the naming and binding service without
    causing inconsistencies to current users", and §4.1.2 notes that the
    [Insert] and [Remove] operations "can be used by specific application
    programs for explicitly changing the membership of SvA". This module
    packages those administrative programs:

    - {!add_server}: admit a new server-capable node to [SvA]. The
      operation runs in its own top-level action; its write lock (and
      [Insert]'s quiescence requirement) serialise it against current
      users, so a binding in progress either completes against the old
      membership or starts against the new one — never a mixture.
    - {!retire_server}: remove a node from [SvA] and passivate any
      quiescent instance it still runs.
    - {!add_store}: extend [StA]: copy the latest committed state onto the
      new node's object store {e under the entry's write lock}, then
      [Include] it — the same lock-first discipline as crash
      reintegration, and for the same reason (no commit may slip between
      the copy and the inclusion).
    - {!retire_store}: shrink [StA] with [Exclude] (the node's stored
      state is left in place but will never be read again, and its
      [st_home] membership is dropped so recovery does not re-include
      it). *)

type error = Busy of string | Refused of string | Unavailable of string

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val add_server :
  Binder.t ->
  from:Net.Network.node_id ->
  uid:Store.Uid.t ->
  Net.Network.node_id ->
  (unit, error) result
(** Run in a fiber on [from]. [Busy] means the object is currently in use
    (retry later, as a recovering server would). *)

val retire_server :
  Binder.t ->
  from:Net.Network.node_id ->
  uid:Store.Uid.t ->
  Net.Network.node_id ->
  (unit, error) result

val add_store :
  Binder.t ->
  from:Net.Network.node_id ->
  uid:Store.Uid.t ->
  Net.Network.node_id ->
  (unit, error) result
(** The target node must already host an object store
    ({!Action.Store_host.add}). *)

val retire_store :
  Binder.t ->
  from:Net.Network.node_id ->
  uid:Store.Uid.t ->
  Net.Network.node_id ->
  (unit, error) result
