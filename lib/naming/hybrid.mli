(** The §5 extension: reducing dependence on atomic-action support.

    The paper's concluding remarks propose keeping the {e server} data in
    a traditional, non-atomic name server (most deployed name services
    offer no transactional interface) while retaining the atomic Object
    State database; the State database alone then guarantees consistent
    binding of clients to servers — binding to a stale server is harmless
    as long as states are loaded from, and written back to, a [St] set
    that only ever lists mutually consistent, latest-state stores.

    This module implements that hybrid: a plain in-memory name server for
    [SvA] (updates apply immediately, no locks, no undo) combined with the
    transactional [St] half of {!Gvd}. [bind] reads [SvA] from the plain
    server and [StA] through the atomic database under the standard
    scheme, so commit-time exclusion retains its full guarantees. *)

type t

val install :
  Binder.t -> node:Net.Network.node_id -> t
(** Host the plain server-set service on [node] (usually the same node as
    the GVD) and return the hybrid runtime. *)

val register :
  t -> from:Net.Network.node_id -> uid:Store.Uid.t ->
  sv:Net.Network.node_id list -> unit
(** Set the plain server set for an object (setup; direct). *)

val bind :
  t ->
  act:Action.Atomic.t ->
  uid:Store.Uid.t ->
  policy:Replica.Policy.t ->
  (Binder.binding, Binder.bind_error) result
(** Hybrid bind: [SvA] from the plain name server (no locks held), [StA]
    through the atomic state database, then the standard scheme's static
    pick ({!Binder.bind_static}). *)
