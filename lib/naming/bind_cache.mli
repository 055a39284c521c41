(** Lease-based client cache of bind results [(impl, SvA', StA)].

    Entries expire after the lease; they are also invalidated when a
    bind built on them aborts (commit-time version mismatch or a dead
    cached server). The cache is an optimisation layer only: the St
    mutual-consistency invariant is enforced by commit-time processing
    and store-side backward validation, never by cache freshness. *)

type t

type entry = {
  ce_impl : string;
  ce_servers : Net.Network.node_id list;
  ce_stores : Net.Network.node_id list;
  ce_expires : float;
}

val create : lease:float -> Sim.Metrics.t -> t
(** [create ~lease m] is an empty cache whose entries live [lease] units
    of simulated time. Counts [cache.hit] / [cache.miss] /
    [cache.expired] / [cache.invalidations] in [m]. *)

val lease : t -> float

val find : t -> now:float -> client:Net.Network.node_id -> Store.Uid.t -> entry option
(** Fresh entry for [(client, uid)], if any; expired entries are dropped
    and counted as misses. *)

val fill :
  t ->
  now:float ->
  client:Net.Network.node_id ->
  Store.Uid.t ->
  impl:string ->
  servers:Net.Network.node_id list ->
  stores:Net.Network.node_id list ->
  unit

val renew : t -> now:float -> client:Net.Network.node_id -> Store.Uid.t -> unit
(** Extend the lease of a present entry to [now + lease]; no-op when
    absent. Called when a bind built on the entry {e commits} — commit
    processing just validated its copy-back target against the committed
    St revision and the stores validated the activation, so the entry is
    known good as of that instant. *)

val invalidate : t -> client:Net.Network.node_id -> Store.Uid.t -> unit

val size : t -> int
val hit_rate : t -> float
(** hits / (hits + misses), or nan before any lookup. *)
