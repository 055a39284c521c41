(** Versioned consistent-hash ring assigning object UIDs to naming
    shards.

    The map is a pure value: {!with_nodes} returns a new map with a
    bumped version, leaving the old one usable by in-flight binds — the
    router swaps maps only after migration, and stale routes are healed
    by the shard-side [Moved] bounce. Hashing is deterministic across
    runs (FNV-1a + splitmix finaliser, 64 virtual points per shard), so
    seeded simulations are reproducible. *)

type t

val create : nodes:Net.Network.node_id list -> t
(** [create ~nodes] is version-1 map over the given shard nodes
    (deduplicated, order-insensitive). Raises [Invalid_argument] on an
    empty list. *)

val with_nodes : t -> Net.Network.node_id list -> t
(** A new map over a different node set, with the version incremented. *)

val owner : t -> Store.Uid.t -> Net.Network.node_id
(** The shard owning [uid] under this map. *)

val version : t -> int
val nodes : t -> Net.Network.node_id list

