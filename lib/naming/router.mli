(** The sharded naming tier: a {!Gvd} instance per naming node, a
    consistent-hash {!Shard_map} over object UIDs, and per-operation
    dispatch to the owning shard.

    Routing is client-side (pure hashing, no directory RPC), so a
    single-shard world issues exactly the message sequence of the seed's
    monolithic service. After an online {!rebalance}, requests routed by
    a stale map are healed by the shard-side [Moved] bounce: the router
    follows the hint, bounded, and retries the brief in-flight window of
    a migrating entry with a short pause. Wrappers never surface
    [Gvd.Moved] to callers — exhausted bounces degrade to [Refused]. *)

type t

val create :
  ?use_exclude_write:bool ->
  ?durable:bool ->
  ?service_time:float ->
  Action.Atomic.runtime ->
  nodes:Net.Network.node_id list ->
  t
(** [create art ~nodes] installs one database instance per naming node
    (parameters as {!Gvd.install}) and a version-1 map over all of them.
    The first node is the {e primary} — host of the multicast sequencer
    and the compatibility {!primary} handle. *)

val of_gvd : Action.Atomic.runtime -> Gvd.t -> t
(** Wrap an already-installed database instance as a single-shard router
    (e.g. a hand-built failover backup). *)

val map : t -> Shard_map.t
val primary : t -> Gvd.t
val gvds : t -> Gvd.t list
val migrating : t -> bool

(** {2 Shard-dispatched database operations}

    Same signatures and semantics as the {!Gvd} client stubs, plus
    routing. *)

val get_server :
  t -> act:Action.Atomic.t -> Store.Uid.t ->
  (Gvd.server_view Gvd.reply, Net.Rpc.error) result

val insert :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Net.Network.node_id ->
  (unit Gvd.reply, Net.Rpc.error) result

val decrement :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> client:Net.Network.node_id ->
  Net.Network.node_id list -> (unit Gvd.reply, Net.Rpc.error) result

val get_view :
  t -> act:Action.Atomic.t -> Store.Uid.t ->
  (Net.Network.node_id list Gvd.reply, Net.Rpc.error) result

val bind_batch :
  t ->
  act:Action.Atomic.t ->
  uid:Store.Uid.t ->
  client:Net.Network.node_id ->
  replicas:int ->
  credits:(Net.Network.node_id * int) list ->
  (Gvd.batch_view Gvd.reply, Net.Rpc.error) result
(** The single-round bind ({!Gvd.bind_batch}); uid-keyed, so the whole
    batch runs atomically on the one owning shard. *)

val get_view_snapshot :
  t -> from:Net.Network.node_id -> Store.Uid.t ->
  ((Net.Network.node_id list * int) Gvd.reply, Net.Rpc.error) result
(** Lock-free committed-snapshot read of [StA] (with entry version). *)

val exclude :
  t -> act:Action.Atomic.t -> (Store.Uid.t * Net.Network.node_id list) list ->
  (unit Gvd.reply, Net.Rpc.error) result
(** Pairs are grouped by owning shard and excluded per shard. *)

val include_ :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Net.Network.node_id ->
  (Store.Version.t Gvd.reply, Net.Rpc.error) result

val note_version :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Store.Version.t ->
  (unit Gvd.reply, Net.Rpc.error) result

val get_view_commit :
  t -> from:Net.Network.node_id -> Store.Uid.t ->
  ((Net.Network.node_id list * int) Gvd.reply, Net.Rpc.error) result
(** Lock-free committed [StA] read with its {e St revision}, for the
    optimistic commit path ({!Gvd.get_view_commit}). *)

val validate_view :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t ->
  version:Store.Version.t -> rev:int ->
  (bool Gvd.reply, Net.Rpc.error) result
(** Validate-and-note on the owning shard ({!Gvd.validate_view}). *)

val exclude_validated :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> rev:int ->
  Net.Network.node_id ->
  ((bool * Store.Version.t) Gvd.reply, Net.Rpc.error) result
(** Validated single-node Exclude on the owning shard
    ({!Gvd.exclude_validated}). *)

val retire_server_home :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Net.Network.node_id ->
  (unit Gvd.reply, Net.Rpc.error) result

val retire_store_home :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Net.Network.node_id ->
  (unit Gvd.reply, Net.Rpc.error) result

(** {2 Administrative and name-space operations} *)

val register_direct :
  t ->
  uid:Store.Uid.t ->
  name:string ->
  impl:string ->
  sv:Net.Network.node_id list ->
  st:Net.Network.node_id list ->
  unit
(** Setup-time registration, applied on the owning shard. *)

val lookup :
  t -> from:Net.Network.node_id -> string ->
  (Store.Uid.t option, Net.Rpc.error) result
(** Name resolution; scans shards in order (one RPC per shard visited). *)

val entry_info :
  t -> from:Net.Network.node_id -> Store.Uid.t ->
  (Gvd.entry_info option, Net.Rpc.error) result
(** Queries the owning shard first, the rest only as a migration-window
    fallback. *)

val stored_on :
  t -> from:Net.Network.node_id -> Net.Network.node_id ->
  (Store.Uid.t list, Net.Rpc.error) result
(** Union over all shards. *)

val served_by :
  t -> from:Net.Network.node_id -> Net.Network.node_id ->
  (Store.Uid.t list, Net.Rpc.error) result

(** {2 Introspection} (direct access; finds the shard actually holding
    the entry, which during a migration can differ from the map) *)

val current_st : t -> Store.Uid.t -> Net.Network.node_id list
val all_uids : t -> Store.Uid.t list

(** {2 Online shard-map changes} *)

val rebalance : t -> from:Net.Network.node_id -> Net.Network.node_id list -> unit
(** [rebalance t ~from nodes] moves to a map over [nodes] (each must be a
    naming node of this world) {e online}: every entry whose owner
    changes is handed off shard-to-shard without quiescing in-flight
    binds — lock-busy entries are retried until their actions drain, and
    requests racing a migration are healed by the [Moved] bounce. The
    map flips only after all entries have moved. Must run in a fiber on
    [from]. *)

val reset_map : t -> Net.Network.node_id list -> unit
(** Setup-time only: point the map at a subset of the naming nodes before
    any object is registered. Raises if any shard already holds
    entries. *)
