(** The sharded naming tier: a {!Gvd} instance per naming node, a
    consistent-hash {!Shard_map} over object UIDs, and per-operation
    dispatch to the owning shard.

    Routing is client-side (pure hashing, no directory RPC), so a
    single-shard world issues exactly the message sequence of the seed's
    monolithic service. After an online {!rebalance}, requests routed by
    a stale map are healed by the shard-side [Moved] bounce: the router
    follows the hint, bounded, and retries the brief in-flight window of
    a migrating entry with a short pause. The dispatched operations never
    surface [Gvd.Moved] to callers — exhausted bounces degrade to
    [Refused]. *)

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

    The {!Gvd} requests plus routing. Every one returns the granted value
    or a {!failure}; [Moved] never reaches callers. *)

type failure =
  | Busy of string  (** the object is not quiescent *)
  | Refused of string
      (** a lock or precondition refused, or the entry could not be found
          on any shard *)
  | Unreachable of string  (** the RPC failed ({!Net.Rpc.error_to_string}) *)

val failure_to_string : failure -> string
(** The reason carried by the failure. *)

val read :
  t -> act:Action.Atomic.t -> Store.Uid.t -> Gvd.read -> (Gvd.view, failure) result
(** {!Gvd.read} on the owning shard. *)

val snapshot :
  t -> from:Net.Network.node_id -> Store.Uid.t -> (Gvd.view, failure) result
(** {!Gvd.snapshot}: the committed read outside any action (an idempotent
    call, hedged under a gray-failure profile). *)

val update :
  t ->
  act:Action.Atomic.t ->
  ?if_rev:int ->
  (Store.Uid.t * Gvd.op) list ->
  (Gvd.outcome, failure) result
(** {!Gvd.update}. Ops are grouped by owning shard and each group runs as
    one request, in order of first appearance; the first failure wins.
    [o_applied] is the conjunction and [o_fence] the newest fence over
    the groups. *)

val bind :
  t -> act:Action.Atomic.t -> uid:Store.Uid.t -> Gvd.bind_use ->
  (Gvd.bind_view, failure) result
(** The single-round bind of every scheme ({!Gvd.bind}); uid-keyed, so
    the whole request runs atomically on the one owning shard. *)

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
