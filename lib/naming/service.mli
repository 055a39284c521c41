(** One-stop assembly of a simulated world with the full stack: engine,
    network, stores, action runtime, server hosting, replica groups, and
    the naming-and-binding service.

    This is the library's quickstart surface. A {e world} is built from a
    topology (which nodes exist and what they can do); persistent objects
    are then created with {!create_object}, and clients run atomic actions
    against them with {!with_bound}, which performs the full bind →
    invoke → commit cycle of the paper under a chosen access scheme.

    All substrate handles are exposed for advanced use. *)

type topology = {
  gvd_node : Net.Network.node_id;
      (** hosts the primary naming shard and the multicast sequencer;
          assumed always available (§3.1) *)
  gvd_nodes : Net.Network.node_id list;
      (** additional naming shard nodes; [[]] gives the paper's
          single-node service, byte-for-byte the pre-sharding behaviour *)
  server_nodes : Net.Network.node_id list;  (** can run object servers *)
  store_nodes : Net.Network.node_id list;  (** have object stores *)
  client_nodes : Net.Network.node_id list;  (** run applications *)
}

type t

type gray_failure = Net.Network.gray_failure =
  | Hedged
      (** hedged scatter-gathers, deadline shedding and degraded breaker
          trips (docs/PROTOCOLS.md §15) *)
  | Autonomic
      (** [Hedged] plus sibling-hedge routing and the autonomic
          membership controllers (docs/PROTOCOLS.md §16) *)
(** The gray-failure profile: which resilience planes turn sick-but-alive
    stores into latency the system routes around, and (under
    [Autonomic]) into the paper's §4.2 Exclude/Include. *)

val create :
  ?seed:int64 ->
  ?latency:(Sim.Rng.t -> float) ->
  ?use_exclude_write:bool ->
  ?durable_naming:bool ->
  ?cleanup_period:float ->
  ?bind_cache_lease:float ->
  ?naming_service_time:float ->
  ?gray_failure:gray_failure ->
  topology ->
  t
(** Build a world. The stock object implementations
    ({!Replica.Object_impl.stock_all}) are available.
    [cleanup_period] enables the use-list cleanup daemon with that sweep
    period; the default (0.0) leaves it off — the daemon is an infinite
    fiber, so worlds running it must drive the engine with [run ~until]. [use_exclude_write] selects
    the §4.2.1 lock type for [Exclude] (default true). [durable_naming]
    (default false) lets the service node crash and recover as a
    persistent object instead of being assumed always available (see
    {!Gvd.install}). Recovery hooks
    (2PC resolution, then store reintegration, then server reinsertion)
    are attached to every node per its capabilities. Naming-tier lock
    waits are bounded at 30.0, and credited use-list [Decrement]s
    coalesce for 5.0 before they are flushed (a blocked [Insert] pulls
    them early, see {!Binder.pull_credits}).

    The commit copy-back writes the object's whole new state to every
    store in [StA] (§2.3(3)).

    Commits go through the group-commit plane ({!Replica.Groupcommit},
    docs/PROTOCOLS.md §14) and validate a lock-free [St] snapshot inside
    the prepare round ({!Replica.Commit.attach}, §13). Every scheme's
    bind is one [gvd.bind] round ({!Gvd.bind}).

    [gray_failure] (default none: every plane below is off) selects the
    world's gray-failure profile, fixed on its network
    ({!Net.Network.gray_failure}) for the world's whole life and read
    only inside [Net]:
    - [Hedged] turns on hedged idempotent calls (2PC prepares and
      phase-2 deliveries, group role and commit-view probes, plain naming
      reads) plus latency-ranked server preference;
      deadline shedding, where servers refuse calls whose initiator's
      deadline has already passed (metric [retry.shed_expired]; only
      abortable phase-1 work carries deadlines — phase-2 of a decided
      outcome is never shed); and retry-breaker trips on sustained
      slowness as reported by {!Net.Health}, with latency-checked
      half-open recovery.
    - [Autonomic] is [Hedged] plus sibling-hedge routing — a hedged
      commit-path leg's backup copy goes to a healthy {e sibling} [St]
      member when the primary is sustainedly slow (a sibling win counts
      as the leg's failure, never as the primary's answer), and
      activation store reads walk healthiest-first — plus one
      {!Replica.Autonomic} controller daemon per server node, with
      {!Replica.Autonomic.default_config}: stores that stay sustainedly
      slow past the hysteresis window, as seen by a quorum of
      controllers, are Excluded from their [St] sets through the
      validated round, and re-Included (with catch-up through the
      reintegration fence) once they heal, with a cooldown damping
      membership flaps.

    [bind_cache_lease] (default off) enables the client-side lease cache
    of bind results with that lease duration (see {!Bind_cache}).
    [naming_service_time] (default 0.0) models the per-operation CPU cost
    of each naming shard (see {!Gvd.install}); both defaults reproduce
    the seed behaviour exactly. *)

(* Substrate access *)

val engine : t -> Sim.Engine.t
val network : t -> Net.Network.t
val atomic : t -> Action.Atomic.runtime
val store_host : t -> Action.Store_host.t
val server_runtime : t -> Replica.Server.runtime
val group_runtime : t -> Replica.Group.runtime
val router : t -> Router.t
val gvd : t -> Gvd.t
(** The primary naming shard (the only one when [gvd_nodes = []]). *)

val binder : t -> Binder.t
val bind_cache : t -> Bind_cache.t option
val metrics : t -> Sim.Metrics.t
val trace : t -> Sim.Trace.t
val uid_supply : t -> Store.Uid.supply

val topology : t -> topology
(** The topology the world was created from. *)

val autonomic : t -> Replica.Autonomic.t option
(** The autonomic membership plane, under the [Autonomic] profile. *)

val create_object :
  t ->
  name:string ->
  impl:string ->
  ?initial:string ->
  sv:Net.Network.node_id list ->
  st:Net.Network.node_id list ->
  unit ->
  Store.Uid.t
(** Create a persistent object before the simulation starts: seeds its
    initial state on every [st] store and registers the naming entry.
    [initial] defaults to the implementation's initial payload. *)

val lookup : t -> from:Net.Network.node_id -> string -> Store.Uid.t option
(** Name → UID through the naming service; must run in a fiber. *)

val with_bound :
  ?deadline:float ->
  t ->
  client:Net.Network.node_id ->
  scheme:Scheme.t ->
  policy:Replica.Policy.t ->
  uid:Store.Uid.t ->
  (Action.Atomic.t -> Replica.Group.t -> 'a) ->
  ('a, string) result
(** [with_bound t ~client ~scheme ~policy ~uid body] runs, in a fiber on
    [client]: a top-level atomic action that binds to the object under
    [scheme], executes [body act group], and commits (with the paper's
    commit-time state copy-back and exclusion attached). Returns the
    body's value or the abort reason. [deadline] is the relative time
    budget handed to {!Action.Atomic.atomically}; under a gray-failure
    profile it also propagates to servers, which refuse expired phase-1
    work on its behalf. *)

val invoke :
  t ->
  Replica.Group.t ->
  act:Action.Atomic.t ->
  ?write:bool ->
  string ->
  string
(** Convenience wrapper over {!Replica.Group.invoke} that aborts the
    action (raising {!Action.Atomic.Abort}) on failure. *)

val run : ?until:float -> t -> unit
(** Drive the simulation (delegates to {!Sim.Engine.run}). *)

val spawn_client : t -> Net.Network.node_id -> (unit -> unit) -> unit
(** Spawn a fiber on a client node. *)
