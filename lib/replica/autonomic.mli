(** The autonomic membership plane (§16): per-server controller daemons
    that watch store latency health and drive the §4.2 Exclude/Include
    protocols for {e gray} failures — stores alive enough to vote but
    slow enough to drag every commit to their pace.

    Decision doctrine: {e hysteresis} alone. A store is proposed for
    Exclude only after K consecutive probe rounds flagged it slow on the
    controller's private tracker ({!Net.Health.sustained_slow}, or a
    latency EWMA 3x past the healthiest probed peer, so a half-sick
    fleet cannot normalize its own sickness away), and an excluded store
    is re-Included only after K consecutive healthy rounds. The Exclude
    itself validates the St revision inside its round and refuses to
    empty [St]; the re-Include runs the catch-up fence before the store
    rejoins the commit set — both via the injected drivers, so the
    controller can afford a wrong verdict.

    The plane drives naming-tier protocols from [lib/replica], so every
    naming-facing operation is an injected closure ({!deps});
    {!Naming.Service.create} wires the real drivers
    ({!Naming.Reintegration}), and tests fabricate them to exercise the
    decision logic without a world. Nothing runs unless {!start} is
    called, and the plane draws no RNG: worlds without it are
    byte-identical. *)

val period : float
(** [5.0]: the probe cadence (simulated time). *)

val hysteresis : int
(** [3]: K, the consecutive slow (resp. healthy) probe rounds before an
    Exclude is proposed (resp. a re-Include triggered). *)

val probe_timeout : float
(** [10.0]: the per-round probe wait budget. Probes fan out concurrently
    and a probe that misses it counts as a round-trip of exactly this
    long, so a sick store's own round-trip cannot stretch the hysteresis
    window. It exceeds {!Net.Health.slow_floor}, which the controller's
    private tracker judges slowness against. *)

type deps = {
  d_net : Net.Network.t;
  d_stores : Net.Network.node_id list;  (** the store nodes to watch *)
  d_probe :
    from:Net.Network.node_id ->
    store:Net.Network.node_id ->
    (unit, Net.Rpc.error) result;
      (** one no-op RPC to [store] (the controller times it); must run
          in a fiber on [from] *)
  d_exclude : from:Net.Network.node_id -> store:Net.Network.node_id -> int;
      (** exclude [store] from every object it holds and return how many
          exclusions committed ({!Naming.Reintegration.exclude_store_now});
          must run in a fiber on [from] *)
  d_include : store:Net.Network.node_id -> unit;
      (** arrange the catch-up re-Include of a healed [store]
          ({!Naming.Reintegration.reintegrate_store_now} spawned on it);
          asynchronous — the store rejoins [St] only once its state
          clears the include fence *)
}

type t
(** One plane per world, holding every node's controller. *)

type ctrl
(** One server node's controller. *)

val create : deps -> t

val attach : t -> Net.Network.node_id -> ctrl
(** Install a controller on [node] without starting the daemon — deterministic unit tests drive it with
    {!tick}. Idempotent via {!start}. *)

val start : t -> Net.Network.node_id -> unit
(** {!attach} (if not yet attached) and spawn the controller daemon on
    [node]: every {!period} of simulated time it probes all stores,
    updates the streaks, and applies the decision doctrine. The idle
    wait is a {!Sim.Engine.daemon_sleep}; a crash kills the daemon with
    its node and recovery re-arms it, the controller's state
    surviving. *)

val tick : t -> ctrl -> unit
(** One probe-and-decide round, for tests; must run in a fiber on the
    controller's node. *)

(** {2 Introspection} (tests and experiments) *)

val controller : t -> Net.Network.node_id -> ctrl option

val excluded : t -> Net.Network.node_id -> Net.Network.node_id list
(** The stores [node]'s controller has excluded and not yet re-included
    (sorted). *)

val epoch : t -> Net.Network.node_id -> int
(** Membership changes driven by [node]'s controller so far. *)

val slow_streak : t -> Net.Network.node_id -> Net.Network.node_id -> int
val heal_streak : t -> Net.Network.node_id -> Net.Network.node_id -> int
val health : t -> Net.Network.node_id -> Net.Health.t option
