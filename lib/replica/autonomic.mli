(** The autonomic membership plane (§16): per-server controller daemons
    that watch store latency health and drive the §4.2 Exclude/Include
    protocols for {e gray} failures — stores alive enough to vote but
    slow enough to drag every commit to their pace.

    Decision doctrine: a store is proposed for Exclude only after
    {e hysteresis} (K consecutive probe rounds flagged it slow on the
    controller's private tracker — {!Net.Health.sustained_slow}, or a
    latency EWMA 3x past the healthiest probed peer, so a half-sick
    fleet cannot normalize its own sickness away)
    {e and} a {e quorum} of controllers concurs (digest gossip over the
    [autonomic.digest] endpoint); a store re-Included after healing is
    protected by a {e cooldown} before it may be Excluded again, so a
    flapping brownout cannot livelock membership. The Exclude itself
    validates the St revision inside its round and refuses to empty
    [St]; the re-Include runs the catch-up fence before the store
    rejoins the commit set — both via the injected drivers, so the
    controller can afford a wrong verdict.

    The plane drives naming-tier protocols from [lib/replica], so every
    naming-facing operation is an injected closure ({!deps});
    {!Naming.Service.create} wires the real drivers
    ({!Naming.Reintegration}), and tests fabricate them to exercise the
    decision logic without a world. Nothing runs unless {!start} is
    called, and the plane draws no RNG: worlds without it are
    byte-identical. *)

type config = {
  au_period : float;  (** probe cadence (simulated time) *)
  au_hysteresis : int;
      (** K: consecutive slow (resp. healthy) probe rounds before an
          Exclude is proposed (resp. a re-Include triggered) *)
  au_quorum : int;
      (** controllers (including the proposer) that must see the store
          slow; clamped to the controller population *)
  au_cooldown : float;
      (** no re-Exclude of a store before this much time after its
          re-Include (flap damping) *)
  au_slow_floor : float;
      (** the private tracker's {!Net.Health.create} [slow_floor] *)
  au_probe_timeout : float;
      (** per-round probe wait budget: probes fan out concurrently and a
          probe that misses it counts as a failure observation, so a
          sick store's own round-trip cannot stretch the hysteresis
          window *)
}

val default_config : config
(** period 5.0, hysteresis 3, quorum 2, cooldown 120.0, slow floor 8.0,
    probe timeout 10.0. *)

type deps = {
  d_rpc : Net.Rpc.t;
  d_stores : Net.Network.node_id list;  (** the store nodes to watch *)
  d_servers : Net.Network.node_id list;
      (** the controller nodes (the quorum electorate) *)
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

val create : ?config:config -> deps -> t

val config : t -> config

val attach : t -> Net.Network.node_id -> ctrl
(** Install a controller on [node] (serving its digest endpoint) without
    starting the daemon — deterministic unit tests drive it with
    {!tick}. Idempotent via {!start}. *)

val start : t -> Net.Network.node_id -> unit
(** {!attach} (if not yet attached) and spawn the controller daemon on
    [node]: every [au_period] of simulated time it probes all stores,
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
