(** Simulated network of fail-silent nodes.

    The network owns the set of nodes, the message latency model, crash and
    recovery of nodes, and optional pairwise partitions. It matches the
    paper's failure assumptions (§2.1): nodes are fail-silent — they either
    work as specified or stop — and processes on functioning nodes can
    communicate.

    A node carries:
    - an {e incarnation} counter, bumped on every recovery;
    - an {!Sim.Engine.group} per incarnation: fibers spawned on behalf of
      the node die silently when it crashes;
    - registered {e services} (installed by the RPC layer), which survive
      crashes — the code of a service is on stable storage, per §3.1 —
      while any volatile state they captured is reset through [on_crash]
      callbacks;
    - [on_crash] / [on_recover] hooks used by upper layers (volatile cache
      invalidation, recovery protocols such as the paper's
      update-then-[Include] sequence). *)

type t
(** A simulated network. *)

type node_id = string
(** Nodes are named by short strings ("alpha", "store1", ...), which keeps
    traces readable. *)

exception Unknown_node of node_id
(** Raised when an operation names a node that was never added. *)

type gray_failure =
  | Hedged
      (** hedged scatter-gathers for idempotent fan-outs with
          latency-ranked replica preference, server-side shedding of
          calls whose propagated deadline has passed, and retry-breaker
          trips on sustained slowness (docs/PROTOCOLS.md §15) *)
  | Autonomic
      (** [Hedged] plus sibling-hedge routing: a hedged commit-path leg's
          backup copy goes to a healthy sibling [St] member, and
          activation store reads walk healthiest-first. The membership
          controllers of §16 are started by the naming tier's world
          assembly, which reads the same setting. *)
(** The gray-failure profile of a world: which resilience planes are
    live. A network created without one runs every fan-out, call and
    breaker on the plain path. *)

val create :
  ?latency:(Sim.Rng.t -> float) ->
  ?detect_delay:float ->
  ?gray_failure:gray_failure ->
  Sim.Engine.t ->
  t
(** [create eng] is an empty network driven by [eng].
    [latency] samples per-message transit time (default: uniform in
    [\[0.5, 1.5\]]). [detect_delay] is the failure-detector notification
    delay applied when a crash aborts in-flight RPCs (default [1.0]).
    [gray_failure] (default none) fixes the world's gray-failure profile
    for its whole life; every layer above reads it from here. *)

val engine : t -> Sim.Engine.t
(** The engine driving this network. *)

val trace : t -> Sim.Trace.t
(** The network's trace sink (shared with upper layers by convention). It
    starts disabled; a reader turns it on with {!Sim.Trace.set_enabled}
    before the run it wants to see. *)

val metrics : t -> Sim.Metrics.t
(** The network's metrics registry (shared with upper layers). *)

val health : t -> Health.t
(** The network's latency-health tracker. The RPC layer feeds every call
    completion into it; retry breakers, hedged scatters and replica
    ranking read it. Always on — its bookkeeping is pure arithmetic, so
    fault-free worlds are unperturbed. *)

val gray_failure : t -> gray_failure option
(** The profile the network was created with. *)

val hedged : t -> bool
(** Whether any gray-failure profile is set. Hedged idempotent calls,
    deadline shedding ({!Rpc.call}) and degraded breaker trips
    ({!Retry.run}) are live under both [Hedged] and [Autonomic]. The
    profile is read only inside this library: layers above declare what
    a call is ({!Rpc.call}'s [idempotent], {!Rpc.call_all}'s [replicas])
    and ask for an order ({!rank_servers}, {!rank_stores}). *)

val rank_servers : t -> node_id list -> node_id list
(** Candidate servers in preference order: under any gray-failure
    profile healthiest first ({!Health.rank}), otherwise unchanged. Ties
    keep the caller's order. *)

val rank_stores : t -> node_id list -> node_id list
(** The order in which to try the stores of a replica set for a read:
    healthiest first under the [Autonomic] profile, otherwise
    unchanged. *)

val add_node : t -> node_id -> unit
(** [add_node t id] registers a fresh, up node. Raises [Invalid_argument]
    if [id] already exists. *)

val node_ids : t -> node_id list
(** All registered node ids, sorted. *)

val is_up : t -> node_id -> bool
(** Whether the node is currently functioning. *)

val incarnation : t -> node_id -> int
(** The node's incarnation number (0 initially, +1 per recovery). *)

val group : t -> node_id -> Sim.Engine.group
(** The fiber group of the node's current incarnation. Fibers representing
    computation {e on} the node must be spawned into this group. *)

val spawn_on : t -> node_id -> ?name:string -> (unit -> unit) -> unit
(** [spawn_on t id f] runs fiber [f] on node [id] (in its current group).
    Silently does nothing if the node is down. *)

val crash : t -> node_id -> unit
(** [crash t id] stops the node: its fibers die at their suspension points,
    its volatile state is reset via [on_crash] hooks, in-flight RPCs
    against it fail after the detection delay, and messages in transit to
    it are dropped. Idempotent. *)

val recover : t -> node_id -> unit
(** [recover t id] restarts a crashed node with a fresh incarnation and
    runs its [on_recover] hooks (oldest registration first). Idempotent on
    an up node. *)

val on_crash : t -> node_id -> (unit -> unit) -> unit
(** Register a callback run (synchronously) when the node crashes. *)

val on_recover : t -> node_id -> (unit -> unit) -> unit
(** Register a callback run when the node recovers. The callback runs in a
    fresh fiber of the new incarnation. *)

val set_partitioned : t -> node_id -> node_id -> bool -> unit
(** [set_partitioned t a b flag] blocks (or unblocks) message delivery in
    both directions between [a] and [b]. *)

val partitioned : t -> node_id -> node_id -> bool
(** Whether the pair is currently partitioned. *)

val reachable : t -> node_id -> node_id -> bool
(** [reachable t src dst]: [dst] is up, not partitioned from [src], and the
    directed link [src]->[dst] is not one-way cut. *)

(** {2 Message-level fault plane}

    Directed per-link fault rules: drop, duplicate, reorder (delivery held
    past later sends), latency spikes, and one-way cuts. Links with no rule
    installed take the exact pre-fault code path with no extra RNG draws,
    so fault-free worlds are byte-identical. Fault decisions draw from a
    stream derived from (but independent of) the latency stream, making
    every injected fault reproducible from the engine seed. Injections are
    recorded in the trace under tag ["fault"] and counted as
    [fault.drop] / [fault.dup] / [fault.reorder] / [fault.delay] /
    [fault.cut_dropped] metrics.

    {!send_fifo} channels (the sequencer multicast) are reliable-ordered by
    contract: only delay spikes and cuts apply to them. *)

val set_link_fault :
  t ->
  ?drop:float ->
  ?dup:float ->
  ?reorder:float ->
  ?spike_prob:float ->
  ?spike:float ->
  src:node_id ->
  dst:node_id ->
  unit ->
  unit
(** Install (or overwrite) the message-fault rule for the directed link
    [src]->[dst]. [drop], [dup], [reorder] and [spike_prob] are per-message
    probabilities; [spike] is the extra latency added when a spike fires.
    Omitted fields default to 0 (off); a rule with all fields off is
    removed. A one-way cut set via {!set_oneway_cut} is preserved. *)

val clear_link_fault : t -> src:node_id -> dst:node_id -> unit
(** Remove drop/dup/reorder/spike injection from the directed link,
    preserving any one-way cut. *)

val set_oneway_cut : t -> src:node_id -> dst:node_id -> bool -> unit
(** [set_oneway_cut t ~src ~dst true] blocks delivery in the [src]->[dst]
    direction only — the asymmetric partition of the chaos harness.
    Messages in flight when the cut lands are dropped at delivery time,
    like symmetric partitions. *)

val oneway_cut : t -> src:node_id -> dst:node_id -> bool
(** Whether the directed link is currently cut. *)

val set_brownout : t -> ?prob:float -> lo:float -> hi:float -> node_id -> unit
(** [set_brownout t ~lo ~hi node] installs per-node service-time inflation
    (a {e brownout}): each message delivered to — or sent by — [node] is,
    with probability [prob] (default [0.2]), delayed by an extra uniform
    draw from [\[lo, hi\]]. Distinct from a link spike: it follows the
    node across all of its links, modelling a gray failure (overloaded
    scheduler, thrashing disk) rather than a sick wire. Inflation draws
    come from the fault stream, and only when a brownout is installed, so
    healthy worlds are byte-identical. Counted as [fault.brownout]. *)

val clear_brownout : t -> node_id -> unit
(** Remove a node's brownout, if any. *)

val clear_all_faults : t -> unit
(** Remove every link fault rule, one-way cut and brownout (the heal step
    of a chaos schedule). Symmetric partitions are not affected. *)

val dup_ever : t -> bool
(** Whether a link rule with [dup > 0] was ever installed in this
    network's lifetime — the only fault that delivers a message twice. The
    RPC layer uses this to switch on duplicate suppression without taxing
    other worlds. *)

val derive_rng : t -> string -> Sim.Rng.t
(** [derive_rng t label] is an independent RNG stream deterministically
    derived from the network's seed and [label], without advancing any
    existing stream. Derive at construction time: the derivation reads the
    latency stream's current state. *)

val sample_latency : t -> float
(** Draw one latency sample from the network's model. *)

val send : t -> src:node_id -> dst:node_id -> (unit -> unit) -> unit
(** [send t ~src ~dst f] delivers [f] to [dst] after one latency sample:
    at delivery time, if [dst] is up and the pair is not partitioned, [f]
    runs as a fresh fiber in [dst]'s group, started inside the delivery
    event ({!Sim.Engine.start}); otherwise the message is silently dropped
    (fail-silent network discards mail for dead nodes). *)

val reply : t -> src:node_id -> dst:node_id -> (unit -> unit) -> unit
(** Like {!send}, but [f] runs as a plain callback in the delivery event,
    with no fiber: it must not suspend. For an RPC answer, which only
    resumes the waiting caller. An exception [f] raises escapes
    {!Sim.Engine.run}. *)

val send_fifo : t -> src:node_id -> dst:node_id -> (unit -> unit) -> unit
(** Like {!send} but deliveries from [src] to [dst] preserve send order
    (per-pair FIFO), as required by the sequencer-based ordered multicast. *)

(* Failure-detector support for the RPC layer. *)

type watch
(** Handle for a registered crash watch. *)

val watch_crash : t -> node_id -> (unit -> unit) -> watch
(** [watch_crash t id f] arranges for [f] to run [detect_delay] after [id]
    crashes, unless {!unwatch}ed first. Used by RPC calls to fail fast when
    the callee dies mid-call, modelling the perfect failure detector the
    paper assumes. *)

val unwatch : t -> watch -> unit
(** Cancel a crash watch: O(1). A no-op once the watch has fired or been
    cancelled. *)
