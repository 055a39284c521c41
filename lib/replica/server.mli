(** Server hosting: activated object replicas on nodes.

    A {e server} is the active form of a persistent object (§2.2): volatile
    state loaded from an object store plus the machinery to execute
    operations under atomic-action control. Each node capable of running
    servers is equipped once with [install_host]; activation then creates
    {e instances} on demand. Instances are volatile — a node crash destroys
    them (the crash hook clears the table), and recovery does not resurrect
    them: re-activation happens through the naming service, per the paper.

    Concurrency control is per instance: operations acquire read/write
    locks keyed by the invoking action; writes stage a new payload per
    action (read-your-writes within the action, isolation between
    actions). The instance participates in action completion through a
    {!Action.Resource_host} manager: commit installs the staged payload and
    advances the version; abort discards it; nested-commit transfers
    staging and locks to the parent action.

    For coordinator-cohort replication, instances carry a role; the
    coordinator checkpoints its full instance state to cohorts after every
    invocation and at action ends, and cohorts self-promote (lowest node id
    first) when the failure detector reports the coordinator's crash. *)

type role = Plain | Coordinator | Cohort

type runtime
(** Server machinery for one simulated world. *)

val create :
  ?delta_shipping:bool ->
  ?force_delta:bool ->
  Action.Atomic.runtime ->
  (string, Object_impl.t) Hashtbl.t ->
  runtime
(** [create art impls] builds the runtime over the action runtime and an
    implementation registry.

    [delta_shipping] (default off) enables op-log delta replication. Off,
    the runtime records nothing and commit views carry no chains, so
    worlds run byte-identically to the pre-oplog behaviour; on, instance
    commits append their op provenance to {!oplog} before releasing
    locks, checkpoints carry staged ops and the retained log, and
    {!Commit.attach} ships per-store log suffixes instead of full states
    wherever the acknowledged-version vector allows.

    [force_delta] (default off) skips {!Commit.attach}'s per-write size
    comparison and ships every coverable delta even when the full state
    would encode smaller. Chaos worlds set it so small objects keep the
    delta path — and its audit coverage — exercised. *)

val atomic_runtime : runtime -> Action.Atomic.runtime

val oplog : runtime -> Oplog.t
(** The per-object operation logs, acknowledged-version vector and golden
    shadow this runtime maintains for delta state shipping. *)

val delta_shipping : runtime -> bool
(** The [delta_shipping] setting the runtime was created with. *)

val groupcommit : runtime -> Groupcommit.t
(** The group-commit plane of this runtime: {!Commit.attach} batches its
    prepare and phase-2 scatters through it. *)

val force_delta : runtime -> bool
(** The [force_delta] setting the runtime was created with. *)

val set_eager_checkpoints : runtime -> bool -> unit
(** Coordinator-cohort checkpointing policy: [true] (default) checkpoints
    after every invocation, so a failover continues the client's action
    seamlessly; [false] checkpoints only at action ends, trading
    checkpoint traffic for aborted actions on mid-action failover (the
    promoted cohort answers {!State_lost} when it detects the gap). *)

val install_host : runtime -> Net.Network.node_id -> unit
(** Equip [node] to host servers: registers the activation/invocation
    endpoints and the crash hook that destroys instances. *)

val resource_name : Store.Uid.t -> string
(** The {!Action.Resource_host} resource name of an instance,
    ["obj:<uid>"]. *)

val mc : runtime -> Net.Multicast.t
(** The multicast runtime replicas listen on; the group layer casts
    invocations through it and installs the sequencer. *)

(** {2 Remote operations} (called from a fiber on [from]) *)

type activate_result =
  | Activated of Store.Version.t
  | Activation_failed of string

val activate :
  runtime ->
  from:Net.Network.node_id ->
  server:Net.Network.node_id ->
  uid:Store.Uid.t ->
  impl:string ->
  stores:Net.Network.node_id list ->
  role:role ->
  members:Net.Network.node_id list ->
  (activate_result, Net.Rpc.error) result
(** Create (or find) an instance on [server]. The state is loaded from the
    first reachable node of [stores]; an empty [stores] list creates a
    fresh instance from the implementation's initial payload (object
    creation). [members] is the activated replica group (used by cohorts
    to arrange self-promotion). Idempotent. *)

type invoke_result =
  | Reply of string
  | Locked  (** lock wait timed out: advisory to abort *)
  | Not_active  (** no instance here: stale binding *)
  | Not_coordinator  (** coordinator-cohort: retry at the coordinator *)
  | State_lost
      (** a failover lost the action's staged state (lazy checkpointing):
          the action must abort *)
  | Settled
      (** the action already committed or aborted at this instance: a
          late-arriving invocation (a duplicated multicast, or one parked
          on the instance lock past the action's own timeout abort) must
          not stage fresh state nobody will ever clean up *)

val invoke :
  runtime ->
  from:Net.Network.node_id ->
  server:Net.Network.node_id ->
  uid:Store.Uid.t ->
  action:string ->
  serial:int ->
  last_acked:int ->
  write:bool ->
  op:string ->
  (invoke_result, Net.Rpc.error) result
(** Execute [op] on the instance via point-to-point RPC. [serial] numbers
    the invocation within [action] for exactly-once retry semantics across
    coordinator failover; [last_acked] is the highest serial of this
    action the client has seen answered (0 if none), used for the
    {!State_lost} detection. *)

type commit_view = {
  cv_payload : string;
  cv_version : Store.Version.t;
  cv_dirty : bool;  (** the action staged a write *)
  cv_delta : (Store.Version.t * string list) list;
      (** the replica's retained op chain (oldest first), ending with the
          ops of the dirty write at [cv_version]; empty unless delta
          shipping is on and the write's provenance is fully known. The
          copy-back cuts per-store suffixes [(v_store, cv_version]] out
          of it ({!Oplog.suffix_of}). *)
}

val commit_view :
  runtime ->
  from:Net.Network.node_id ->
  server:Net.Network.node_id ->
  uid:Store.Uid.t ->
  action:string ->
  last_acked:int ->
  (commit_view option, Net.Rpc.error) result
(** The state as it will be if [action] commits — what commit processing
    copies to the object stores. [None] if no instance, or if the replica
    has not yet processed the action's [last_acked] invocation (it is
    behind the totally-ordered stream; ask another replica or retry). *)

val role_of :
  runtime ->
  from:Net.Network.node_id ->
  server:Net.Network.node_id ->
  uid:Store.Uid.t ->
  (role option, Net.Rpc.error) result
(** The instance's current role, [None] if not activated there. Used by
    clients probing for the coordinator after a failover. *)

val passivate :
  runtime ->
  from:Net.Network.node_id ->
  server:Net.Network.node_id ->
  uid:Store.Uid.t ->
  (bool, Net.Rpc.error) result
(** Destroy the instance if it is quiescent (no locks, no staged state);
    [Ok false] if it is still in use. *)

val quiescent :
  runtime ->
  from:Net.Network.node_id ->
  server:Net.Network.node_id ->
  uid:Store.Uid.t ->
  (bool, Net.Rpc.error) result
(** Whether the instance is quiescent (a missing instance is quiescent). *)

(** {2 Multicast invocation} (active replication) *)

type mc_invoke = {
  mi_uid : Store.Uid.t;
  mi_action : string;
  mi_serial : int;
  mi_last_acked : int;
  mi_write : bool;
  mi_op : string;
  mi_reply_to : Net.Network.node_id;
  mi_req : int;
}

val invoke_channel : runtime -> mc_invoke Net.Multicast.channel
(** The group channel on which replicas listen for totally-ordered
    invocations; hosts installed with [install_host] are listening. *)

type mc_reply = { mr_req : int; mr_replica : Net.Network.node_id; mr_result : invoke_result }

val reply_endpoint : runtime -> (mc_reply, unit) Net.Rpc.endpoint
(** Endpoint replicas use to return multicast invocation results; the
    group layer serves it on client nodes. *)

(** {2 Direct inspection} (tests, daemons on the same node) *)

val local_instances : runtime -> node:Net.Network.node_id -> Store.Uid.t list
(** UIDs of the instances currently activated on [node], sorted. *)

val instance_exists : runtime -> node:Net.Network.node_id -> uid:Store.Uid.t -> bool

val instance_residue :
  runtime ->
  node:Net.Network.node_id ->
  (Store.Uid.t * string list * string list) list
(** Instances on [node] that are not quiescent: each with the actions
    still holding its instance lock and the actions with staged
    (uncommitted) state. Empty once every action has completed — audits
    assert exactly that after a world drains. *)

val instance_payload :
  runtime -> node:Net.Network.node_id -> uid:Store.Uid.t -> string option
(** Committed payload of a local instance, bypassing the network. *)
