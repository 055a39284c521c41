(** Client-side replica groups: activation and policy-directed invocation.

    A group handle is what a client holds after binding to an object: the
    UID, the replication policy, the activated servers (the paper's
    [SvA']) and the store view ([StA]) captured at bind time. Invocations
    are routed per policy (§2.3(2)):

    - {e single-copy passive}: point-to-point RPC to the only server;
    - {e active}: totally-ordered multicast to all members through the
      sequencer; the first reply wins, so up to k−1 crashes are masked;
    - {e coordinator-cohort}: RPC to the coordinator; on failure the
      client locates the self-promoted cohort and retries (invocations are
      numbered, so retries are exactly-once).

    Invocations automatically enlist the touched server instances in the
    client's action, wiring locks and staged state into action
    completion. *)

type runtime
(** Group machinery for one simulated world. *)

val create : Server.runtime -> sequencer:Net.Network.node_id -> runtime
(** [create srv ~sequencer] builds the runtime; [sequencer] orders active
    replication invocations (we host it on the naming-service node, which
    the paper assumes always available). *)

val server_runtime : runtime -> Server.runtime

type kept_view
(** The commit view an answered invocation carried
    ({!Server.invoke_result}), with its action and the member that
    answered. *)

type t = {
  g_uid : Store.Uid.t;
  g_impl : string;
  g_policy : Policy.t;
  mutable g_members : Net.Network.node_id list;
      (** activated servers, coordinator first for coordinator-cohort *)
  g_stores : Net.Network.node_id list;  (** StA view captured at bind *)
  g_client : Net.Network.node_id;
  mutable g_acked : (string * int) list;
      (** per action owner, the highest invocation serial answered
          through this binding; it lives and dies with the binding *)
  mutable g_view : kept_view option;
      (** the view the last answered invocation through this binding
          carried; every invocation attempt clears it first *)
  mutable g_on_write : unit -> unit;
      (** run as each write invocation through this binding starts;
          commit processing ({!Commit.attach}) sets it to announce its
          copy-back to the group-commit plane *)
}

val activate :
  runtime ->
  client:Net.Network.node_id ->
  uid:Store.Uid.t ->
  impl:string ->
  policy:Policy.t ->
  servers:Net.Network.node_id list ->
  stores:Net.Network.node_id list ->
  (t, string) result
(** Activate the object on [servers] (the chosen [SvA'] subset) per
    [policy], loading state from [stores]. Activation failures on
    individual nodes are tolerated as long as one replica activates
    (single-copy passive requires its one server). Must run in a fiber on
    [client]. *)

type invoke_error =
  | Unavailable of string  (** no functioning replica can answer *)
  | Lock_refused  (** server-side lock wait timed out; abort advised *)
  | Staged_lost
      (** a coordinator failover lost the action's staged updates (lazy
          checkpointing, see {!Server.set_eager_checkpoints}); the action
          must abort *)

val pp_invoke_error : Format.formatter -> invoke_error -> unit

val invoke :
  runtime ->
  t ->
  act:Action.Atomic.t ->
  ?write:bool ->
  string ->
  (string, invoke_error) result
(** [invoke rt g ~act op] executes [op] (default [write:true]) in the
    context of [act] and returns the object's reply. *)

val commit_view :
  runtime ->
  t ->
  act:Action.Atomic.t ->
  (Server.commit_view, string) result
(** The post-commit state of the object under [act]; used by commit
    processing, for the top-level action that commits, to copy state to
    object stores. It is the view the reply to [act]'s last invocation
    through [g] carried, when that was the last invocation attempt
    through [g] and the member that answered is up on the incarnation it
    answered from. Otherwise (failover, a nested action's last
    invocation, a lost reply) it is asked of the first functioning
    replica ({!Server.commit_view}), which must have processed that
    invocation. *)

val live_members : runtime -> t -> Net.Network.node_id list
(** Members the failure detector currently believes are up. *)

val passivate : runtime -> t -> from:Net.Network.node_id -> unit
(** Best-effort passivation of every quiescent member instance
    (§2.3(3)). *)
