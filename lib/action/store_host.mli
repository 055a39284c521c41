(** Hosting of object stores on nodes, with transactional write endpoints.

    Each participating node gets a stable {!Store.Object_store.t} and a
    stable {!Store.Intent_log.t}; this module registers the RPC endpoints
    through which remote servers read states (activation, §3.1) and write
    them under two-phase commit (commit processing, §2.3(3)).

    Contents survive crashes. What a crash does interrupt is protocol
    participation: a node that crashes between [prepare] and [commit] holds
    an in-doubt record that {!Termination} resolves against the
    coordinator's decision record. *)

type t
(** The store-hosting runtime for one simulated world. *)

val create : Net.Rpc.t -> t
(** [create rpc] is a runtime with no hosted stores yet. *)

val rpc : t -> Net.Rpc.t

val add : t -> Net.Network.node_id -> unit
(** Equip [node] with a store and an intent log and register the store
    service endpoints on it. *)

val hosted : t -> Net.Network.node_id -> bool

val nodes : t -> Net.Network.node_id list
(** Every node with a store, sorted. *)

val objects : t -> Net.Network.node_id -> Store.Object_store.t
(** Direct (out-of-band) access to a node's object store; used for
    bootstrap and test assertions, never by protocol code. *)

val log : t -> Net.Network.node_id -> Store.Intent_log.t
(** Direct access to a node's intent log, same caveats. *)

val seed : t -> Net.Network.node_id -> Store.Uid.t -> Store.Object_state.t -> unit
(** Out-of-band initial placement of an object state on a node (creating
    the object before the simulation starts). *)

(* Remote operations; all must be called from a fiber on [from]. *)

val read :
  t ->
  from:Net.Network.node_id ->
  store:Net.Network.node_id ->
  Store.Uid.t ->
  (Store.Object_state.t option, Net.Rpc.error) result
(** Read the committed state of an object from a store node. *)

(** A participant's phase-1 vote. [Vote_yes] stages the write.

    [Vote_stale] is backward validation:
    the incoming state's version is not the direct successor of what the
    store holds, meaning the writer worked from a stale activation (e.g.
    two clients activated disjoint replica sets during churn — the
    split-brain the Arjuna lock store prevents physically). The action
    must abort; excluding the store would be wrong, it is healthy. *)
type vote = Vote_yes | Vote_stale

type prepare_req = {
  pr_action : string;
  pr_coordinator : string;
  pr_writes : (Store.Uid.t * Store.Object_state.t) list;
}
(** One action's phase-1 sub-record for one store. A [store.prepare]
    round carries a list of them — every action of a group-commit batch
    ({!Replica.Groupcommit}) that writes the store, or a lone action's
    list of one — and the store answers one vote per sub-record, in
    order. Validation, write reservations, intent-log staging, the
    termination hooks and duplicate-delivery replacement all run
    per sub-record, so one action's refusal ([Vote_stale]) affects only
    its own vote. A [store.commit] round
    likewise carries a list of actions, each applied idempotently. *)

val vote_of :
  action:string ->
  ((string * vote) list, Net.Rpc.error) result ->
  (vote, Net.Rpc.error) result
(** [action]'s vote out of one store's answer to a prepare round
    ([Error No_service] if the answer lacks it). *)

val prepare :
  t ->
  from:Net.Network.node_id ->
  store:Net.Network.node_id ->
  action:string ->
  coordinator:Net.Network.node_id ->
  (Store.Uid.t * Store.Object_state.t) list ->
  (vote, Net.Rpc.error) result
(** Phase-1 write of full states by one action to one store (a round of
    one sub-record): validate versions and record intentions durably on
    [store]; [Ok Vote_yes] is a yes-vote. *)

val commit :
  t ->
  from:Net.Network.node_id ->
  store:Net.Network.node_id ->
  action:string ->
  (unit, Net.Rpc.error) result
(** Phase-2: apply the intentions of [action]. Idempotent; applying a
    state older than what the store already holds is skipped, making
    recovery replays safe. *)

val abort :
  t ->
  from:Net.Network.node_id ->
  store:Net.Network.node_id ->
  action:string ->
  (unit, Net.Rpc.error) result
(** Phase-2 abort: discard the intentions of [action]. *)

val probe :
  t -> from:Net.Network.node_id -> store:Net.Network.node_id -> (unit, Net.Rpc.error) result
(** A no-op round trip to [store]: a latency/liveness sample for health
    probing, with nothing read or written. *)

val prepare_all :
  t ->
  from:Net.Network.node_id ->
  ?deadline_at:float ->
  ?st:Net.Network.node_id list ->
  (Net.Network.node_id * prepare_req list) list ->
  (Net.Network.node_id * ((string * vote) list, Net.Rpc.error) result) list
(** Scatter one prepare round to every listed store concurrently
    ({!Net.Rpc.call_all}); answers come back in store order, each a
    per-action vote list in sub-record order. The commit-time state copy
    (§2.3(3)) issues this one parallel write to all of [StA] instead of a
    chain of blocking calls, so its latency is one round-trip, not [|St|]
    of them.

    The 2PC fan-outs are idempotent calls ({!Net.Rpc.call}): a replayed
    prepare re-stages the same intent ({!Store.Intent_log.prepare}
    replaces per action), and commit/abort resolve idempotently, so a
    duplicate delivery changes nothing. [deadline_at] rides in each
    request's metadata.

    [st] is the [St] set the stores belong to
    ({!Net.Rpc.call_all}'s [replicas]): a leg's backup copy may go to a
    {e sibling} member instead of the same node, and a sibling win is
    reported as the leg's [Error Timed_out] — the sibling's answer is
    never passed off as the primary's. Prepare legs cancel the losing
    primary cooperatively (an unstaged prepare is harmless once the leg
    counts as failed); phase-2 legs keep the primary copy in flight
    because the primary must still apply its decision. Every member of
    [st] must hold every object in the round's sub-records — so a round
    carrying several actions, whose [St] need not include the sibling,
    must not pass one: a staged intent there would dangle forever. *)

val prepare_each :
  t ->
  from:Net.Network.node_id ->
  ?deadline_at:float ->
  ?st:Net.Network.node_id list ->
  action:string ->
  coordinator:Net.Network.node_id ->
  (Net.Network.node_id * (Store.Uid.t * Store.Object_state.t) list) list ->
  (Net.Network.node_id * (vote, Net.Rpc.error) result) list
(** {!prepare_all} for one action: one sub-record per store, the action's
    vote per store. *)

val commit_all :
  t ->
  from:Net.Network.node_id ->
  ?st:Net.Network.node_id list ->
  (Net.Network.node_id * string list) list ->
  (Net.Network.node_id * (unit, Net.Rpc.error) result) list
(** Scatter one phase-2 commit round per store, each applying the listed
    actions' intentions. [st] as in {!prepare_all}; unlike a prepare, a
    phase-2 round may pass it even when it carries several actions,
    because an action unknown to the sibling resolves as a no-op
    there. *)

val abort_all :
  t ->
  from:Net.Network.node_id ->
  ?st:Net.Network.node_id list ->
  stores:Net.Network.node_id list ->
  string ->
  (Net.Network.node_id * (unit, Net.Rpc.error) result) list
(** [abort_all t ~from ~stores action]: scatter {!abort} (phase-2 abort /
    prepare withdrawal) concurrently. *)

(** What a store tells its termination machinery ({!Termination.attach}),
    on the store's node. *)
type hooks = {
  prepared : action:string -> coordinator:string -> unit;
      (** a prepare was accepted: a yes vote *)
  resolved : action:string -> unit;
      (** an intent left the log: committed, aborted or discarded *)
  blocked : (string * string) list -> unit;
      (** a prepare was refused by these actions' write reservations
          (each with its coordinator) *)
}

val set_hooks : t -> Net.Network.node_id -> hooks -> unit
(** Install [node]'s hooks, replacing any previous ones. *)

val discard : t -> Net.Network.node_id -> action:string -> unit
(** Local abort: drop [action]'s intent on [node] (idempotent). The
    caller runs on [node]. *)

val record_decision :
  t -> node:Net.Network.node_id -> action:string -> Store.Intent_log.decision -> unit
(** Durably record a decision on the local node; the caller must be the
    coordinator running on [node]. Direct (non-RPC) because a coordinator
    writes its own stable storage. *)
