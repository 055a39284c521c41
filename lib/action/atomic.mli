(** Nested atomic actions with distributed two-phase commit.

    The model follows Arjuna (§2.2, §4.1): application programs are
    structured as atomic actions; actions nest; locks acquired on behalf of
    a nested action pass to its parent when it commits and are released
    when it aborts; only a {e top-level} commit makes anything durable,
    through a presumed-abort two-phase commit over the action's
    {e participants} (store nodes receiving new object states) and
    {e enlisted resources} (node-local recoverable state such as the group
    view database, reached through {!Resource_host}).

    {e Nested top-level actions} (§4.1.3(ii), Figure 8) are independent
    top-level actions started from inside another action: they commit or
    abort immediately and durably, regardless of what the enclosing action
    later does.

    A body can abort itself by raising {!Abort}; [atomically] turns that
    into an [Error]. Any other escaping exception also aborts the action
    but is re-raised (it is a bug, not a protocol outcome). *)

type runtime
(** Shared action machinery for one simulated world. *)

type t
(** A live action. *)

type status = Running | Committed | Aborted

exception Abort of string
(** Raised by action bodies to abort the current action. *)

val make_runtime : Store_host.t -> Resource_host.t -> runtime
(** Build the runtime. Coordinator decision services are installed lazily
    on nodes that start top-level actions (the node must be
    {!Store_host.add}ed first, since decisions live on stable storage). *)

val store_host : runtime -> Store_host.t
val resource_host : runtime -> Resource_host.t
val rpc : runtime -> Net.Rpc.t
val network : runtime -> Net.Network.t
val engine : runtime -> Sim.Engine.t

val retry : runtime -> Net.Retry.t
(** The world's shared retry engine (its jitter stream). All
    protocol-level retry loops — recovery probes, reintegration, cleanup,
    flushes, router waits, group failover — go through it. *)

val begin_top : ?deadline:float -> runtime -> node:Net.Network.node_id -> t
(** Start a top-level action coordinated from [node]. Must run in a fiber
    on [node]. [deadline] is a relative time budget for the whole
    operation; nested actions inherit the remaining (absolute) deadline,
    and retry loops run on the action's behalf stop backing off once it
    passes (see {!Net.Retry.run}). *)

val begin_nested : t -> t
(** Start a nested action inside [t]. Inherits [t]'s deadline. *)

val begin_nested_top : t -> t
(** Start an independent top-level action from within [t] (same
    coordinating node, fresh top-level identity). Inherits [t]'s deadline:
    it serves the same user operation. *)

val deadline : t -> float option
(** The action's absolute-virtual-time deadline, if any. *)

val id : t -> Action_id.t
val node : t -> Net.Network.node_id
val status : t -> status
val runtime_of : t -> runtime

val owner : t -> string
(** Lock-owner key: [Action_id.to_string (id t)]. *)

val top : t -> t
(** The top-level action whose commit [t]'s hooks, participants and
    resources end up in: [t] itself, or its outermost ancestor. *)

val enlist :
  t ->
  ?required:bool ->
  ?voted:bool ->
  node:Net.Network.node_id ->
  kind:string ->
  scope:string ->
  unit ->
  unit
(** Record that handlers on [node] hold locks or staged updates for this
    action in the resource [kind]/[scope] ({!Resource_host}); duplicates
    are merged. The action-end protocol will reach the resource
    automatically. [required] (default [true]) controls
    phase-1 failure handling: a required resource that is unreachable
    aborts the action, while a non-required one — a member of a replica
    group whose crash the policy masks — is tolerated.

    [voted] (default [false]) says the resource already voted yes in its
    reply to this request — the unsolicited vote of presumed-abort 2PC
    ({!Resource_host}): commit sends it no prepare, and it still gets
    phase 2 or the abort. Only a top-level action may hold a vote
    ([Invalid_argument] otherwise), and only its last request to the
    resource may ask for one: enlisting the same resource again without
    a vote, or folding a nested action's enlistment of it into this one,
    clears the vote, so the resource is asked at commit after all. *)

val last_hook : t -> bool
(** Whether the {!before_commit} hook now running is the action's last.
    Only that hook's requests come after every other request of the
    action, so only its last request to a resource may carry the
    resource's vote, and only it may ask for votes early
    ({!vote_beside}). [false] outside commit processing. *)

val vote_beside : t -> kind:string -> scope:string -> (unit -> 'a) -> 'a
(** [vote_beside t ~kind ~scope request] runs [request] and, in the same
    scatter, asks every resource enlisted under [kind]/[scope] whose
    vote is not in yet for its phase-1 vote, by the same vote step that
    phase 1 runs, and records each outcome (yes, read-only or a failure)
    on the enlistment. Phase 1 then asks only resources whose vote is
    still unknown, and the decision folds in the recorded outcomes. A
    hook may call it only when it is the action's {!last_hook}: a later
    request to a resource that voted would miss the vote. Returns
    [request]'s result. [Invalid_argument] on a nested action. *)

val add_participant :
  t -> commit:(unit -> unit) -> abort:(unit -> unit) -> unit
(** Register a closure participant: the phase-2 legs of a party that
    takes no part in phase 1, such as a store whose prepare a
    {!before_commit} hook sends. For a nested action the participant is
    handed to the parent on nested commit. [commit]/[abort] run in the
    committing fiber, in phase 2's one scatter, and may suspend. [abort]
    also runs when a {!before_commit} hook fails, so a hook may register
    its participant before it sends the first prepare. A participant
    that reaches stores delivers [commit] and [abort] by the release
    rule below, like an enlisted resource. *)

val release :
  t -> node:Net.Network.node_id -> op:string -> (unit -> (unit, Net.Rpc.error) result) -> unit
(** The release rule for a decided outcome (phase-2 commit or abort) at
    one participant on [node]: one inline [call], then {!release_later}
    if it failed. *)

val release_later :
  t -> node:Net.Network.node_id -> op:string -> (unit -> (unit, Net.Rpc.error) result) -> unit
(** The one background retry for decided outcomes: if [node] is up, a
    fiber on the coordinator retries [call] ({!Net.Retry.run} under [op])
    until it lands or [node] is down, and returns at once. A node that
    is down settles the action on recovery ({!Termination}). Metrics:
    [action.release_deferred], and [action.phase2_losses] for a retry
    that gave up.

    Until the leg lands, it keeps the top-level action's decision record
    (see {!pin_decision}); a retry that lands lets it go, one that stops
    because [node] died or that runs out keeps it for good. *)

val pin_decision : t -> unit
(** Keep the decision record of [t]'s top-level action for good: a
    participant may hold the action's stage without getting a phase-2
    leg, and it will ask the coordinator on recovery. Otherwise the
    coordinator forgets a commit record (presumed abort) once phase 2 has
    run and every leg it could not confirm inline has landed. *)

val before_commit : t -> (unit -> (unit, string) result) -> unit
(** Register a hook run at the {e start} of top-level commit, before phase
    1 — the paper's commit-time processing (copying states to object
    stores, excluding failed ones) runs here. An [Error] aborts the
    action. Hooks run in registration order; a nested commit transfers
    them to the parent. *)

val on_abort : t -> (unit -> unit) -> unit
(** Register an undo hook, run (in reverse registration order) if the
    action aborts. Transferred to the parent on nested commit. *)

val after_commit : t -> (unit -> unit) -> unit
(** Register a hook run after a successful top-level commit (e.g. scheme
    B's trailing [Decrement]). Transferred to the parent on nested
    commit. *)

val after_abort : t -> (unit -> unit) -> unit
(** Register a hook run after an abort has fully completed — locks
    released, resources notified. Used for repairs that need the aborted
    action out of the way (e.g. passivating a stale replica). *)

val commit : t -> (unit, string) result
(** Commit the action. Top-level: before-commit hooks (which prepare
    whatever a closure participant commits), phase 1 over the enlisted
    resources, durable decision record, phase 2 to every participant and
    resource at once, then after-commit hooks. Nested: transfer
    everything to the parent. [Error reason] means the action aborted
    instead.

    A resource enlisted [~voted:true], or asked already beside the last
    hook's last request ({!vote_beside}), is not asked: its vote is
    already in. A resource that answers {!Resource_host.Vote_read_only} has ended
    the action itself: it gets no phase 2, and no abort if another
    resource votes no. Phase 2 goes to every participant and to every
    other resource, including a non-required one whose prepare went
    unanswered (it may have voted yes). The Commit decision is recorded
    only if that phase 2 has someone to reach: an action whose resources
    all voted read-only and that has no participant records nothing,
    since nobody can ever ask for its outcome. *)

val abort : t -> reason:string -> unit
(** Abort the action: undo hooks (reverse order), abort all participants
    and enlisted resources, release locks. Idempotent. *)

val atomically :
  ?deadline:float ->
  runtime ->
  node:Net.Network.node_id ->
  (t -> 'a) ->
  ('a, string) result
(** [atomically rt ~node body] runs [body] in a fresh top-level action and
    commits it; [Abort] (raised or during commit) yields [Error].
    [deadline] as in {!begin_top}. *)

val atomically_nested : t -> (t -> 'a) -> ('a, string) result
(** Same for a nested action of the given parent. *)

val atomically_nested_top : t -> (t -> 'a) -> ('a, string) result
(** Same for a nested top-level action (Figure 8). *)

(** Outcome of a coordinator decision query (used by recovery). *)
type decision_reply = D_commit | D_abort | D_active | D_unknown

val query_decision :
  runtime ->
  from:Net.Network.node_id ->
  coordinator:Net.Network.node_id ->
  action:string ->
  (decision_reply, Net.Rpc.error) result
(** Ask a coordinating node for the fate of [action]. [D_active] means
    phase 1 is still in progress — retry. [D_unknown] means presumed
    abort. *)
