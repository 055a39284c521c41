(** Node-local recoverable resources enlisted in remote atomic actions.

    A {e resource} is some node-local state manipulated by RPC handlers
    on behalf of remote actions — the group view database entries, an
    activated object on a server. The handlers take locks and stage
    updates keyed by action id; this module transports the action-end
    protocol to them.

    A resource is named by a {e kind} and a {e scope}: ["gvd"] and [""]
    for a naming shard, ["obj"] and the instance's uid for a server
    object. A node registers one {e manager} per kind, which finds the
    resource a request's scope names when the request arrives, so the
    registry does not grow as resources come and go. The action-end
    protocol is:

    - [prepare]: vote on commit (phase 1);
    - [commit]: make staged updates permanent and release the action's
      locks (phase 2; never sent to a resource that voted
      {!Vote_read_only});
    - [abort]: undo staged updates and release locks (never sent to a
      resource that voted {!Vote_read_only});
    - [transfer]: fold a {e nested} action's locks and staged updates into
      its parent (Arjuna nested-commit semantics — nothing becomes durable
      yet).

    The client-side {!Atomic} module calls these automatically for every
    resource an action {e enlists}.

    {b Vote in the reply.} A handler may prepare a top-level action
    itself, in its reply to the action's last request — the unsolicited
    vote of R*-style presumed-abort 2PC (Mohan, Lindsay & Obermarck). It
    does what [m_prepare]'s yes branch does (the stage becomes stable
    and the crash watch settles from the decision), the reply says so,
    and the client stub enlists the resource with [~voted:true]
    ({!Atomic.enlist}): commit sends it no [prepare], and phase 2, the
    decision record, abort and {!Termination} treat it like any yes
    voter. The resource refuses every later request of an action it has
    prepared. A lost reply leaves the client unaware of the vote: it
    enlists the resource unvoted and not required, its call failed, and
    the action aborts, which reaches the resource as usual. The naming
    shard has two such handlers: the counted bind ({!Naming.Gvd.bind})
    and a commit's validate ({!Naming.Gvd.validate}), which votes only
    when the last before-commit hook asks it to ({!Atomic.last_hook}),
    and only when it applies; a conflict reply carries no vote, so the
    retry may validate again. *)

(** A resource's phase-1 answer (presumed-abort 2PC):

    - [Vote_yes]: the resource staged updates for the action; it keeps
      them and the action's locks until phase 2 tells it the outcome.
    - [Vote_no]: the resource cannot commit (a durable naming shard that
      lost the action in a crash); the action aborts.
    - [Vote_read_only]: the resource staged nothing. It ends the action
      there and then — releases the action's locks, drops its record and
      stops watching the coordinator — and the coordinator leaves it out
      of phase 2 and of any abort. Prepare comes after the action's lock
      point (before-commit hooks run before phase 1), so releasing read
      locks here keeps strict two-phase locking serialisable. An early
      vote ({!Atomic.vote_beside}) comes only from the last
      before-commit hook, beside that hook's last request: every other
      hook has taken its locks by then. *)
type vote = Vote_yes | Vote_no | Vote_read_only

type manager = {
  m_prepare : scope:string -> action:string -> vote;
  m_commit : scope:string -> action:string -> unit;
  m_abort : scope:string -> action:string -> unit;
  m_transfer : scope:string -> action:string -> parent:string -> unit;
}

type t
(** The resource-hosting runtime for one simulated world. *)

val create : Net.Rpc.t -> t

val register : t -> node:Net.Network.node_id -> kind:string -> manager -> unit
(** Install the manager of [kind] on [node], replacing any previous one. *)

val abort_here :
  t -> node:Net.Network.node_id -> kind:string -> scope:string -> action:string -> unit
(** Run the abort of [kind]'s manager on [node] directly, without a
    message; the caller runs on [node], where [kind] is registered. *)

(* Remote action-end operations; called from a fiber on [from]. *)

val prepare :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> kind:string ->
  scope:string -> action:string -> (vote, Net.Rpc.error) result

val commit :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> kind:string ->
  scope:string -> action:string -> (unit, Net.Rpc.error) result

val abort :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> kind:string ->
  scope:string -> action:string -> (unit, Net.Rpc.error) result

val transfer :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> kind:string ->
  scope:string -> action:string -> parent:string -> (unit, Net.Rpc.error) result
