(** Termination: how every two-phase-commit participant learns the fate
    of an action whose coordinator it has lost.

    A participant is whatever holds locks, staged state or a prepared
    intent on behalf of a remote action: a store's intent-log record, the
    naming database's stage for an action, a server instance's lock and
    staged payload. §4.1.3 observes that a crashed client "does not
    automatically undo changes"; a partition does the same without
    crashing anyone. Every participant settles by one rule:

    - {b No yes vote yet}: the coordinator cannot have decided commit
      without this participant, so the coordinator's crash aborts the
      action here at once (the orphan cleanup). The coordinator is the
      origin node named by the action id's prefix.
    - {b Voted yes}: the participant is in doubt. It asks the
      coordinator's decision record ({!Atomic.query_decision}) through
      {!Net.Retry.run}: [D_commit] commits here, [D_abort] and
      [D_unknown] abort (presumed abort), [D_active] asks again. The
      answer is applied even if phase 2 arrived meanwhile: completion
      is idempotent at every participant.
    - {b Retry budget spent}: settle from store evidence. If any reachable
      store other than this node holds a state of one of the action's
      objects stamped [committed_by] the action, the decision was
      commit; otherwise abort is presumed. A coordinator whose last
      answer was [D_active] is alive and deciding: the participant is
      left for its phase 2.

    Three triggers start the rule, and the trigger picks the retry
    budget (attempts / base / factor / cap):

    - the crash of a watched coordinator: 65 / 5.0 / 1.2 / 8, long
      enough to outlast a reboot;
    - the participant's own recovery (a store's intent log, a durable
      naming shard's prepared stages): 60 / 2.0 / 1.5 / 8;
    - a lock or reservation refused because its holder's coordinator is
      unreachable (a partition ate the holder's phase 2): 6 / 2.0 / 1.5
      / 8, since a writer is waiting. A holder whose coordinator is
      reachable is live contention and is never probed, so a healthy run
      sends nothing extra and draws no randomness. *)

(** How the rule ends at one participant. *)
type outcome =
  | Commit  (** the coordinator decided commit, or a store proved it *)
  | Abort  (** the coordinator decided abort, or kept no record *)
  | Presumed_abort
      (** no decision could be read and no reachable store holds the
          action's state: the presumption may be wrong, so volatile
          copies of the action's objects are suspect *)
  | Orphan_abort  (** the coordinator crashed before this participant voted *)

(** What the rule needs from a participant host. A host keeps its
    participants under {e scopes} (one per object instance on a server
    node; a store or a naming shard uses one). The callbacks run on the
    host's node. *)
type ops = {
  holds : scope:string -> action:string -> bool;
      (** the participant still holds locks, a stage or an intent for
          [action]: it has not ended by the normal path *)
  evidence : scope:string -> action:string -> Store.Uid.t list;
      (** the objects whose committed store states would prove a commit *)
  complete : scope:string -> action:string -> outcome -> unit;
      (** end [action] here (may suspend) *)
}

type t
(** The termination state of one participant host: the crash watches of
    the actions it holds, and the in-flight refusal probes. *)

val create : Atomic.runtime -> node:Net.Network.node_id -> ops -> t
(** [create rt ~node ops] is the state of the host on [node]. Probes
    running on [node] die with it. *)

val origin_of_action : string -> string
(** The coordinator encoded in an action id ("c1:3.1" is "c1"). *)

val touch : t -> scope:string -> action:string -> unit
(** The participant holds something for [action] (idempotent): watch
    its coordinator. Actions coordinated on the host's own node are not
    watched; their fate is local. *)

val vote : t -> scope:string -> action:string -> unit
(** The participant voted yes for [action] (watching its coordinator if
    {!touch} did not): from now on the coordinator's crash settles it
    from the decision instead of aborting it. *)

val forget : t -> scope:string -> action:string -> unit
(** [action] ended here by the normal path: stop watching. *)

val transfer : t -> scope:string -> action:string -> parent:string -> unit
(** Nested commit: the watch moves from the child to the parent. *)

val refused : t -> scope:string -> string list -> unit
(** A lock or reservation was refused because these actions hold it.
    Each holder whose coordinator is unreachable from the host is
    settled by the rule in a fiber of its own, one probe per holder at a
    time. *)

val recover : t -> scope:string -> action:string -> unit
(** The host recovered holding a yes vote for [action]: settle it in a
    fiber of its own. *)

(** {2 Store participants} *)

val attach : Atomic.runtime -> node:Net.Network.node_id -> unit
(** Make [node]'s store a participant under the rule: each accepted
    prepare is a yes vote, a refused prepare reports its blockers, and
    recovery resolves the intent log ({!resolve_in_doubt}) as [node]'s
    first recovery action. Upper layers (the naming library's
    reintegration) attach their own recovery hooks {e after} this one so
    they see fully resolved stores. *)

val resolve_in_doubt : Atomic.runtime -> node:Net.Network.node_id -> unit
(** Settle every prepared intent on [node]'s store under the recovery
    budget. Runs in the calling fiber, which must be on [node], and
    returns when no intent is left. *)
