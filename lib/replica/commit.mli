(** Commit processing and object passivation (§2.3(3)).

    When a client action that used a replicated object commits, the new
    state must reach the object stores of every node in [StA], and the
    naming service's view must stay accurate: stores the copy could not
    reach are {e excluded} so later clients never bind to stale states.

    [attach] installs this as a before-commit hook of the action:

    + fetch the commit view from a functioning replica (abort if none);
    + {e read optimisation}: if the action never modified the object, skip
      the copy entirely;
    + prepare the object's whole new state on every node of a
      committed [StA] (metric [commit.bytes_shipped] sums the bytes
      shipped);
    + if {e every} store is unreachable, abort;
    + if {e some} failed, invoke the [exclude] callback (provided by the
      naming layer; it performs the paper's lock promotion and [Exclude]
      within the same action — its failure aborts too);
    + validate that [StA] did not change meanwhile (retry, then abort);
      in the action's last before-commit hook the validate carries the
      naming shard's vote and the group's members vote beside it, so
      phase 1 has nobody left to ask;
    + in phase 2, commit the successful stores. *)

val attach :
  Group.runtime ->
  Action.Atomic.t ->
  Group.t ->
  snapshot_stores:(unit -> (Net.Network.node_id list * int, string) result) ->
  validate:
    (Action.Atomic.t ->
    version:Store.Version.t ->
    rev:int ->
    vote:bool ->
    [ `Validated | `Conflict | `Failed of string ]) ->
  exclude:
    (Action.Atomic.t ->
    Net.Network.node_id list ->
    [ `Excluded | `Conflict | `Failed of string ]) ->
  unit
(** [attach rt act group ~snapshot_stores ~validate ~exclude] arranges
    commit-time state copy-back for [group] under [act]. Call once per
    (action, bound group).

    [St] and its membership revision come from [snapshot_stores], asked
    once when each copy-back attempt starts. It must answer a
    {e committed} pair — a member list and the revision it was committed
    at — but not necessarily a fresh one: a stale pair costs one
    conflict, never a wrong copy. The naming layer answers a scheme-B/C
    commit's first attempt from its [Counted] bind reply and every
    other from a lock-free committed read ({!Naming.Gvd.read}
    [Committed]); a failed read aborts the commit with that read's
    error. [validate] re-checks the revision inside the
    prepare round ({!Naming.Gvd.validate}: a [Note_version] update with
    [~if_rev]) under the §4.2.1 write fence, noting the committed version
    on success. [~vote:true] asks the shard to vote yes in its reply:
    only the validate of the action's last before-commit hook
    ({!Action.Atomic.last_hook}) asks it, since the shard refuses every
    later request of a voted action, and that validate goes out in one
    scatter with the phase-1 votes of the group's members
    ({!Action.Atomic.vote_beside}). [`Conflict] — an Include/Exclude committed between snapshot
    and validation, or one holding the fence right now — retries the
    whole fan-out at once against fresh [St]. [exclude] answers the same
    way: an exclusion refused by a lock another action holds is a
    [`Conflict] too, and only [`Failed] aborts ("exclude failed").
    A conflict on a moved revision keeps the fence, so the next attempt
    validates; a refused fence keeps nothing, and the naming layer's next
    [snapshot_stores] answers only once the holder has ended
    ({!Naming.Gvd.read} [Settled]): a membership change's catch-up can
    hold the fence far longer than three immediate attempts take. Three
    conflicting attempts abort the commit ("St kept changing"). A store
    that votes {!Action.Store_host.Vote_blocked} (another action's
    prepare of the object is pending there, its phase 2 still on the
    way) makes the attempt prepare again against the same pair, within
    the same three attempts ([commit.blocked]). One that votes
    [Vote_stale] makes the attempt validate first, without a vote: a
    moved revision is a conflict and retries against fresh [St] (the
    store may be one an exclusion left behind), and only a stale vote
    against a validated [St] aborts the commit ("stale activation") and
    passivates the group's instances. Metrics:
    [commit.validate_ok] / [commit.validate_conflict].

    Nothing is withdrawn between attempts: a retry re-stages the same
    intent at a store an earlier attempt reached
    ({!Store.Intent_log.prepare} replaces per action), so no abort can
    overtake a later prepare. One phase-2 participant, registered before
    the first prepare, tracks every store that voted yes in any attempt
    or whose latest prepare timed out. Phase 2 commits the validated
    attempt's yes voters under its [St], and every other tracked store
    (an excluded one, or one only an earlier attempt reached) gets the
    abort. Every delivery follows Atomic's release rule
    ({!Action.Atomic.release}); an abort to a store whose prepare timed
    out goes straight to {!Action.Atomic.release_later}.

    The prepare and phase-2 commit scatters go through the runtime's
    group-commit plane ({!Groupcommit}); the commit takes its phase-2
    token when it first joins phase 1. *)
