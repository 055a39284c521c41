(** Commit processing and object passivation (§2.3(3)).

    When a client action that used a replicated object commits, the new
    state must reach the object stores of every node in [StA], and the
    naming service's view must stay accurate: stores the copy could not
    reach are {e excluded} so later clients never bind to stale states.

    [attach] installs this as a before-commit hook of the action:

    + fetch the commit view from a functioning replica (abort if none);
    + {e read optimisation}: if the action never modified the object, skip
      the copy entirely;
    + prepare the object's whole new state on every node of the
      committed [StA] (metric [commit.bytes_shipped] sums the bytes
      shipped);
    + if {e every} store is unreachable, abort;
    + if {e some} failed, invoke the [exclude] callback (provided by the
      naming layer; it performs the paper's lock promotion and [Exclude]
      within the same action — its failure aborts too);
    + validate that [StA] did not change meanwhile (retry, then abort);
    + register the successful stores as phase-2 participants. *)

val attach :
  Group.runtime ->
  Action.Atomic.t ->
  Group.t ->
  snapshot_stores:(unit -> (Net.Network.node_id list * int, string) result) ->
  validate:
    (Action.Atomic.t ->
    version:Store.Version.t ->
    rev:int ->
    [ `Validated | `Conflict | `Failed of string ]) ->
  exclude:
    (Action.Atomic.t -> Net.Network.node_id list -> (unit, string) result) ->
  unit
(** [attach rt act group ~snapshot_stores ~validate ~exclude] arranges
    commit-time state copy-back for [group] under [act]. Call once per
    (action, bound group).

    [St] and its membership revision come from [snapshot_stores], a
    lock-free committed read ({!Naming.Gvd.read} [Committed]) taken when
    each copy-back attempt starts; a failed read aborts the commit with
    that read's error. [validate] re-checks the revision inside the
    prepare round (a [Note_version] {!Naming.Gvd.update} with [~if_rev])
    under the §4.2.1 write fence, noting the committed version on
    success. [`Conflict] — an Include/Exclude committed between snapshot
    and validation, or one holding the fence right now — withdraws the
    prepares and retries the whole fan-out at once against fresh [St].
    A conflict on a moved revision keeps the fence, so the next attempt
    validates; a refused fence keeps nothing. Three conflicting attempts
    abort the commit ("St kept changing"). Metrics: [commit.validate_ok]
    / [commit.validate_conflict].

    The prepare and phase-2 scatters go through the runtime's
    group-commit plane ({!Groupcommit}). *)
