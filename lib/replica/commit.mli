(** Commit processing and object passivation (§2.3(3)).

    When a client action that used a replicated object commits, the new
    state must reach the object stores of every node in [StA], and the
    naming service's view must stay accurate: stores the copy could not
    reach are {e excluded} so later clients never bind to stale states.

    [attach] installs this as a before-commit hook of the action:

    + fetch the commit view from a functioning replica (abort if none);
    + {e read optimisation}: if the action never modified the object, skip
      the copy entirely;
    + prepare the object's whole new state on every node of the group's
      [StA] view (metric [commit.bytes_shipped] sums the bytes shipped);
    + if {e every} store is unreachable, abort;
    + if {e some} failed, invoke the [exclude] callback (provided by the
      naming layer; it performs the paper's lock promotion and [Exclude]
      within the same action — its failure aborts too);
    + register the successful stores as phase-2 participants. *)

val attach :
  Group.runtime ->
  Action.Atomic.t ->
  Group.t ->
  ?current_stores:
    (Action.Atomic.t -> (Net.Network.node_id list, string) result) ->
  ?note_version:
    (Action.Atomic.t -> Store.Version.t -> (unit, string) result) ->
  snapshot_stores:(unit -> (Net.Network.node_id list * int, string) result) ->
  validate:
    (Action.Atomic.t ->
    version:Store.Version.t ->
    rev:int ->
    [ `Validated | `Conflict | `Failed of string ]) ->
  exclude:
    (Action.Atomic.t -> Net.Network.node_id list -> (unit, string) result) ->
  unit ->
  unit
(** [attach rt act group ~snapshot_stores ~validate ~exclude ()] arranges
    commit-time state copy-back for [group] under [act]. Call once per
    (action, bound group).

    [St] and its membership revision come from [snapshot_stores], a
    lock-free snapshot read ({!Naming.Gvd.get_view_commit}) taken when
    commit processing starts, and [validate] re-checks the revision
    inside the prepare round ({!Naming.Gvd.validate_view}), noting the
    committed version on success. [`Conflict] — an Include/Exclude
    committed between snapshot and validation — withdraws the prepares
    and retries the whole fan-out against fresh [St] (bounded attempts;
    the validation keeps the naming-tier write fence across the retry,
    so the second validation cannot race the same way). Metrics:
    [commit.validate_ok] / [commit.validate_conflict] /
    [commit.validate_fallbacks].

    After three conflicts, or when the snapshot read fails, the commit
    falls back to the locked path, so churn-heavy workloads cannot starve
    a commit: [current_stores] re-reads [StA] under a lock owned by [act]
    (the naming layer passes a [GetView]; the default is the bind-time
    view), and [note_version] records the version this commit installs
    in the naming service's committed-version fence
    ({!Naming.Gvd.note_version}; the default records nothing). A refused
    note aborts the commit.

    The prepare and phase-2 scatters go through the runtime's
    group-commit plane ({!Groupcommit}). *)
