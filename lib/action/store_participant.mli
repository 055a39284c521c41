(** Convenience: enrol a store node as a 2PC participant of an action.

    The new states of modified objects are copied to the object stores
    during the commit of the application's action (§2.3(3)). [writes] is
    evaluated lazily at prepare time, after all invocations have
    produced the final state. *)

val add :
  Atomic.t ->
  store:Net.Network.node_id ->
  writes:(unit -> (Store.Uid.t * Store.Object_state.t) list) ->
  unit
(** [add act ~store ~writes] registers the phase-2 legs of [store]
    ({!Atomic.add_participant}), then a {!Atomic.before_commit} hook that
    prepares [writes ()] there. The hook runs in registration order with
    the action's other hooks, so two stores prepare one after the other.
    A refused or unanswered prepare aborts the action with reason
    ["participant store:<store> voted no"]. Phase 2 applies or discards
    the writes, delivered by Atomic's release rule ({!Atomic.release}):
    a lost phase 2 is retried in the background until it lands or the
    store is down. *)
