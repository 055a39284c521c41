(** Convenience: enrol a store node as a 2PC participant of an action.

    Used by commit processing (§2.3(3)): the new states of modified objects
    are copied to the object stores during the commit of the application's
    action. [writes] is evaluated lazily at prepare time, after all
    invocations have produced the final state. *)

val add :
  Atomic.t ->
  store:Net.Network.node_id ->
  writes:(unit -> (Store.Uid.t * Store.Object_state.t) list) ->
  unit
(** [add act ~store ~writes] registers a participant that prepares
    [writes ()] on [store] during phase 1 (voting no if the store is
    unreachable) and applies or discards them in phase 2, delivered by
    Atomic's release rule ({!Atomic.release}): a lost phase 2 is retried
    in the background until it lands or the store is down. *)
