(** Client-side use-list delta buffer (§4.1.3 traffic reduction).

    A binder no longer sends the trailing [Decrement] of Figures 7/8 as
    its own immediate action: it {e credits} the counts here, and they
    leave the client in one of two coalesced forms —

    - piggybacked on the next bind's {!Gvd.bind} request for the
      same (client, object) — a rebind thus cancels the
      increment/decrement pair within its own single round, and a
      net-zero pair never costs a dedicated action — or
    - a deferred {e flush}: one merged [Decrement] action covering every
      credited count the client holds for the object.

    Crash safety is unchanged: an unflushed credit is exactly the
    orphan-counter state the cleanup protocol already repairs (the
    client died between its increment and its decrement), so losing the
    buffer loses nothing the system cannot recover.

    The buffer is pure state — the binder owns all scheduling (flush
    fibers, retries); {!flush_scheduled}/{!set_flush_scheduled} is the
    per-client one-bit handshake between them. Keyed by client: one
    binder serves every client node of a world, and a credit must only
    decrement the counters of the client that earned it. *)

type t

val create : unit -> t

val credit :
  t -> client:Net.Network.node_id -> uid:Store.Uid.t ->
  node:Net.Network.node_id -> count:int -> unit
(** Add [count] pending decrements of [client]'s counter on [node]'s use
    list for [uid]. [count <= 0] is a no-op. *)

val take :
  t -> client:Net.Network.node_id -> uid:Store.Uid.t ->
  (Net.Network.node_id * int) list
(** Remove and return every pending credit of [(client, uid)], sorted by
    node. The caller now owns them: piggyback or flush them, and
    {!restore} them if that fails. *)

val restore :
  t -> client:Net.Network.node_id -> uid:Store.Uid.t ->
  (Net.Network.node_id * int) list -> unit
(** Put back credits obtained from {!take} whose send failed. *)

val pending_uids : t -> client:Net.Network.node_id -> Store.Uid.t list
(** Objects for which [client] holds credits, oldest first. *)

val clients_with : t -> uid:Store.Uid.t -> Net.Network.node_id list
(** Clients holding credits for [uid], oldest entry first. Used by the
    quiescence-pull: an [Insert] blocked on use-list counters flushes
    these eagerly instead of waiting out the coalescing window. *)

val drop_client : t -> client:Net.Network.node_id -> unit
(** Forget every credit and the scheduled-flush flag of [client]. Called
    from the client's crash hook: the counters its credits would have
    decremented are now orphans for the cleanup protocol, and a stale
    scheduled flag would wedge all flushing for the client's next
    incarnation. *)

val flush_scheduled : t -> client:Net.Network.node_id -> bool
val set_flush_scheduled : t -> client:Net.Network.node_id -> bool -> unit
