(** Node-local recoverable resources enlisted in remote atomic actions.

    A {e resource manager} owns some node-local state manipulated by RPC
    handlers on behalf of remote actions — the group view database entries,
    an activated object on a server. The handlers take locks and stage
    updates keyed by action id; this module transports the action-end
    protocol to them:

    - [prepare]: vote on commit (phase 1);
    - [commit]: make staged updates permanent and release the action's
      locks (phase 2);
    - [abort]: undo staged updates and release locks;
    - [transfer]: fold a {e nested} action's locks and staged updates into
      its parent (Arjuna nested-commit semantics — nothing becomes durable
      yet).

    The client-side {!Atomic} module calls these automatically for every
    resource an action {e enlists}. *)

type manager = {
  m_prepare : action:string -> bool;
  m_commit : action:string -> unit;
  m_abort : action:string -> unit;
  m_transfer : action:string -> parent:string -> unit;
}

type t
(** The resource-hosting runtime for one simulated world. *)

val create : Net.Rpc.t -> t

val register : t -> node:Net.Network.node_id -> resource:string -> manager -> unit
(** Install a manager under [resource] on [node], replacing any previous
    registration. *)

val registered : t -> node:Net.Network.node_id -> resource:string -> bool

val abort_here :
  t -> node:Net.Network.node_id -> resource:string -> action:string -> unit
(** Run [resource]'s abort on [node] directly, without a message; the
    caller runs on [node]. A no-op if nothing is registered there. *)

(* Remote action-end operations; called from a fiber on [from]. *)

val prepare :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> resource:string ->
  action:string -> (bool, Net.Rpc.error) result

val commit :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> resource:string ->
  action:string -> (unit, Net.Rpc.error) result

val abort :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> resource:string ->
  action:string -> (unit, Net.Rpc.error) result

val transfer :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> resource:string ->
  action:string -> parent:string -> (unit, Net.Rpc.error) result
