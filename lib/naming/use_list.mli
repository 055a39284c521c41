(** Use lists: per-server-node records <client, counter> (§4.1.3).

    The Object Server database keeps, for each node in [SvA], a list
    counting the clients currently bound to the server on that node. An
    object is quiescent when every use list of every server node is
    empty. Values are immutable; updates return new lists, which keeps
    before-image undo trivial. *)

type t
(** An immutable use list. *)

val empty : t

val is_empty : t -> bool

val increment : t -> client:string -> t
(** Bump [client]'s counter, creating the record at 1 if absent. *)

val decrement : t -> client:string -> t
(** Decrease [client]'s counter, dropping the record at 0. A decrement of
    an absent client is a no-op (a cleanup raced with the client's own
    decrement). *)

val drop_client : t -> client:string -> t
(** Remove [client]'s record entirely (crash cleanup). *)

val count : t -> client:string -> int

val total : t -> int
(** Sum of all counters. *)

val clients : t -> (string * int) list
(** All records, sorted by client name. *)
