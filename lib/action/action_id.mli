(** Hierarchical atomic-action identifiers.

    A top-level action is identified by its originating client and a serial
    number ("c1:3"); nested actions append a path component per nesting
    level ("c1:3.1", "c1:3.1.2"). The string rendering doubles as the lock
    owner key, so lock managers on remote nodes need no structural
    knowledge of action trees. *)

type t
(** An action identifier. *)

val top : origin:string -> serial:int -> t
(** Identifier of a top-level action started by [origin]. *)

val child : t -> serial:int -> t
(** Identifier of the [serial]-th nested action of the given parent. *)

val parent : t -> t option
(** Enclosing action's identifier; [None] for top-level actions. *)

val is_top : t -> bool

val origin : t -> string
(** The originating client. *)

val depth : t -> int
(** 1 for a top-level action, 2 for its children, ... *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** Canonical rendering, also used as the lock-owner key. It is computed
    once, when the id is made ([child] extends its parent's), so every
    call returns the same string without building it. *)

val pp : Format.formatter -> t -> unit
