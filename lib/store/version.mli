(** Version stamps for committed object states.

    Every committed state carries a monotonically increasing counter and
    the identifier of the committing action. §3.1 requires the naming
    service to distinguish nodes holding the {e latest committed} state
    from stale ones; version comparison implements that check. *)

type t = { counter : int; committed_by : string }

val initial : t
(** Version of a freshly created object (counter 0, committed by
    ["genesis"]). *)

val next : t -> committed_by:string -> t
(** Successor version, stamped with the committing action. *)

val newer_than : t -> t -> bool
(** [newer_than a b] is [a.counter > b.counter]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit
