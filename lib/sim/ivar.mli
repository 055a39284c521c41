(** Write-once synchronisation variable for fibers.

    An ivar starts empty; [fill] sets its value exactly once and wakes every
    fiber blocked in [read]. Ivars are the simulator's fundamental rendezvous
    primitive: RPC replies, commit decisions and election outcomes are all
    delivered through them. *)

type 'a t
(** An ivar holding a value of type ['a]. *)

exception Already_filled
(** Raised by [fill] on an ivar that already holds a value. *)

val create : unit -> 'a t
(** A fresh, empty ivar. *)

val fill : 'a t -> 'a -> unit
(** [fill iv v] stores [v] and resumes all waiting fibers with [v].
    @raise Already_filled if [iv] already holds a value. *)

val try_fill : 'a t -> 'a -> bool
(** [try_fill iv v] is like [fill] but returns [false] instead of raising
    when [iv] is already full. *)

val is_filled : 'a t -> bool
(** Whether the ivar holds a value. *)

val read : Engine.t -> 'a t -> 'a
(** [read eng iv] returns the value of [iv], suspending the calling fiber
    until [iv] is filled. *)

val read_timeout : Engine.t -> float -> 'a t -> ('a, exn) result
(** [read_timeout eng dt iv] is [Ok v] if [iv] was filled within [dt]
    virtual time units, [Error Engine.Timed_out] otherwise. *)
