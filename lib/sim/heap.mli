(** The simulator's event queue: a resizable binary min-heap of events
    ordered by (time, insertion sequence).

    The queue numbers events in push order, so events due at the same
    instant pop first-in first-out. Every event tracks its own slot in the
    heap, which lets a queued event be removed in O(log n) — the engine
    takes a settled operation's guard timer out this way instead of leaving
    it to pop. [push], [pop] and [remove] are O(log n); the rest is O(1). *)

type event = private {
  time : float;  (** virtual time the event is due *)
  seq : int;  (** push order, the tie-break between equal times *)
  daemon : bool;  (** an idle daemon's wakeup rather than pending work *)
  thunk : unit -> unit;  (** what the event runs *)
  mutable slot : int;  (** index in its queue; -1 once popped or removed *)
}
(** A queued (or formerly queued) event. *)

type t
(** A mutable event queue. *)

val create : unit -> t
(** [create ()] is an empty queue. *)

val length : t -> int
(** Number of queued events. *)

val is_empty : t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : t -> time:float -> daemon:bool -> (unit -> unit) -> event
(** [push h ~time ~daemon thunk] queues a new event and returns it. Its
    [seq] is one more than the previous push's. *)

val top : t -> event
(** The earliest queued event, left in place. Raises [Invalid_argument] on
    an empty queue. *)

val pop : t -> event
(** Remove and return the earliest queued event. Raises [Invalid_argument]
    on an empty queue. *)

val remove : t -> event -> unit
(** [remove h e] takes [e] out of [h]; it will never be popped. A no-op if
    [e] is no longer queued. *)

val queued : event -> bool
(** Whether the event is still in its queue: false once popped or removed. *)

val clear : t -> unit
(** [clear h] removes every event from [h]. *)
