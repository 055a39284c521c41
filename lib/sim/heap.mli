(** The simulator's event heap: a resizable binary min-heap of events
    ordered by (time, insertion sequence). It holds the engine's future
    events plus the removable (timeout guards) and daemon-flagged ones;
    plain events due at the current instant wait in the engine's FIFO
    now-queue instead, numbered from this heap's counter ({!take_seq}).

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

val is_empty : t -> bool
(** Whether no event is queued. *)

val push : t -> time:float -> daemon:bool -> (unit -> unit) -> event
(** [push h ~time ~daemon thunk] queues a new event and returns it. Its
    [seq] is {!take_seq}'s next number. *)

val take_seq : t -> int
(** [take_seq h] claims the next sequence number without queueing an
    event: one more than the previous push's or claim's. An event kept
    outside the heap (the engine's now-queue) takes its place in the
    (time, seq) order this way. *)

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

val placeholder : event
(** An event that is never queued ({!queued} is false): what a slot or a
    field holds while it has no event. *)
