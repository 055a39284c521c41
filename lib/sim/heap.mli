(** The simulator's event heap: a resizable binary min-heap ordered by
    (time, insertion sequence), and the clock those times are read
    against. It holds the engine's future events and its daemon wakeups.
    Plain events due at the current instant wait in the engine's FIFO
    now-queue instead, and timeout guards in its per-delay lanes; both
    are numbered from this heap's counter ({!take_seq}).

    The queue numbers events in push order, so events due at the same
    instant pop first-in first-out. Each event's time, sequence number,
    daemon flag and thunk sit in parallel arrays, the times in a
    [Float.Array], and the heap adds the delay to its clock itself. So a
    push allocates nothing but its thunk, and no float is boxed to cross
    this module's boundary: the queries below take a time as a base and a
    delay the caller already holds, and answer with a [bool]. [push] and
    [pop] are O(log n); the rest is O(1). *)

type t
(** A mutable event queue and its clock. *)

val create : unit -> t
(** [create ()] is an empty queue at time 0. It allocates no slots until
    the first push. *)

val is_empty : t -> bool
(** Whether no event is queued. *)

val pending : t -> int
(** How many queued events are not daemon wakeups. *)

val now : t -> float
(** The queue's clock: the latest time {!pop} or {!advance} reached. *)

val push : t -> delay:float -> daemon:bool -> (unit -> unit) -> unit
(** [push h ~delay ~daemon thunk] queues [thunk] at [now h +. delay], a
    negative [delay] counting as 0. Its sequence number is {!take_seq}'s
    next. [daemon] marks an idle daemon's wakeup rather than pending
    work. *)

val take_seq : t -> int
(** [take_seq h] claims the next sequence number without queueing an
    event: one more than the previous push's or claim's. An event kept
    outside the heap (the engine's now-queue and guard lanes) takes its
    place in the (time, seq) order this way. *)

val due_now : t -> delay:float -> bool
(** Whether [now h +. delay] is [now h]: a delay that is not positive,
    or too small to move the clock. A NaN delay is never due now. *)

val before : t -> base:float -> delay:float -> seq:int -> bool
(** Whether the earliest queued event goes before an event due at
    [base +. delay] with sequence number [seq]. Raises
    [Invalid_argument] on an empty queue. *)

val due : t -> until:float -> bool
(** Whether the earliest queued event is due at or before [until].
    Raises [Invalid_argument] on an empty queue. *)

val pop : t -> unit -> unit
(** Remove the earliest queued event, move the clock to its time if that
    is later, and return its thunk. Raises [Invalid_argument] on an empty
    queue. *)

val release : t -> unit
(** [release h] gives an empty queue's slots back, as {!create} starts;
    a no-op on a queue that holds events. A world at rest then holds no
    arrays sized for its busiest instant. *)

val advance : t -> base:float -> delay:float -> unit
(** [advance h ~base ~delay] moves the clock to [base +. delay] if that
    is later: an event kept outside the heap has run. *)
