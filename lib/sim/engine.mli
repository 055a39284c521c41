(** Deterministic discrete-event simulation engine with lightweight fibers.

    Protocol code runs inside {e fibers}: cooperative coroutines implemented
    with OCaml 5 effect handlers. A fiber performs ordinary OCaml computation
    between {e suspension points} ([sleep], [suspend], channel reads, ...);
    only suspension points advance the virtual clock, so each segment of
    computation is atomic with respect to every other fiber. This is exactly
    the discrete-event model: determinism comes from the strictly ordered
    event queue (time, then insertion sequence).

    The queue has two parts that {!run} merges. Future events, timeout
    guards and daemon wakeups sit in a binary heap ({!Heap}). A plain event
    due at the current instant — a fiber resume, a {!spawn}, a {!yield}, a
    [schedule] or [sleep] whose delay is not positive or too small to move
    the clock — skips the heap and joins a FIFO {e now-queue}, taking the
    next number from the heap's sequence counter. The merged order is the
    one (time, seq) order a single heap would give.

    Fibers belong to {e groups}. Killing a group (used to model a node
    crash) prevents every fiber of the group from ever being resumed; the
    fiber simply vanishes at its current suspension point, mirroring a
    fail-silent processor that stops mid-protocol without running cleanup
    handlers. *)

type t
(** A simulation engine instance. *)

type group
(** A fiber group; typically one per simulated node incarnation. *)

exception Deadlock of string
(** Raised by [run] when deadlock detection is enabled (see
    {!set_detect_deadlock}) and the event queue drains while fibers are
    still suspended. *)

val create : ?seed:int64 -> unit -> t
(** [create ?seed ()] is a fresh engine with virtual clock 0. [seed]
    (default [1L]) seeds the engine's root {!Rng.t}. *)

val rng : t -> Rng.t
(** The engine's root random generator. Split it rather than sharing it
    between independent components. *)

val now : t -> float
(** Current virtual time. *)

val root_group : t -> group
(** The group that owns fibers not tied to any node. It is never killed. *)

val new_group : t -> group
(** [new_group t] is a fresh, live fiber group. *)

val kill_group : t -> group -> unit
(** [kill_group t g] kills [g]: fibers of [g] currently suspended are never
    resumed, and future resumptions of its fibers are dropped. Spawning into
    a killed group is a silent no-op (the fiber never starts). *)

val group_alive : group -> bool
(** Whether the group is still live. *)

val spawn : t -> ?group:group -> ?name:string -> (unit -> unit) -> unit
(** [spawn t ~group ~name f] schedules fiber [f] to start at the current
    virtual time, after already-queued events. The start event joins the
    now-queue. An exception escaping [f]
    (other than the internal kill signal) is recorded and re-raised by
    {!run}. [name] is used in error reports. *)

val start : t -> group:group -> name:string -> (unit -> unit) -> unit
(** [start t ~group ~name f] runs fiber [f] at once, inside the current
    event, up to its first suspension point; {!spawn} instead queues a
    start event. Meant for plain event callbacks such as a message
    delivery: when nothing else is due at this instant, the delay-0 start
    event would have been the next to pop, so starting inline keeps every
    other event, RNG draw and result in place while saving the event. A
    no-op when [group] is dead. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs the plain callback [f] at time [now t +.
    delay]. [f] must not perform fiber effects; use [spawn] for that. *)

type 'a resumer = ('a, exn) result -> unit
(** Completion callback handed to [suspend] registrants: call it once with
    [Ok v] to resume the fiber with [v], or [Error e] to raise [e] inside
    the fiber. Subsequent calls are ignored, which makes races between a
    result and a timeout safe. *)

val suspend : t -> ('a resumer -> unit) -> 'a
(** [suspend t register] suspends the calling fiber and calls
    [register resume]. The fiber resumes when [resume] is first invoked.
    Must be called from within a fiber. *)

val self_group : t -> group
(** [self_group t] is the group of the currently executing fiber. Child
    fibers spawned into it share the caller's crash fate, which is what
    structured-concurrency helpers ({!Join}) need. Must be called from
    within a fiber. *)

val sleep : t -> float -> unit
(** [sleep t dt] suspends the calling fiber for [dt] units of virtual
    time. [dt] is clamped to be non-negative. *)

val daemon_sleep : t -> float -> unit
(** Like {!sleep}, but marks the sleeping fiber as an {e idle daemon}: its
    wakeup event does not count as pending work, so a drain-mode {!run}
    (no [until]) stops once only daemon wakeups remain, leaving the fiber
    parked — and {!leaked_fibers} does not report it. Periodic
    housekeeping loops (the autonomic controllers) sleep with this so
    worlds that drain to quiescence can still run them. *)

val yield : t -> unit
(** [yield t] re-queues the calling fiber at the current time, letting
    other ready fibers run first. Its wakeup, like every resume, joins the
    now-queue. *)

val timeout : t -> float -> ('a resumer -> unit) -> ('a, exn) result
(** [timeout t dt register] is like [suspend] but resumes with
    [Error Timed_out] if nothing resumed the fiber within [dt]. Its guard
    timer is a heap event even when [dt <= 0], so it stays removable: when
    the operation settles first, the guard is removed from the queue at
    once. *)

exception Timed_out
(** Raised (inside the fiber) when a [timeout] expires. *)

val set_detect_deadlock : t -> bool -> unit
(** Enable or disable deadlock detection in [run]. Off by default: a
    simulation that ends while daemon fibers wait for work is normal; in
    crash-free unit tests, turning detection on catches lost wakeups. *)

val run : ?until:float -> ?max_steps:int -> t -> unit
(** [run t] processes events in (time, sequence) order until the queue is
    empty, time exceeds [until], or [max_steps] events have been processed.
    Without [until] (drain mode) the run also stops as soon as only daemon
    wakeups remain queued (see {!daemon_sleep}) — worlds with no daemons
    behave exactly as before. Re-raises the first exception that escaped a
    fiber, if any.

    Each step pops the now-queue's head unless the heap's top is due at
    the current instant with a lower sequence number: a guard or daemon
    wakeup due at once, pushed before that head. Every now-queue event is
    due at the current instant, since the clock only advances by a heap
    pop, so this is the single-heap order. Now-queue events count towards
    [max_steps], {!processed_events} and pending work like any other; an
    [until] below the current clock runs none of them. *)

val processed_events : t -> int
(** Number of events processed so far; useful for budget assertions. *)

val leaked_fibers : t -> string list
(** Names of fibers currently suspended whose group is still alive, sorted.
    Meaningful after {!run} has drained the queue: a live-group suspension
    with no pending event waits for a wakeup that cannot come — a lost
    resume, an ivar nobody will fill, a lock nobody will release. Entries
    belonging to killed groups are pruned (crash is fail-silent by design,
    not a leak). *)
