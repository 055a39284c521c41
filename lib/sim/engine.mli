(** Deterministic discrete-event simulation engine with lightweight fibers.

    Protocol code runs inside {e fibers}: cooperative coroutines implemented
    with OCaml 5 effect handlers. A fiber performs ordinary OCaml computation
    between {e suspension points} ([sleep], [suspend], channel reads, ...);
    only suspension points advance the virtual clock, so each segment of
    computation is atomic with respect to every other fiber. This is exactly
    the discrete-event model: determinism comes from the strictly ordered
    event queue (time, then insertion sequence).

    The queue has three parts that {!run} merges. Future events and
    daemon wakeups sit in a binary heap ({!Heap}); timeout guards sit in
    one FIFO lane per guard delay (see {!timeout}). A plain event
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

val spawn : t -> ?group:group -> ?name:string -> (unit -> unit) -> unit
(** [spawn t ~group ~name f] schedules fiber [f] to start at the current
    virtual time, after already-queued events. The start event joins the
    now-queue. An exception escaping [f]
    (other than the internal kill signal) is recorded and re-raised by
    {!run}. [name] is used in error reports. *)

val start :
  t -> group:group -> from:string -> name:string -> (unit -> unit) -> unit
(** [start t ~group ~from ~name f] runs fiber [f] at once, inside the
    current event, up to its first suspension point; {!spawn} instead
    queues a start event. Meant for plain event callbacks such as a
    message delivery: when nothing else is due at this instant, the
    delay-0 start event would have been the next to pop, so starting
    inline keeps every other event, RNG draw and result in place while
    saving the event. A running fiber may start one too ({!Join.all}'s
    workers): the new fiber runs before the caller resumes, and the
    caller's group and name are restored after. A no-op when [group] is
    dead.

    The fiber is named [from ^ "->" ^ name] in error reports and
    {!leaked_fibers} (a message's source and destination, say). The
    engine joins the two only when a report prints the name, and every
    fiber runs under the engine's one effect handler, so a start that
    never suspends allocates only what [Effect.Deep.match_with] does:
    5 words. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs the plain callback [f] at time [now t +.
    delay]. [f] must not perform fiber effects; use [spawn] for that. *)

type 'a resumer
(** A parked fiber, handed to [suspend] and [timeout] registrants: the
    one record a suspension allocates. {!resume} it once with [Ok v] to
    resume the fiber with [v], or [Error e] to raise [e] inside the
    fiber. *)

val resume : 'a resumer -> ('a, exn) result -> unit
(** [resume r result] queues the fiber's resumption at the current
    instant, holding [r] and [result] in a now-queue slot. Only the first
    call counts; later ones are ignored, which makes races between a
    result and a timeout safe. A resumption of a fiber whose group was
    killed is dropped. *)

val suspend : t -> ('a resumer -> unit) -> 'a
(** [suspend t register] suspends the calling fiber and calls
    [register r]. The fiber resumes when [r] is first resumed. Must be
    called from within a fiber. The registrant reaches the engine's
    handler through a field of [t], so the effect carries no payload, and
    the parked record is the resumer, so a suspension allocates that
    record and the continuation, plus whatever [register] is: 16 words
    with a registrant that captures one variable. *)

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
    [Error Timed_out] if nothing resumed the fiber within [dt] (a
    negative [dt] counts as 0). It returns the argument of the first
    {!resume} as is: an [Error e] is returned, not raised.

    Its guard never enters the heap. Each distinct [dt] has a FIFO lane,
    a doubly linked list of the parked records themselves: a guard takes
    its sequence number when it is queued and is due [dt] later, so each
    lane is already in (time, seq) order, and {!run} merges the lane
    heads with the heap and the now-queue. When the operation settles
    first, {!resume} unlinks the guard in O(1), so a drain-mode [run]
    quiesces without it. A guarded suspension allocates what a plain one
    does: the guard is the parked record's place in its lane. *)

exception Timed_out
(** The error a [timeout] returns when its guard fires first. *)

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

    Each step runs the least (time, seq) of the now-queue's head, the
    heap's top and the guard lanes' heads. Every now-queue event is due
    at the current instant, since the clock only advances by a heap or
    lane pop, so this is the order one heap holding every event would
    give. Now-queue events count towards
    [max_steps], {!processed_events} and pending work like any other; an
    [until] below the current clock runs none of them. *)

val run_to_quiescence : t -> by:float -> bool
(** [run_to_quiescence t ~by] is drain-mode {!run} that processes no
    event due after [by]. [true] when the run quiesced (nothing but
    daemon wakeups remains queued); [false] when other work is still
    queued past [by] — a world that never settles stops there instead of
    running on. A world that quiesces before [by] runs exactly the events
    of [run t]. *)

val processed_events : t -> int
(** Number of events processed so far; useful for budget assertions. *)

val leaked_fibers : t -> string list
(** Names of fibers currently suspended whose group is still alive, sorted.
    Meaningful after {!run} has drained the queue: a live-group suspension
    with no pending event waits for a wakeup that cannot come — a lost
    resume, an ivar nobody will fill, a lock nobody will release. Entries
    belonging to killed groups are pruned (crash is fail-silent by design,
    not a leak). *)
