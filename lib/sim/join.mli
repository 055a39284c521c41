(** Structured scatter-gather: spawn N fibers, join on a collection policy.

    The paper's commit protocol (§2.3(3)) copies the new state to every
    node of [StA] and delivers invocations to every live replica. Doing
    that with one blocking call per destination makes the latency of the
    hot path grow linearly in the replication degree; Arjuna-style systems
    issue the calls concurrently and collect the votes. These combinators
    are that shape, expressed over the simulator's fibers.

    Guarantees shared by all combinators:
    - tasks run in the {e caller's} fiber group, so killing the caller's
      node kills the whole fan-out;
    - results are returned in task (submission) order, never completion
      order, and the engine's deterministic event queue makes the whole
      interleaving a pure function of the seed;
    - a single-task scatter runs inline in the calling fiber — one-element
      fan-outs are event-for-event identical to sequential code. *)

type 'a task = unit -> 'a
(** One unit of scattered work; runs in its own fiber and may suspend. *)

val all : Engine.t -> 'a task list -> 'a list
(** [all eng tasks] runs every task concurrently and returns all results
    in task order once the last one finishes. Tasks 1..n-1 each get a
    worker fiber, started inside the calling event in list order
    ({!Engine.start}): each runs up to its first suspension before the
    next starts, and no start event is queued. The calling fiber then
    runs task 0 itself, since it has nothing else to do but wait. So the
    tasks' leading segments run in the order 1, ..., n-1, 0, all before
    any other event. A task that raises kills the simulation via the
    engine's fiber-error channel (task 0: propagates in the caller);
    encode expected failures as [result] values. *)

val hedged : Engine.t -> delay:float -> 'a option task list -> 'a option
(** [hedged eng ~delay tasks] is a tiered first-some race: task 0 starts
    immediately, task [i] after [i * delay] — and only if no earlier task
    has answered [Some] yet. The first [Some] resumes the caller; [None]
    is returned only after every launched task settled with [None]. Losing
    tasks are cancelled cooperatively: they run to completion in the
    caller's group and their answers are discarded, so hedging is only
    safe over idempotent work (reads, probes, duplicate-tolerant
    requests). A single-task list runs inline, mirroring {!all}. *)
