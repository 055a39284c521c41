(** Deterministic chaos harness (experiment [tab-chaos]).

    Composes crash churn, symmetric and one-way partitions, and
    message-level link faults (drop/duplicate/reorder/delay-spike) into a
    randomized, seed-deterministic schedule over bind/commit workloads
    with a mid-run naming-shard rebalance, then heals every fault,
    drains, runs the post-heal janitor passes (in-doubt re-resolution,
    cleanup sweeps) and checks the consolidated {!Audit.chaos} invariants
    plus commit-accounting bounds and snapshot-version monotonicity.

    Every world commits by validating a committed St snapshot in the
    prepare round, through the group-commit plane, and binds scheme A
    with one [gvd.bind] request, so batch leadership, vote peel-outs and
    orphaned members all run under the fault schedules, with St-revision monotonicity monitored. Four world
    variants run per seed: {e classic} (naming nodes never crash — the
    paper's §3.1 availability assumption), {e durable-ns} (durable
    naming; the naming shards join the crash pool and recover their
    committed entries from the database), {e brownout} (the durable
    crash pool extended with gray
    failures — {!Net.Fault.brownout_for} service-time inflation that
    stays below every timeout — under the [Hedged] gray-failure profile:
    hedged scatter-gathers, plus 25s action deadlines propagated to
    servers that shed expired phase-1 work. Over the default seeds, the
    check additionally fails if [retry.shed_expired] never fired across
    the brownout runs — the shedding plane must be exercised, not merely enabled), and {e autonomic} (the brownout world under the
    [Autonomic] profile, adding the §16 membership plane: one
    {!Replica.Autonomic} controller daemon per server probing the stores and
    driving health-based Exclude/Include through the validated membership
    rounds — flapping brownouts, crash churn and controller-driven membership churn
    under one schedule, which must neither livelock membership nor dirty the
    audit).

    Every run is a pure function of its seed: a failing seed replays the
    whole world bit-for-bit, and the offending schedule is greedily
    minimized — first by dropping events, then by halving the fault
    durations of the survivors — before being reported. *)

type fault_event

val pp_event : Format.formatter -> fault_event -> unit

val gen_events :
  ?durable:bool -> ?brownout:bool -> seed:int64 -> unit -> fault_event list
(** The schedule for [seed] — pure, stable across runs. [durable]
    (default false) admits naming nodes into the crash pool; only sound
    for worlds built with durable naming. [brownout] (default false)
    admits gray-failure events (per-node service-time inflation on
    servers and stores, magnitudes below every timeout); the extra
    draws sit behind the gate, so schedules with it off are unchanged. *)

type outcome = {
  oc_violations : string list;  (** empty means the world quiesced clean *)
  oc_commits : int;
  oc_retries : int;  (** [retry.retries] counter *)
  oc_faults : int;  (** injected message faults (sum of [fault.*]) *)
  oc_shed : int;  (** [retry.shed_expired] — expired calls servers refused *)
}

val run_world :
  ?durable:bool -> ?brownout:bool -> ?autonomic:bool ->
  seed:int64 -> events:fault_event list -> unit -> outcome
(** One full run: build the world from [seed] (durable naming iff
    [durable]; iff [brownout], the [Hedged] gray-failure profile — hedged
    scatters and ranked servers — with 25s action deadlines, which servers
    shed once expired; iff
    [autonomic], the [Autonomic] profile instead, adding the §16 membership
    plane), inject [events], drive the workload to
    quiescence, audit. Each phase must quiesce by t=10000: a world still
    busy then stops there with the single violation
    ["did not quiesce by t=10000"] and no quiescent audit.
    Deterministic in [(durable, brownout, autonomic, seed, events)]. *)

val check_seed :
  ?durable:bool -> ?brownout:bool -> ?autonomic:bool ->
  int64 -> outcome * fault_event list option
(** Run [gen_events] for the seed in the chosen variant; on violation,
    also the minimized schedule ([None] when the run was clean). *)

val default_seeds : int64 list
(** The eight seeds the CI smoke job replays. *)

val run_check : ?seeds:int64 list -> unit -> Table.t * bool
(** The experiment table plus an all-clean flag (for CLI exit codes);
    every seed runs the classic, durable-ns, brownout and autonomic
    variants. Over {!default_seeds}, the flag is also false when
    [retry.shed_expired] stayed zero across every brownout run (dead
    shedding coverage); any other seed list only reports that total in a
    note, since one seed's brownout world may shed nothing.
    Failing runs are detailed in the table notes: world, seed, minimized
    schedule, violations. *)

val run : ?seeds:int64 list -> unit -> Table.t
