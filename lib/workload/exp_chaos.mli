(** Deterministic chaos harness (experiment [tab-chaos]).

    Composes crash churn, symmetric and one-way partitions, and
    message-level link faults (drop/duplicate/reorder/delay-spike) into a
    randomized, seed-deterministic schedule over bind/commit workloads
    with a mid-run naming-shard rebalance, then heals every fault,
    drains, runs the post-heal janitor passes (in-doubt re-resolution,
    cleanup sweeps) and checks the consolidated {!Audit.chaos} invariants
    plus commit-accounting bounds and snapshot-version monotonicity.

    Delta shipping ({!Service.create}'s [delta_shipping]) is enabled in
    every chaos world, so commit copy-backs mix op-log delta prepares
    with full-state fallbacks under the fault plane, and the audit's
    golden-shadow byte-equality check is live.

    Every world commits by validating a lock-free St snapshot in the
    prepare round, through the group-commit plane, and binds scheme A
    with one Join scatter, so batch leadership, vote peel-outs and
    orphaned members all run under the fault schedules, with St-revision monotonicity monitored. Four world
    variants run per seed: {e classic} (naming nodes never crash — the
    paper's §3.1 availability assumption), {e durable-ns} (durable
    naming; the naming shards join the crash pool and recover their
    committed entries from the database), {e brownout} (the durable
    crash pool extended with gray
    failures — {!Net.Fault.brownout_for} service-time inflation that
    stays below every timeout — under the [Hedged] gray-failure profile:
    hedged scatter-gathers, 25s action deadlines propagated to servers
    that shed expired phase-1 work, and breaker trips on sustained
    slowness. The check additionally fails if [retry.shed_expired] never fired
    across the brownout runs — the shedding plane must be exercised,
    not merely enabled), and {e autonomic} (the brownout world under the
    [Autonomic] profile, adding the §16 membership plane: one
    {!Replica.Autonomic} controller daemon per server probing the stores and
    driving health-based Exclude/Include through the validated membership
    rounds, and sibling-hedge routing of commit-path backup copies —
    flapping brownouts, crash churn and controller-driven membership churn
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
    scatters, server-side deadline shedding, degraded breaker trips — with
    25s action deadlines; iff
    [autonomic], the [Autonomic] profile instead, adding the §16 membership
    plane and sibling-hedge routing), inject [events], drive the workload to
    quiescence, audit.
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
    variants. The flag is also false when [retry.shed_expired]
    stayed zero across every brownout run (dead shedding coverage).
    Failing runs are detailed in the table notes: world, seed, minimized
    schedule, violations. *)

val run : ?seeds:int64 list -> unit -> Table.t
