(** Per-destination latency health: the gray-failure counterpart of the
    failure detector.

    Crashes are binary; a {e browned-out} node is alive enough to hold
    locks and vote yet slow enough to drag every scatter-gather to its
    pace. This module keeps, per destination, an EWMA of observed RPC
    round-trip latency, a smoothed deviation, and a time-decaying
    slow-call indicator, plus fleet-wide aggregates. The RPC layer feeds
    every call completion in; consumers derive a health score (replica
    ranking), a sustained-slowness verdict (the retry breaker's
    "degraded" trips) and the hedge delay for backup requests.

    All bookkeeping is pure arithmetic on the virtual clock — no RNG
    draws, no scheduled events — so feeding it unconditionally leaves
    fault-free worlds byte-identical. Functions take [~now] explicitly;
    the module has no dependency on the network. *)

type t

val create : ?slow_floor:float -> ?tau:float -> unit -> t
(** [create ()] is an empty tracker. [slow_floor] (default [8.0]) is the
    minimum latency a call must exceed to ever count as slow — cold
    starts and ordinary jitter never flag. [tau] (default [60.0]) is the
    decay time-constant of the slow indicator: a destination nobody calls
    regains health over roughly a few [tau]. *)

val note_ok : t -> dst:string -> now:float -> latency:float -> unit
(** Feed a successful call's round-trip [latency], classifying it as slow
    iff it exceeds the current slow bar, [max slow_floor (3 * fleet
    EWMA)]: relative to the {e fleet}, not the destination itself, so a
    consistently sick node cannot normalize its own sickness away. *)

val note_failure : t -> dst:string -> now:float -> unit
(** Feed a transport failure (timeout, crash detection): counts as a slow
    call for the indicator but does not pollute the latency EWMA — how
    fast a node answers when it does answer is a separate question from
    whether it answered. *)

val is_slow : t -> latency:float -> bool
(** Whether a latency would be classified slow right now. *)

val score : t -> now:float -> string -> float
(** Health in [\[0,1\]]; 1.0 = no evidence of sickness (unknown
    destinations score 1.0). Combines the decayed slow indicator with the
    destination's latency relative to the fleet. *)

val rank : t -> now:float -> string list -> string list
(** Stable sort, healthiest first. Ties — including all-unknown worlds —
    preserve the caller's order, so replica preference is unchanged
    wherever health has nothing to say. *)

val sustained_slow : t -> now:float -> string -> bool
(** The degraded-trip condition: at least 4 samples and a decayed slow
    indicator ≥ 0.6. One unlucky round trip can never shed a healthy
    destination. *)

val hedge_delay : ?floor:float -> t -> float
(** How long a hedged call gives its primary before launching the backup:
    fleet EWMA + 3 deviations (≈ a high percentile of healthy latency),
    floored at [floor] (default [4.0]) and pinned to the floor until at
    least 8 fleet samples exist. *)

val slow_score : t -> now:float -> string -> float
(** The decayed slow indicator alone, for tests and introspection. *)

val samples : t -> string -> int
(** Number of samples recorded for a destination. *)

val latency_ewma : t -> string -> float
(** The destination's smoothed latency (0.0 if never sampled). *)
