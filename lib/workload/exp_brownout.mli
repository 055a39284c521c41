(** Gray-failure latency experiment (experiment [tab-brownout]).

    Commits a long sequence of two-store writes while one store suffers a
    brownout ({!Net.Fault.brownout_for} — probabilistic service-time
    inflation below every timeout) and compares commit-latency
    percentiles without and with the [Hedged] gray-failure profile
    ({!Naming.Service.gray_failure}), same seed, same schedule. Hedged
    scatters race a health-delayed backup copy of each idempotent store call
    against the primary, so the latency tail of the browned store is
    suppressed quadratically. *)

type sample = {
  b_commits : int;
  b_mean : float;
  b_p50 : float;
  b_p95 : float;
  b_p99 : float;
  b_hedges : int;  (** [rpc.hedges] — backup copies actually launched *)
  b_brownouts : int;  (** [fault.brownout] — messages inflated *)
}

val episode :
  hedged:bool -> prob:float -> commits:int -> seed:int64 -> unit -> sample
(** One world: [commits] sequential commits from a single client with the
    brownout at [prob] on store ["t1"]; [hedged] selects the [Hedged]
    gray-failure profile. Deterministic in all four parameters. *)

val p99_ratio :
  ?prob:float -> ?commits:int -> ?seed:int64 -> unit ->
  float * sample * sample
(** [(ratio, unhedged, hedged)] at the pinned operating point
    (prob 0.02, 150 commits, seed 31): unhedged p99 over hedged p99.
    The tier-1 pin requires >= 2.0. *)

val run : unit -> Table.t
