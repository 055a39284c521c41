(** tab-autonomic: health-driven Exclude/Include of a browned store
    (docs/PROTOCOLS.md §16).

    The tab-brownout gray-failure regime pushed past what hedging can
    absorb: one of the two St stores browned out so harshly (per-message
    inflation probability 0.7) that a hedged backup copy to the same
    store draws the inflation too. The autonomic controller Excludes the
    sick store after its hysteresis window, returning steady-state
    commit latency to the no-fault baseline, and re-Includes it through
    the catch-up fence when the brownout heals mid-run. *)

type mode = Baseline | Unhedged | Hedged | Autonomic

type sample = {
  a_commits : int;
  a_p50 : float;
  a_p99 : float;
  a_steady_p99 : float;
      (** p99 over commits begun inside the steady-state window
          [200, 390] — after the exclusion settles, before the heal *)
  a_excludes : int;  (** metric [autonomic.excludes] *)
  a_includes : int;  (** metric [autonomic.includes] *)
  a_st_final : string list;  (** the object's St at end of run, sorted *)
  a_consistent : bool;
      (** every final-St member holds byte-identical committed state at
          the same version with no in-doubt intent-log entries *)
}

val episode :
  mode:mode -> prob:float -> commits:int -> seed:int64 -> unit -> sample
(** One run. [Baseline] has no fault but the [Autonomic] profile on;
    [Unhedged] / [Hedged] / [Autonomic] brown out t1 over [2, 400) with
    the given per-message probability. *)

val pins :
  ?prob:float ->
  ?commits:int ->
  ?seed:int64 ->
  unit ->
  sample * sample * sample
(** [(baseline, hedged, autonomic)] at the table's operating point —
    what test_autonomic.ml pins: autonomic steady-state p99 <= 1.3x
    baseline p99, hedged-only >= 2x baseline p99, and the healed store
    re-included with the consistency audit clean. *)

val run : unit -> Table.t
