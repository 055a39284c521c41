(** Unified retry policy: bounded attempts, exponential backoff with
    seed-deterministic jitter, the caller's deadline, and a
    per-destination circuit breaker that sheds calls to nodes the failure
    detector reports down.

    Every protocol retry loop routes through {!run} so retry doctrine lives
    in one place (docs/PROTOCOLS.md §11.2) and every retry is visible as
    [retry.*] metrics:
    - [retry.retries] — backoff sleeps performed;
    - [retry.op.<op>] — same, per operation label;
    - [retry.giveups] — attempt budget exhausted;
    - [retry.deadline_exhausted] — stopped early because the next backoff
      would cross the deadline;
    - [retry.sheds] — attempts skipped (destination down or breaker open);
    - [retry.breaker_opens] — breaker transitions to open;
    - [retry.forced_probes] — half-open probes forced through an open
      breaker because the caller's deadline would otherwise starve them;
    - [retry.degraded_trips] — breaker opened by sustained slowness
      (gray failure) rather than consecutive failures;
    - [retry.degraded_reopens] — half-open latency probe succeeded but was
      still slow, so the breaker reopened with a doubled cooldown;
    - [retry.backoff] — distribution of backoff delays. *)

type policy = {
  attempts : int;  (** maximum attempts, including the first (>= 1) *)
  base : float;  (** first backoff delay *)
  factor : float;  (** multiplier per further attempt *)
  max_delay : float;  (** backoff cap *)
}

val policy :
  ?attempts:int -> ?base:float -> ?factor:float -> ?max_delay:float -> unit -> policy
(** Build a policy. Defaults: 5 attempts, base 1.0, factor 2.0, cap 16.0.
    Every delay carries a relative jitter of 0.1 (delay *= 1 + 0.1 U(-1,1)).
    Raises [Invalid_argument] if [attempts < 1]. *)

type t

val create : Network.t -> t
(** One retry engine per world, created alongside the atomic-action
    runtime. Jitter draws from a stream derived from the network seed
    ({!Network.derive_rng}), so retried schedules are reproducible and
    fault-free runs (which never sleep a backoff) are unperturbed. *)

val breaker_open : t -> Network.node_id -> bool
(** Whether the destination's breaker is currently open (calls to it are
    being shed). *)

val run :
  t ->
  ?dst:Network.node_id ->
  ?deadline_at:float ->
  op:string ->
  policy ->
  (unit -> ('a, string) result) ->
  ('a, string) result
(** [run t ~op policy body] calls [body] until it returns [Ok], sleeping an
    exponential backoff between attempts. Must be called from a fiber.

    [dst] enables the per-destination breaker: after 3 consecutive
    failures the breaker opens and attempts are shed (counted, backed off,
    but not executed) until a cooldown passes; the next attempt then
    probes half-open — success closes the breaker, failure reopens it with
    a doubled cooldown. While the failure detector reports [dst] down,
    attempts are shed the same way. If the breaker's cooldown outlasts the
    caller's entire deadline, one attempt is forced through anyway as the
    half-open probe ([retry.forced_probes], single-flight per
    destination) — otherwise a deadline-bounded caller could shed every
    attempt and never discover the destination recovered.

    Under a gray-failure profile ({!Network.hedged}) the breaker also
    trips on slowness: a destination {!Health.sustained_slow} reports as
    persistently slow has its breaker opened ([retry.degraded_trips])
    exactly as if it had failed three times — slow enough is down for
    latency-sensitive work. While tripped this way, a half-open probe
    that succeeds but is {e still slow} reopens the breaker with a
    doubled cooldown ([retry.degraded_reopens]) — the caller keeps the
    successful result — and only a fast success closes it. Without a
    profile no health state is consulted.

    [deadline_at] is an absolute virtual-time deadline (typically an
    enclosing action's — see {!Action}[.Atomic.deadline]). [run] returns
    the last error rather than sleeping past it.

    Errors are strings so layers with different error types can wrap
    freely; the final [Error] returned is the last attempt's. *)
