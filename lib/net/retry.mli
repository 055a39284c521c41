(** Unified retry policy: bounded attempts, exponential backoff with
    seed-deterministic jitter, the caller's deadline, and a shed of
    attempts to a destination the failure detector reports down. The
    engine keeps no per-destination state.

    Every protocol retry loop routes through {!run} so retry doctrine lives
    in one place (docs/PROTOCOLS.md §11.2) and every retry is visible as
    [retry.*] metrics:
    - [retry.retries] — backoff sleeps performed;
    - [retry.op.<op>] — same, per operation label;
    - [retry.giveups] — attempt budget exhausted;
    - [retry.deadline_exhausted] — stopped early because the next backoff
      would cross the deadline;
    - [retry.sheds] — attempts skipped because the destination was down. *)

type policy = {
  attempts : int;  (** maximum attempts, including the first (>= 1) *)
  base : float;  (** first backoff delay *)
  factor : float;  (** multiplier per further attempt *)
  max_delay : float;  (** backoff cap *)
}

val policy :
  attempts:int -> base:float -> factor:float -> max_delay:float -> unit -> policy
(** Build a policy. The delay before attempt [k + 1] is
    [min max_delay (base * factor^(k-1))], carrying a relative jitter of
    0.1 (delay *= 1 + 0.1 U(-1,1)).
    Raises [Invalid_argument] if [attempts < 1]. *)

type t

val create : Network.t -> t
(** One retry engine per world, created alongside the atomic-action
    runtime. Jitter draws from a stream derived from the network seed
    ({!Network.derive_rng}), so retried schedules are reproducible and
    fault-free runs (which never sleep a backoff) are unperturbed. *)

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

    [dst] names the node whose liveness is the question: while the
    failure detector reports it down, an attempt is shed — counted
    ([retry.sheds]) and backed off like a failure, but [body] is not
    called, so nothing is sent and no latency is drawn. The first attempt
    after [dst] recovers runs [body].

    [deadline_at] is an absolute virtual-time deadline (typically an
    enclosing action's — see {!Action}[.Atomic.deadline]). [run] returns
    the last error rather than sleeping past it.

    Errors are strings so layers with different error types can wrap
    freely; the final [Error] returned is the last attempt's. *)
