(** Remote procedure calls over the simulated network.

    An {e endpoint} is a typed name for a remote operation; the process
    that implements it registers a handler with [serve], and clients invoke
    it with [call]. Handlers run as fibers on the callee node and may
    themselves suspend (perform nested calls, take locks, sleep).

    Failure semantics follow the paper's assumptions: nodes are fail-silent
    and failures are detectable. A call returns:
    - [Ok v] — the handler ran to completion and the reply arrived;
    - [Error Unreachable] — the callee was already down (or partitioned
      away) when the call was made; the caller learns after one
      failure-detection latency;
    - [Error Crashed] — the callee crashed after accepting the call and
      before replying; the perfect failure detector notifies the caller;
    - [Error Timed_out] — no reply within {!call_timeout};
    - [Error No_service] — the callee is up but no handler is registered
      (e.g. it crashed and its recovery has not re-activated the service).

    Service {e registrations} survive crashes — per §3.1 the executable
    code of an object's operations lives on stable storage — but a handler
    can consult volatile state that crash hooks have reset, and
    registrations can be explicitly [withdraw]n to model services that must
    be re-announced after recovery. *)

type t
(** RPC runtime bound to one network. *)

type error = Unreachable | Crashed | Timed_out | No_service

val pp_error : Format.formatter -> error -> unit
(** Render an error for traces and messages. *)

val error_to_string : error -> string

type ('req, 'resp) endpoint
(** A typed operation name. Create exactly one endpoint value per logical
    operation and share it between server and client code. *)

val endpoint : string -> ('req, 'resp) endpoint
(** [endpoint name] is a fresh endpoint. Two endpoints created by separate
    calls never interoperate, even with equal names. *)

val call_timeout : float
(** [60.0]: every call gives up after this long. The crash watch covers
    fail-silent deaths, but a network {e partition} severs the reply path
    without killing anyone, and an unbounded call would hang forever. The
    bound is far above any legitimate handler time (a lock wait gives up
    at 30.0). *)

val create : Network.t -> t
(** [create net] is an RPC runtime for [net]. *)

val network : t -> Network.t
(** The underlying network. *)

val serve :
  t -> node:Network.node_id -> ('req, 'resp) endpoint -> ('req -> 'resp) -> unit
(** [serve t ~node ep h] installs [h] as the handler for [ep] on [node],
    replacing any previous handler for [ep] there. [h] runs in a fiber on
    [node] for each incoming call. Handlers are keyed by node, then by
    the endpoint itself (a process-unique id), not by its name: a handler
    served through one endpoint is reached, replaced, withdrawn or
    reported by {!serving} only through that endpoint, even when another
    has an equal name. *)

val withdraw : t -> node:Network.node_id -> ('req, 'resp) endpoint -> unit
(** Remove the handler for [ep] on [node]; subsequent calls get
    [Error No_service]. *)

val serving : t -> node:Network.node_id -> ('req, 'resp) endpoint -> bool
(** Whether a handler is currently installed. *)

val call :
  t ->
  from:Network.node_id ->
  dst:Network.node_id ->
  ?idempotent:bool ->
  ?deadline_at:float ->
  ('req, 'resp) endpoint ->
  'req ->
  ('resp, error) result
(** [call t ~from ~dst ep req] invokes [ep] on [dst] from a fiber running
    on [from]. Suspends the calling fiber until the reply, a failure
    notification, or {!call_timeout}. Must be called from within a
    fiber. Every call bumps the aggregate [rpc.calls] counter and a
    per-operation [rpc.op.<endpoint name>] counter, and on a hedged
    network feeds its round-trip outcome into {!Network.health}.
    [deadline_at] propagates
    the initiator's absolute deadline in the request metadata. The
    server sheds a request whose deadline has already passed at unpack
    time: it answers [Error Timed_out] at once instead of running the
    handler, since the initiator has given up and the work (and any locks
    it would take) is pure waste. Each shed bumps [retry.shed_expired].
    Shedding does not depend on whether the network hedges.

    [idempotent] (default [false]) declares that running the handler
    twice is harmless. On a hedged network ({!Network.health}) such a
    call is {e hedged}: if [dst] has not answered within
    {!Health.hedge_delay}, a backup copy to [dst] races it and the first
    [Ok] wins. The loser is
    cancelled cooperatively: a backup whose primary already won is never
    sent, a late reply is ignored, and a copy still in flight when the
    race settles is dropped at delivery {e before} the handler runs
    ([rpc.hedge_cancelled]). Both copies may still run the handler when
    deliveries interleave before the race settles (hedges ride below the
    duplicate guard), which is why {b only idempotent calls are hedged}.
    Each backup actually launched bumps [rpc.hedges]. On a network that
    does not hedge the flag changes nothing. *)

val call_all :
  t ->
  from:Network.node_id ->
  ?deadline_at:float ->
  ?idempotent:bool ->
  ('req, 'resp) endpoint ->
  (Network.node_id * 'req) list ->
  (Network.node_id * ('resp, error) result) list
(** [call_all t ~from ep reqs] issues one {!call} per [(dst, req)] pair
    {e concurrently} (scatter) and suspends the calling fiber until every
    call has settled (gather). Results are returned in request order, each
    tagged with its destination; per-call failures surface as [Error] items
    rather than aborting the scatter. The elapsed virtual time is the
    {e maximum} of the individual call times, not their sum — this is the
    primitive behind the parallel commit copy-back. A one-element list is
    exactly equivalent to a plain [call]. Must run within a fiber.
    [idempotent] hedges each leg as in {!call}, turning the scatter's
    straggler problem — one browned-out participant stalls the whole
    gather — into a min-of-two draw. *)

val first_answer :
  t -> Network.node_id list -> (Network.node_id -> 'a option) -> 'a option
(** [first_answer t nodes ask] asks replicas for an answer any of them
    can give, and returns the first [Some] in [nodes] order once every
    [ask] has settled ([None] if none answered). On a hedged network it
    is a tiered race instead ({!Sim.Join.hedged}): healthiest
    first ({!Health.rank}), each further replica asked only a
    {!Health.hedge_delay} later, and the first [Some] wins. [ask] must be
    idempotent. Must run within a fiber. *)

val notify :
  t -> from:Network.node_id -> dst:Network.node_id -> ('req, unit) endpoint -> 'req -> unit
(** One-way, best-effort message: runs the handler on [dst] if it is
    reachable, drops silently otherwise. Never blocks. *)
