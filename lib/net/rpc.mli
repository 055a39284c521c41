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
    - [Error Timed_out] — no reply within the caller-supplied timeout
      (used by protocols that bound waiting);
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

val create : ?default_timeout:float -> Network.t -> t
(** [create net] is an RPC runtime for [net]. [default_timeout] (60.0)
    bounds every call that does not pass its own [?timeout]: the crash
    watch covers fail-silent deaths, but a network {e partition} severs
    the reply path without killing anyone, and an unbounded call would
    hang forever. The default is far above any legitimate handler time
    (lock waits are bounded at 30 by convention). *)

val network : t -> Network.t
(** The underlying network. *)

val serve :
  t -> node:Network.node_id -> ('req, 'resp) endpoint -> ('req -> 'resp) -> unit
(** [serve t ~node ep h] installs [h] as the handler for [ep] on [node],
    replacing any previous handler. [h] runs in a fiber on [node] for each
    incoming call. *)

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
  ?timeout:float ->
  ?deadline_at:float ->
  ('req, 'resp) endpoint ->
  'req ->
  ('resp, error) result
(** [call t ~from ~dst ep req] invokes [ep] on [dst] from a fiber running
    on [from]. Suspends the calling fiber until the reply, a failure
    notification, or the [timeout] (default: none). Must be called from
    within a fiber. Every call bumps the aggregate [rpc.calls] counter
    and a per-operation [rpc.op.<endpoint name>] counter, and feeds its
    round-trip outcome into {!Network.health}. [deadline_at] propagates
    the initiator's absolute deadline in the request metadata. Under a
    gray-failure profile ({!Network.hedged}) the server sheds a request
    whose deadline has already passed at unpack time: it answers
    [Error Timed_out] at once instead of running the handler, since the
    initiator has given up and the work (and any locks it would take) is
    pure waste. Each shed bumps [retry.shed_expired]. Without a profile
    the deadline is carried but never acted on.

    [idempotent] (default [false]) declares that running the handler
    twice is harmless. Under a gray-failure profile such a call is
    {e hedged}: if [dst] has not answered within {!Health.hedge_delay},
    a backup copy races it and the first [Ok] wins. The loser is
    cancelled cooperatively: a backup whose primary already won is never
    sent, a late reply is ignored, and a copy still in flight when the
    race settles is dropped at delivery {e before} the handler runs
    ([rpc.hedge_cancelled]). Both copies may still run the handler when
    deliveries interleave before the race settles (hedges ride below the
    duplicate guard), which is why {b only idempotent calls are hedged}.
    Each backup actually launched bumps [rpc.hedges]. Without a profile
    the flag changes nothing. *)

val call_all :
  t ->
  from:Network.node_id ->
  ?timeout:float ->
  ?deadline_at:float ->
  ?idempotent:bool ->
  ?replicas:Network.node_id list ->
  ?keep_primary:bool ->
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
    gather — into a min-of-two draw.

    [replicas] names the replica set the destinations belong to. Under
    the [Autonomic] profile, an idempotent leg whose destination is
    sustainedly slow ({!Health.sustained_slow}) sends its backup copy to
    the healthiest other member that is not, instead of re-sending to the
    slow node. Every member must be able to serve every leg's request. A
    win by that sibling is not the destination's answer: the leg reports
    [Error Timed_out] (each such win bumps [rpc.sibling_wins]).
    [keep_primary] (default [false]) keeps a sibling-routed leg's primary
    copy in flight after the sibling answered, for requests the
    destination must still receive (a phase-2 decision). *)

val first_answer :
  t -> Network.node_id list -> (Network.node_id -> 'a option) -> 'a option
(** [first_answer t nodes ask] asks replicas for an answer any of them
    can give, and returns the first [Some] in [nodes] order once every
    [ask] has settled ([None] if none answered). Under a gray-failure
    profile it is a tiered race instead ({!Sim.Join.hedged}): healthiest
    first ({!Health.rank}), each further replica asked only a
    {!Health.hedge_delay} later, and the first [Some] wins. [ask] must be
    idempotent. Must run within a fiber. *)

val notify :
  t -> from:Network.node_id -> dst:Network.node_id -> ('req, unit) endpoint -> 'req -> unit
(** One-way, best-effort message: runs the handler on [dst] if it is
    reachable, drops silently otherwise. Never blocks. *)
