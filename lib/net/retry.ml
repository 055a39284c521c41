(* Unified retry/backoff policy engine. Every protocol-level retry loop in
   the system (recovery probes, reintegration, cleanup repairs, use-delta
   flushes, router migration waits, group invocation failover) routes
   through [run], so attempt bounds, backoff shape and deadlines are
   defined in exactly one place. The engine keeps no per-destination
   state: the perfect failure detector already says which nodes are
   down. *)

type policy = { attempts : int; base : float; factor : float; max_delay : float }

let policy ~attempts ~base ~factor ~max_delay () =
  if attempts < 1 then invalid_arg "Retry.policy: attempts < 1";
  { attempts; base; factor; max_delay }

(* Relative jitter: every backoff delay is scaled by 1 + jitter*U(-1,1). *)
let jitter = 0.1

type t = { net : Network.t; rng : Sim.Rng.t }

let create net =
  {
    net;
    (* Derived stream: jitter is seed-deterministic and draws nothing from
       the latency stream, so fault-free worlds that never sleep a backoff
       are unperturbed. *)
    rng = Network.derive_rng net "retry";
  }

let run t ?dst ?deadline_at ~op (p : policy) body =
  let eng = Network.engine t.net in
  let m = Network.metrics t.net in
  let now () = Sim.Engine.now eng in
  let deadline = Option.value deadline_at ~default:infinity in
  let backoff k =
    let d = Float.min p.max_delay (p.base *. (p.factor ** float_of_int (k - 1))) in
    d *. (1.0 +. (jitter *. Sim.Rng.uniform t.rng (-1.0) 1.0))
  in
  (* Shed the attempt without sending anything while the failure detector
     reports [dst] down. The shed still consumes an attempt and backs off,
     so budgets are unchanged — the call is just cheaper than sending into
     a known-dead node, and it draws no latency. *)
  let attempt_once () =
    match dst with
    | Some dstid when not (Network.is_up t.net dstid) ->
        Sim.Metrics.incr m "retry.sheds";
        Sim.Trace.recordf (Network.trace t.net) ~now:(now ()) ~tag:"retry"
          "shed dst=%s op=%s (detector reports down)" dstid op;
        Error "shed: detector reports down"
    | _ -> body ()
  in
  let rec attempt k =
    match attempt_once () with
    | Ok v -> Ok v
    | Error why ->
        if k >= p.attempts then begin
          Sim.Metrics.incr m "retry.giveups";
          Error why
        end
        else begin
          let d = backoff k in
          if now () +. d >= deadline then begin
            Sim.Metrics.incr m "retry.deadline_exhausted";
            Error why
          end
          else begin
            Sim.Metrics.incr m "retry.retries";
            Sim.Metrics.incr m ("retry.op." ^ op);
            Sim.Engine.sleep eng d;
            attempt (k + 1)
          end
        end
  in
  attempt 1
