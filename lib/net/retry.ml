(* Unified retry/backoff policy engine. Every protocol-level retry loop in
   the system (recovery probes, reintegration, cleanup repairs, use-delta
   flushes, router migration waits, group invocation failover) routes
   through [run], so attempt bounds, backoff shape, deadline budgets and
   per-destination breaker state are defined in exactly one place. *)

type policy = {
  attempts : int;
  base : float;
  factor : float;
  max_delay : float;
  jitter : float;
  budget : float option;
}

let policy ?(attempts = 5) ?(base = 1.0) ?(factor = 2.0) ?(max_delay = 16.0)
    ?(jitter = 0.1) ?budget () =
  if attempts < 1 then invalid_arg "Retry.policy: attempts < 1";
  { attempts; base; factor; max_delay; jitter; budget }

type breaker = {
  mutable consecutive : int;
  mutable open_until : float;
  mutable cooldown : float;
  mutable probing : bool;
      (* a deadline-forced half-open probe is in flight (single-flight) *)
  mutable degraded_trip : bool;
      (* the breaker was last opened by sustained slowness, not failures;
         its half-open probe must also check latency, not just success *)
}

type t = {
  net : Network.t;
  rng : Sim.Rng.t;
  breakers : (Network.node_id, breaker) Hashtbl.t;
}

let breaker_threshold = 3
let breaker_cooldown = 8.0
let breaker_max_cooldown = 64.0

let create net =
  {
    net;
    (* Derived stream: jitter is seed-deterministic and draws nothing from
       the latency stream, so fault-free worlds that never sleep a backoff
       are unperturbed. *)
    rng = Network.derive_rng net "retry";
    breakers = Hashtbl.create 8;
  }

let breaker t dst =
  match Hashtbl.find_opt t.breakers dst with
  | Some b -> b
  | None ->
      let b =
        {
          consecutive = 0;
          open_until = neg_infinity;
          cooldown = breaker_cooldown;
          probing = false;
          degraded_trip = false;
        }
      in
      Hashtbl.add t.breakers dst b;
      b

let breaker_open t dst =
  match Hashtbl.find_opt t.breakers dst with
  | None -> false
  | Some b -> Sim.Engine.now (Network.engine t.net) < b.open_until

let run t ?dst ?deadline_at ~op (p : policy) body =
  let eng = Network.engine t.net in
  let m = Network.metrics t.net in
  let now () = Sim.Engine.now eng in
  let deadline =
    Float.min
      (match p.budget with None -> infinity | Some b -> now () +. b)
      (match deadline_at with None -> infinity | Some d -> d)
  in
  let backoff k =
    let d = Float.min p.max_delay (p.base *. (p.factor ** float_of_int (k - 1))) in
    if p.jitter > 0.0 then
      d *. (1.0 +. (p.jitter *. Sim.Rng.uniform t.rng (-1.0) 1.0))
    else d
  in
  (* Degraded trip: under a gray-failure profile ({!Network.hedged}),
     sustained slowness reported by the health plane opens the breaker
     exactly like consecutive failures — a browned-out node is
     functionally down for latency-sensitive work.
     The trip pre-loads [consecutive] so a failed half-open probe reopens
     with escalation, and marks [degraded_trip] so a probe that succeeds
     but is still slow reopens rather than closing. *)
  let maybe_degrade dstid =
    if Network.hedged t.net then begin
      let b = breaker t dstid in
      if
        now () >= b.open_until
        && (not b.degraded_trip)
        && Health.sustained_slow (Network.health t.net) ~now:(now ()) dstid
      then begin
        b.degraded_trip <- true;
        b.consecutive <- max b.consecutive breaker_threshold;
        b.open_until <- now () +. b.cooldown;
        b.cooldown <- Float.min breaker_max_cooldown (b.cooldown *. 2.0);
        Sim.Metrics.incr m "retry.degraded_trips";
        Sim.Trace.recordf (Network.trace t.net) ~now:(now ()) ~tag:"retry"
          "breaker degraded dst=%s op=%s (sustained slow, cooldown %.1f)"
          dstid op b.cooldown
      end
    end
  in
  (* Shed the attempt without sending anything when the failure detector
     reports the destination down or its breaker is open. The shed still
     consumes an attempt and backs off, so budgets are unchanged — the call
     is just cheaper than sending into a known-dead node. One exception:
     if the breaker stays open past the caller's whole deadline, shedding
     every attempt would starve the half-open probe and the caller could
     never relearn that the destination recovered. In that case exactly
     one attempt is forced through as the probe (single-flight per
     destination), independent of the breaker's cooldown clock. *)
  let dispose dstid =
    if not (Network.is_up t.net dstid) then `Shed "detector reports down"
    else begin
      maybe_degrade dstid;
      if breaker_open t dstid then begin
        let b = breaker t dstid in
        if deadline < b.open_until && not b.probing then `Probe b
        else `Shed "breaker open"
      end
      else `Go
    end
  in
  let note_failure () =
    match dst with
    | None -> ()
    | Some dstid ->
        let b = breaker t dstid in
        b.consecutive <- b.consecutive + 1;
        if b.consecutive >= breaker_threshold && now () >= b.open_until then begin
          (* Threshold crossed while closed/half-open: (re)open with an
             escalating cooldown. A half-open probe that fails lands here
             and doubles the cooldown again. *)
          b.open_until <- now () +. b.cooldown;
          b.cooldown <- Float.min breaker_max_cooldown (b.cooldown *. 2.0);
          Sim.Metrics.incr m "retry.breaker_opens";
          Sim.Trace.recordf (Network.trace t.net) ~now:(now ()) ~tag:"retry"
            "breaker open dst=%s op=%s (cooldown %.1f)" dstid op b.cooldown
        end
  in
  let note_success ~started =
    match dst with
    | None -> ()
    | Some dstid ->
        let b = breaker t dstid in
        if
          b.degraded_trip
          && Health.is_slow (Network.health t.net)
               ~latency:(now () -. started)
        then begin
          (* Half-open latency probe: the destination answered, but no
             faster than what tripped it. Success is returned to the
             caller — the work is done — but the breaker reopens with a
             doubled cooldown instead of closing. *)
          b.open_until <- now () +. b.cooldown;
          b.cooldown <- Float.min breaker_max_cooldown (b.cooldown *. 2.0);
          Sim.Metrics.incr m "retry.degraded_reopens";
          Sim.Trace.recordf (Network.trace t.net) ~now:(now ()) ~tag:"retry"
            "breaker still slow dst=%s op=%s (cooldown %.1f)" dstid op
            b.cooldown
        end
        else begin
          b.consecutive <- 0;
          b.cooldown <- breaker_cooldown;
          b.open_until <- neg_infinity;
          b.degraded_trip <- false
        end
  in
  let rec attempt k =
    let started = now () in
    let outcome =
      match dst with
      | Some dstid -> (
          match dispose dstid with
          | `Shed why ->
              Sim.Metrics.incr m "retry.sheds";
              Sim.Trace.recordf (Network.trace t.net) ~now:(now ())
                ~tag:"retry" "shed dst=%s op=%s (%s)" dstid op why;
              Error ("shed: " ^ why)
          | `Probe b ->
              b.probing <- true;
              Sim.Metrics.incr m "retry.forced_probes";
              Sim.Trace.recordf (Network.trace t.net) ~now:(now ())
                ~tag:"retry" "forced probe dst=%s op=%s" dstid op;
              let r =
                try body ()
                with e ->
                  b.probing <- false;
                  raise e
              in
              b.probing <- false;
              r
          | `Go -> body ())
      | None -> body ()
    in
    match outcome with
    | Ok v ->
        note_success ~started;
        Ok v
    | Error why ->
        note_failure ();
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
            Sim.Metrics.observe m "retry.backoff" d;
            Sim.Engine.sleep eng d;
            attempt (k + 1)
          end
        end
  in
  attempt 1
