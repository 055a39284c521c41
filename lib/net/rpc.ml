type error = Unreachable | Crashed | Timed_out | No_service

let error_to_string = function
  | Unreachable -> "unreachable"
  | Crashed -> "crashed"
  | Timed_out -> "timed out"
  | No_service -> "no service"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

type ('req, 'resp) endpoint = {
  ep_name : string;
  ep_id : int; (* process-unique; keys the per-world round counter *)
  inject_req : 'req -> Univ.t;
  project_req : Univ.t -> 'req option;
  inject_resp : 'resp -> Univ.t;
  project_resp : Univ.t -> 'resp option;
}

let next_endpoint = ref 0

let endpoint name =
  let inject_req, project_req = Univ.embed () in
  let inject_resp, project_resp = Univ.embed () in
  let ep_id = !next_endpoint in
  incr next_endpoint;
  { ep_name = name; ep_id; inject_req; project_req; inject_resp; project_resp }

(* A raw handler receives the request payload and a [reply] callback. The
   reply callback transports the response back to the caller. *)
type raw_handler = Univ.t -> reply:(Univ.t -> unit) -> unit

type t = {
  net : Network.t;
  services : (Network.node_id * string, raw_handler) Hashtbl.t;
  default_timeout : float;
  mutable next_req : int;
  seen : (Network.node_id, (int, unit) Hashtbl.t) Hashtbl.t;
      (* per destination: the request ids it has already run *)
  calls : Sim.Metrics.handle;
  ops : (int, Sim.Metrics.handle) Hashtbl.t;
      (* per endpoint id: its "rpc.op.<name>" counter. Per world, so a
         world's size does not depend on what ran before it. *)
}

let create ?(default_timeout = 60.0) net =
  {
    net;
    services = Hashtbl.create 64;
    default_timeout;
    next_req = 0;
    seen = Hashtbl.create 8;
    calls = Sim.Metrics.handle (Network.metrics net) "rpc.calls";
    ops = Hashtbl.create 64;
  }

let network t = t.net

let op_handle t ep =
  match Hashtbl.find t.ops ep.ep_id with
  | h -> h
  | exception Not_found ->
      let name = Printf.sprintf "rpc.op.%s" ep.ep_name in
      let h = Sim.Metrics.handle (Network.metrics t.net) name in
      Hashtbl.add t.ops ep.ep_id h;
      h

(* At-most-once request guard. The fault plane can deliver a request twice
   (dup injection); replaying a non-idempotent handler — staging a second
   Increment in gvd.bind, double-applying a merged Decrement — would
   corrupt counters. Each request carries a fresh id; the destination keeps
   a volatile seen-table (reset when it crashes, like any in-memory dedup
   cache) and drops replays, counted as [rpc.dup_suppressed]. Armed only
   once a world installs a duplicating link rule ([Network.dup_ever]): no
   other fault delivers twice, so other worlds allocate and check
   nothing. *)
let seen_at t dst =
  match Hashtbl.find t.seen dst with
  | tbl -> tbl
  | exception Not_found ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.add t.seen dst tbl;
      Network.on_crash t.net dst (fun () -> Hashtbl.reset tbl);
      tbl

(* Wrap a request-delivery thunk with the duplicate guard. Returns the
   thunk unchanged in worlds that never duplicate. *)
let guard_duplicate t ~from ~dst thunk =
  if not (Network.dup_ever t.net) then thunk
  else begin
    let seen = seen_at t dst in
    let rid = t.next_req in
    t.next_req <- rid + 1;
    fun () ->
      if Hashtbl.mem seen rid then begin
        Sim.Metrics.incr (Network.metrics t.net) "rpc.dup_suppressed";
        Sim.Trace.recordf (Network.trace t.net)
          ~now:(Sim.Engine.now (Network.engine t.net))
          ~tag:"rpc" "dup suppressed %s->%s" from dst
      end
      else begin
        Hashtbl.add seen rid ();
        thunk ()
      end
  end

let serve t ~node ep h =
  let raw payload ~reply =
    match ep.project_req payload with
    | None ->
        failwith
          (Printf.sprintf "Rpc.serve: payload type mismatch on %s@%s"
             ep.ep_name node)
    | Some req -> reply (ep.inject_resp (h req))
  in
  Hashtbl.replace t.services (node, ep.ep_name) raw

let withdraw t ~node ep = Hashtbl.remove t.services (node, ep.ep_name)

let serving t ~node ep = Hashtbl.mem t.services (node, ep.ep_name)

let record t fmt =
  Sim.Trace.recordf (Network.trace t.net)
    ~now:(Sim.Engine.now (Network.engine t.net))
    ~tag:"rpc" fmt

let error_counter = function
  | Unreachable -> "rpc.unreachable"
  | Crashed -> "rpc.crashed"
  | Timed_out -> "rpc.timed_out"
  | No_service -> "rpc.no_service"

let call_gen t ~from ~dst ?cancelled ?timeout ?deadline_at ep req =
  let eng = Network.engine t.net in
  let start = Sim.Engine.now eng in
  Sim.Metrics.bump t.calls;
  (* Per-operation round counter: lets tests and experiments assert how
     many network rounds a protocol step costs (e.g. a bind is exactly
     one "rpc.op.gvd.bind" tick). *)
  Sim.Metrics.bump (op_handle t ep);
  if not (Network.reachable t.net from dst) then begin
    (* The callee is already known-dead (or unreachable): the failure
       detector answers after one detection latency. *)
    Sim.Engine.sleep eng (Network.sample_latency t.net);
    record t "%s: %s.%s -> unreachable" from dst ep.ep_name;
    Sim.Metrics.incr (Network.metrics t.net) "rpc.unreachable";
    Health.note_failure (Network.health t.net) ~dst ~now:(Sim.Engine.now eng);
    Error Unreachable
  end
  else begin
    let register resume =
      (* By the time a crash of [dst] fires the watch, the crash has
         already taken it off the watch list. *)
      let watch =
        Network.watch_crash t.net dst (fun () -> resume (Ok (Error Crashed)))
      in
      let finish r =
        Network.unwatch t.net watch;
        resume (Ok r)
      in
      (* Answers only resume the caller, so they arrive without a fiber. *)
      let answer r = Network.reply t.net ~src:dst ~dst:from (fun () -> finish r) in
      Network.send t.net ~src:from ~dst
        (guard_duplicate t ~from ~dst (fun () ->
             (* Deadline propagation: the caller's deadline rides in the
                request metadata. If the initiator has already given up by
                the time the request is unpacked, running the handler is
                pure waste — a shedding server answers [Timed_out] at once
                instead of holding locks for a doomed round. Live only
                under a gray-failure profile ({!Network.hedged}); without
                one the deadline is carried but never acted on. *)
             (* Cooperative hedge cancellation: if the race this copy
                belongs to has already settled, the delivery is dropped
                before the handler runs — indistinguishable from a lost
                message, which the protocols already tolerate. This is
                what keeps hedging safe around 2PC ordering: without it a
                slow losing prepare could arrive AFTER the backup's round
                committed and re-stage a ghost intent for a finished
                action. *)
             let dead =
               match cancelled with Some f -> f () | None -> false
             in
             let expired =
               match deadline_at with
               | Some d -> Network.hedged t.net && Sim.Engine.now eng > d
               | None -> false
             in
             if dead then begin
               Sim.Metrics.incr (Network.metrics t.net) "rpc.hedge_cancelled";
               record t "%s: dropped cancelled hedge copy %s.%s" dst from
                 ep.ep_name;
               answer (Error Timed_out)
             end
             else if expired then begin
               Sim.Metrics.incr (Network.metrics t.net) "retry.shed_expired";
               record t "%s: shed expired call %s.%s" dst from ep.ep_name;
               answer (Error Timed_out)
             end
             else
               match Hashtbl.find t.services (dst, ep.ep_name) with
               | exception Not_found -> answer (Error No_service)
               | raw ->
                   raw (ep.inject_req req) ~reply:(fun resp_payload ->
                       Network.reply t.net ~src:dst ~dst:from (fun () ->
                           match ep.project_resp resp_payload with
                           | Some resp -> finish (Ok resp)
                           | None ->
                               failwith
                                 (Printf.sprintf
                                    "Rpc.call: response type mismatch on %s"
                                    ep.ep_name)))))
    in
    let dt = match timeout with Some dt -> dt | None -> t.default_timeout in
    let outcome =
      match Sim.Engine.timeout eng dt register with
      | Ok r -> r
      | Error _ -> Error Timed_out
    in
    (* Latency-health feed: every completed round trip teaches the health
       plane how [dst] is doing. Pure arithmetic — no draws, no events —
       so it is always on. *)
    let now = Sim.Engine.now eng in
    (match outcome with
    | Ok _ ->
        Health.note_ok (Network.health t.net) ~dst ~now ~latency:(now -. start)
    | Error e ->
        (match e with
        | No_service -> ()
        | Unreachable | Crashed | Timed_out ->
            Health.note_failure (Network.health t.net) ~dst ~now);
        record t "%s: %s.%s -> %s" from dst ep.ep_name (error_to_string e);
        Sim.Metrics.incr (Network.metrics t.net) (error_counter e));
    outcome
  end

(* Sibling routing, live under the [Autonomic] profile only: a sustainedly
   slow destination's backup copy goes to the healthiest other member of
   its replica set, unless that one is sustainedly slow too. *)
let sibling t ~replicas dst =
  match Network.gray_failure t.net with
  | None | Some Network.Hedged -> None
  | Some Network.Autonomic ->
      let h = Network.health t.net in
      let now = Sim.Engine.now (Network.engine t.net) in
      if Health.sustained_slow h ~now dst then
        match Health.rank h ~now (List.filter (fun s -> s <> dst) replicas) with
        | best :: _ when not (Health.sustained_slow h ~now best) -> Some best
        | _ -> None
      else None

(* Hedged call: give the primary a head start derived from fleet-healthy
   latency; if it has not answered by then, race a backup and take the
   first [Ok]. The backup goes to the sibling {!sibling} picks from
   [replicas], if any, or re-sends to the same destination (per-message
   brownout inflation makes even a same-node retry a fresh latency
   draw). A duplicate delivery can
   run the handler twice — each hedge carries a fresh request id, below the
   dedup guard — so only idempotent operations may be hedged; and once the
   race settles, copies still in flight are cancelled cooperatively at
   delivery (the [cancelled] probe above), so a slow loser can never run
   the handler after the winner's round already moved the protocol on.
   A win by the sibling is not [dst]'s answer: it settles the race as
   [Error Timed_out]. *)
let hedged_call t ~from ~dst ?replicas ~keep_primary ?timeout ?deadline_at ep
    req =
  let eng = Network.engine t.net in
  let alt = Option.bind replicas (fun replicas -> sibling t ~replicas dst) in
  let backup_dst = match alt with Some a -> a | None -> dst in
  let delay = Health.hedge_delay (Network.health t.net) in
  let iv = Sim.Ivar.create () in
  let launched = ref 0 in
  let outstanding = ref 0 in
  let group = Sim.Engine.self_group eng in
  let settle ~backup r =
    match r with
    | Ok _ ->
        let by_sibling = backup && alt <> None in
        if Sim.Ivar.try_fill iv (if by_sibling then Error Timed_out else r)
           && by_sibling
        then Sim.Metrics.incr (Network.metrics t.net) "rpc.sibling_wins"
    | Error _ ->
        decr outstanding;
        (* Keep the last error only once no copy can still answer. *)
        if !outstanding = 0 && !launched = 2 then
          ignore (Sim.Ivar.try_fill iv r)
  in
  let cancelled () = Sim.Ivar.is_filled iv in
  (* [keep_primary] exempts the primary copy from cooperative
     cancellation when the backup went to a sibling: a phase-2 decision
     must STILL be delivered to (and applied by) the primary store — the
     sibling's quick answer only lets the gather stop waiting; it does not
     make the primary's copy of the decision redundant, because the
     sibling resolves its own intent, not the primary's. Dropping the
     primary's copy would strand its prepared intent until a
     crash-recovery decision query that a merely-slow (never crashed)
     store never issues. Prepares cancel both copies: an unapplied
     prepare on the primary is harmless (the caller counts the leg failed
     and §4.2-excludes the store for this action). *)
  let primary_cancelled =
    if keep_primary && alt <> None then None else Some cancelled
  in
  incr launched;
  incr outstanding;
  Sim.Engine.spawn eng ~group ~name:("rpc.hedge." ^ ep.ep_name) (fun () ->
      settle ~backup:false
        (call_gen t ~from ~dst ?cancelled:primary_cancelled ?timeout
           ?deadline_at ep req));
  Sim.Engine.schedule eng ~delay (fun () ->
      incr launched;
      (* Before this point [settle] can only have filled the ivar with an
         [Ok] (errors wait for launched = 2), so a filled ivar means the
         primary won and the backup that never fires costs nothing. An
         unfilled ivar means the primary is still in flight — or already
         failed, in which case the backup doubles as a straight retry. *)
      if not (Sim.Ivar.is_filled iv) then begin
        incr outstanding;
        Sim.Metrics.incr (Network.metrics t.net) "rpc.hedges";
        Sim.Engine.spawn eng ~group
          ~name:("rpc.hedge.backup." ^ ep.ep_name)
          (fun () ->
            settle ~backup:true
              (call_gen t ~from ~dst:backup_dst ~cancelled ?timeout
                 ?deadline_at ep req))
      end);
  Sim.Ivar.read eng iv

let call t ~from ~dst ?(idempotent = false) ?timeout ?deadline_at ep req =
  if idempotent && Network.hedged t.net then
    hedged_call t ~from ~dst ~keep_primary:false ?timeout ?deadline_at ep req
  else call_gen t ~from ~dst ?timeout ?deadline_at ep req

let call_all t ~from ?timeout ?deadline_at ?(idempotent = false) ?replicas
    ?(keep_primary = false) ep reqs =
  (match reqs with
  | [] | [ _ ] -> ()
  | _ ->
      Sim.Metrics.incr (Network.metrics t.net) "rpc.scatters";
      Sim.Metrics.incr (Network.metrics t.net) ~by:(List.length reqs)
        "rpc.scatter_calls");
  let leg =
    if idempotent && Network.hedged t.net then
      fun dst req ->
        hedged_call t ~from ~dst ?replicas ~keep_primary ?timeout
          ?deadline_at ep req
    else fun dst req -> call_gen t ~from ~dst ?timeout ?deadline_at ep req
  in
  Sim.Join.all (Network.engine t.net)
    (List.map (fun (dst, req) () -> (dst, leg dst req)) reqs)

(* A first-answer race over replicas: the first [Some] in [nodes] order
   from a plain gather, or under a gray-failure profile a tiered race,
   healthiest first, where task [i] launches [i] hedge delays after the
   first, so a healthy head answers before the sick tail is ever asked. *)
let first_answer t nodes ask =
  let eng = Network.engine t.net in
  if Network.hedged t.net then
    let h = Network.health t.net in
    let ranked = Health.rank h ~now:(Sim.Engine.now eng) nodes in
    Sim.Join.hedged eng ~delay:(Health.hedge_delay h)
      (List.map (fun m () -> ask m) ranked)
  else
    Sim.Join.all eng (List.map (fun m () -> ask m) nodes)
    |> List.find_map Fun.id

let notify t ~from ~dst ep req =
  Sim.Metrics.incr (Network.metrics t.net) "rpc.notifies";
  if Network.reachable t.net from dst then
    Network.send t.net ~src:from ~dst
      (guard_duplicate t ~from ~dst (fun () ->
           match Hashtbl.find t.services (dst, ep.ep_name) with
           | exception Not_found -> ()
           | raw -> raw (ep.inject_req req) ~reply:(fun _ -> ())))
