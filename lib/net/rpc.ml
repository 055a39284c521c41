type error = Unreachable | Crashed | Timed_out | No_service

let error_to_string = function
  | Unreachable -> "unreachable"
  | Crashed -> "crashed"
  | Timed_out -> "timed out"
  | No_service -> "no service"

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

type ('req, 'resp) endpoint = {
  ep_name : string;
  ep_id : int; (* process-unique; keys services and the round counter *)
  inject_req : 'req -> Univ.t;
  project_req : Univ.t -> 'req;
  inject_resp : 'resp -> Univ.t;
  project_resp : Univ.t -> 'resp;
}

let next_endpoint = ref 0

let endpoint name =
  let inject_req, project_req = Univ.embed () in
  let inject_resp, project_resp = Univ.embed () in
  let ep_id = !next_endpoint in
  incr next_endpoint;
  { ep_name = name; ep_id; inject_req; project_req; inject_resp; project_resp }

(* A raw handler takes the request payload and returns the response
   payload, which the caller's side sends back. *)
type raw_handler = Univ.t -> Univ.t

type t = {
  net : Network.t;
  services : (Network.node_id, (int, raw_handler) Hashtbl.t) Hashtbl.t;
      (* per node, per endpoint id: the handler installed there. Keyed by
         id, so endpoints with equal names never meet, and a lookup
         hashes a string and an int instead of building a pair. *)
  mutable next_req : int;
  seen : (Network.node_id, (int, unit) Hashtbl.t) Hashtbl.t;
      (* per destination: the request ids it has already run *)
  calls : Sim.Metrics.handle;
  ops : (int, Sim.Metrics.handle) Hashtbl.t;
      (* per endpoint id: its "rpc.op.<name>" counter. Per world, so a
         world's size does not depend on what ran before it. *)
}

let call_timeout = 60.0

let create net =
  {
    net;
    services = Hashtbl.create 64;
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

let services_at t node =
  match Hashtbl.find t.services node with
  | tbl -> tbl
  | exception Not_found ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.add t.services node tbl;
      tbl

(* The handler of [ep] at [node]. Only calls through [ep] itself reach it,
   so its projections always match. *)
let find_service t node ep = Hashtbl.find (Hashtbl.find t.services node) ep.ep_id

let serve t ~node ep h =
  Hashtbl.replace (services_at t node) ep.ep_id (fun payload ->
      ep.inject_resp (h (ep.project_req payload)))

let withdraw t ~node ep =
  match Hashtbl.find t.services node with
  | tbl -> Hashtbl.remove tbl ep.ep_id
  | exception Not_found -> ()

let serving t ~node ep =
  match Hashtbl.find t.services node with
  | tbl -> Hashtbl.mem tbl ep.ep_id
  | exception Not_found -> false

let record t fmt =
  Sim.Trace.recordf (Network.trace t.net)
    ~now:(Sim.Engine.now (Network.engine t.net))
    ~tag:"rpc" fmt

let error_counter = function
  | Unreachable -> "rpc.unreachable"
  | Crashed -> "rpc.crashed"
  | Timed_out -> "rpc.timed_out"
  | No_service -> "rpc.no_service"

(* The end of a round trip on the caller's side: the crash watch on the
   callee goes, and the caller resumes with [r]. *)
let finish t watch resume r =
  Network.unwatch t.net watch;
  Sim.Engine.resume resume (Ok r)

(* An answer the handler did not give. It only resumes the caller, so it
   arrives without a fiber. Built on these branches alone, so a call that
   runs its handler allocates none of it. *)
let answer t ~from ~dst watch resume r =
  Network.reply t.net ~src:dst ~dst:from (fun () -> finish t watch resume r)

let call_gen t ~from ~dst ?cancelled ?deadline_at ep req =
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
    (match Network.health t.net with
    | Some h -> Health.note_failure h ~dst ~now:(Sim.Engine.now eng)
    | None -> ());
    Error Unreachable
  end
  else begin
    let register resume =
      (* By the time a crash of [dst] fires the watch, the crash has
         already taken it off the watch list. *)
      let watch =
        Network.watch_crash t.net dst (fun () ->
            Sim.Engine.resume resume (Ok (Error Crashed)))
      in
      Network.send t.net ~src:from ~dst
        (guard_duplicate t ~from ~dst (fun () ->
             (* Deadline propagation: the caller's deadline rides in the
                request metadata. If the initiator has already given up by
                the time the request is unpacked, running the handler is
                pure waste — a shedding server answers [Timed_out] at once
                instead of holding locks for a doomed round. *)
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
               | Some d -> Sim.Engine.now (Network.engine t.net) > d
               | None -> false
             in
             if dead then begin
               Sim.Metrics.incr (Network.metrics t.net) "rpc.hedge_cancelled";
               record t "%s: dropped cancelled hedge copy %s.%s" dst from
                 ep.ep_name;
               answer t ~from ~dst watch resume (Error Timed_out)
             end
             else if expired then begin
               Sim.Metrics.incr (Network.metrics t.net) "retry.shed_expired";
               record t "%s: shed expired call %s.%s" dst from ep.ep_name;
               answer t ~from ~dst watch resume (Error Timed_out)
             end
             else
               match find_service t dst ep with
               | exception Not_found ->
                   answer t ~from ~dst watch resume (Error No_service)
               | raw ->
                   let resp = raw (ep.inject_req req) in
                   Network.reply t.net ~src:dst ~dst:from (fun () ->
                       finish t watch resume (Ok (ep.project_resp resp)))))
    in
    (* [timeout] hands back the resumer's argument as is: the [Ok] of a
       settled call wraps the call's own result. *)
    let outcome =
      match Sim.Engine.timeout eng call_timeout register with
      | Ok r -> r
      | Error _ -> Error Timed_out
    in
    (* Latency-health feed: on a hedged network every completed round
       trip teaches the health plane how [dst] is doing. Pure arithmetic —
       no draws, no events. *)
    (match (outcome, Network.health t.net) with
    | Ok _, Some h ->
        Health.note_round_trip h ~dst ~sent:start ~now:(Sim.Engine.now eng)
    | Error (Unreachable | Crashed | Timed_out), Some h ->
        Health.note_failure h ~dst ~now:(Sim.Engine.now eng)
    | _ -> ());
    (match outcome with
    | Ok _ -> ()
    | Error e ->
        record t "%s: %s.%s -> %s" from dst ep.ep_name (error_to_string e);
        Sim.Metrics.incr (Network.metrics t.net) (error_counter e));
    outcome
  end

(* Hedged call: give the primary a head start derived from fleet-healthy
   latency; if it has not answered by then, re-send a backup copy to the
   same destination (per-message brownout inflation makes the re-send a
   fresh latency draw) and take the first [Ok]. A duplicate delivery can
   run the handler twice — each hedge carries a fresh request id, below the
   dedup guard — so only idempotent operations may be hedged; and once the
   race settles, copies still in flight are cancelled cooperatively at
   delivery (the [cancelled] probe above), so a slow loser can never run
   the handler after the winner's round already moved the protocol on. *)
let hedged_call t h ~from ~dst ?deadline_at ep req =
  let eng = Network.engine t.net in
  let delay = Health.hedge_delay h in
  let iv = Sim.Ivar.create () in
  let launched = ref 0 in
  let outstanding = ref 0 in
  let group = Sim.Engine.self_group eng in
  let settle r =
    match r with
    | Ok _ -> ignore (Sim.Ivar.try_fill iv r)
    | Error _ ->
        decr outstanding;
        (* Keep the last error only once no copy can still answer. *)
        if !outstanding = 0 && !launched = 2 then
          ignore (Sim.Ivar.try_fill iv r)
  in
  let cancelled () = Sim.Ivar.is_filled iv in
  let copy () = settle (call_gen t ~from ~dst ~cancelled ?deadline_at ep req) in
  incr launched;
  incr outstanding;
  Sim.Engine.spawn eng ~group ~name:("rpc.hedge." ^ ep.ep_name) copy;
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
          copy
      end);
  Sim.Ivar.read eng iv

let call t ~from ~dst ?(idempotent = false) ?deadline_at ep req =
  match Network.health t.net with
  | Some h when idempotent -> hedged_call t h ~from ~dst ?deadline_at ep req
  | _ -> call_gen t ~from ~dst ?deadline_at ep req

let call_all t ~from ?deadline_at ?(idempotent = false) ep reqs =
  (match reqs with
  | [] | [ _ ] -> ()
  | _ ->
      Sim.Metrics.incr (Network.metrics t.net) "rpc.scatters";
      Sim.Metrics.incr (Network.metrics t.net) ~by:(List.length reqs)
        "rpc.scatter_calls");
  let leg =
    match Network.health t.net with
    | Some h when idempotent ->
        fun dst req -> hedged_call t h ~from ~dst ?deadline_at ep req
    | _ -> fun dst req -> call_gen t ~from ~dst ?deadline_at ep req
  in
  Sim.Join.all (Network.engine t.net)
    (List.map (fun (dst, req) () -> (dst, leg dst req)) reqs)

(* A first-answer race over replicas. A plain gather returns the first
   [Some] in [nodes] order; a hedged network runs a tiered race instead,
   healthiest first, where task [i] launches [i] hedge delays after the
   first, so a healthy head answers before the sick tail is ever asked. *)
let first_answer t nodes ask =
  let eng = Network.engine t.net in
  match Network.health t.net with
  | Some h ->
      let ranked = Health.rank h ~now:(Sim.Engine.now eng) nodes in
      Sim.Join.hedged eng ~delay:(Health.hedge_delay h)
        (List.map (fun m () -> ask m) ranked)
  | None ->
      Sim.Join.all eng (List.map (fun m () -> ask m) nodes)
      |> List.find_map Fun.id

let notify t ~from ~dst ep req =
  Sim.Metrics.incr (Network.metrics t.net) "rpc.notifies";
  if Network.reachable t.net from dst then
    Network.send t.net ~src:from ~dst
      (guard_duplicate t ~from ~dst (fun () ->
           match find_service t dst ep with
           | exception Not_found -> ()
           | raw -> ignore (raw (ep.inject_req req) : Univ.t)))
