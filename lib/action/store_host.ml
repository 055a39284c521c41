type host = { h_objects : Store.Object_store.t; h_log : Store.Intent_log.t }

type read_req = Store.Uid.t

type delta = {
  d_impl : string;
  d_base : int;
  d_steps : (Store.Version.t * string list) list; (* oldest first, contiguous *)
}

type write = Full of Store.Object_state.t | Delta of delta

type prepare_req = {
  pr_action : string;
  pr_coordinator : string;
  pr_writes : (Store.Uid.t * write) list;
}

(* A yes vote piggybacks, per prepared object, the committed counter the
   store held when it staged the write (-1 = nothing yet): coordinators
   fold these levels into a shared per-(store,object) floor so even a
   client that never committed here before can base its next copy-back on
   a delta. The counter is pre-stage — the post-commit level is learned
   from the phase-2 acknowledgement as before. *)
type vote =
  | Vote_yes of (Store.Uid.t * int) list
  | Vote_stale
  | Vote_delta_miss of int

type t = {
  rpc_rt : Net.Rpc.t;
  hosts : (Net.Network.node_id, host) Hashtbl.t;
  mutable prepare_hook :
    (node:Net.Network.node_id -> action:string -> coordinator:string -> unit)
    option;
  mutable reservation_hook :
    (node:Net.Network.node_id -> blockers:(string * string) list -> unit)
    option;
  (* Folds one operation over a payload under a named implementation;
     [None] refuses (unknown implementation, or the op failed to apply).
     Installed by the world-assembly layer from the object-implementation
     registry: stores sit below the replica layer and cannot reach the
     registry themselves. Unset means every delta prepare misses. *)
  mutable delta_applier :
    (impl:string -> payload:string -> op:string -> string option) option;
  ep_read : (read_req, Store.Object_state.t option) Net.Rpc.endpoint;
  ep_prepare : (prepare_req, vote) Net.Rpc.endpoint;
  ep_commit : (string, unit) Net.Rpc.endpoint;
  ep_abort : (string, unit) Net.Rpc.endpoint;
  ep_decision : (string, Store.Intent_log.decision option) Net.Rpc.endpoint;
  (* Group-commit plane: one prepare (resp. commit) round carrying the
     sub-records of every batch member that writes this store. Voting,
     staging and idempotence stay per action — the batched handlers just
     run the per-action logic sub-record by sub-record. *)
  ep_prepare_batch : (prepare_req list, (string * vote) list) Net.Rpc.endpoint;
  ep_commit_batch : (string list, (Store.Uid.t * int) list) Net.Rpc.endpoint;
  ep_floors : (unit, (Store.Uid.t * int) list) Net.Rpc.endpoint;
}

let create rpc_rt =
  {
    rpc_rt;
    hosts = Hashtbl.create 16;
    prepare_hook = None;
    reservation_hook = None;
    delta_applier = None;
    ep_read = Net.Rpc.endpoint "store.read";
    ep_prepare = Net.Rpc.endpoint "store.prepare";
    ep_commit = Net.Rpc.endpoint "store.commit";
    ep_abort = Net.Rpc.endpoint "store.abort";
    ep_decision = Net.Rpc.endpoint "store.decision";
    ep_prepare_batch = Net.Rpc.endpoint "store.prepare_batch";
    ep_commit_batch = Net.Rpc.endpoint "store.commit_batch";
    ep_floors = Net.Rpc.endpoint "store.floors";
  }

let rpc t = t.rpc_rt

let nodes t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.hosts [] |> List.sort String.compare

let host t node =
  match Hashtbl.find_opt t.hosts node with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Store_host: no store on %s" node)

let apply_commit h action =
  (match Store.Intent_log.prepared h.h_log ~action with
  | None -> () (* already applied: idempotent *)
  | Some { Store.Intent_log.writes; _ } ->
      List.iter
        (fun (uid, state) ->
          (* Skip stale states so recovery replays are safe. *)
          let stale =
            match Store.Object_store.read h.h_objects uid with
            | Some existing -> Store.Object_state.newer_than existing state
            | None -> false
          in
          if not stale then Store.Object_store.write h.h_objects uid state)
        writes);
  Store.Intent_log.resolve h.h_log ~action

(* Resolve a wire write to the full state the intent log will stage.

   A [Full] write passes through. A [Delta] folds its op suffix over the
   store's committed payload — but only when the suffix's base version is
   exactly what the store holds (a lower base would re-apply history, a
   higher one would skip it) and every step is present, contiguous, and
   applies cleanly. Anything else is a {e delta miss}, answered with the
   store's committed counter so the coordinator can reseed its vector and
   ship full state. The resolved state is staged like any full write:
   phase 2, in-doubt resolution and recovery replay see no difference.

   Re-delivery safety: a duplicate delta prepare before the commit
   re-folds over the unchanged committed payload to the identical staged
   state ({!Store.Intent_log.prepare} replaces); one arriving after the
   commit finds the store already at the delta's target version and
   resolves to the store's own state — the delta counterpart of the full
   path's same-version replay acceptance. *)
let resolve_write t h = function
  | uid, Full state -> Ok (uid, state, `Full)
  | uid, Delta d -> (
      let current = Store.Object_store.read h.h_objects uid in
      let committed_counter =
        match current with
        | Some e -> e.Store.Object_state.version.Store.Version.counter
        | None -> -1
      in
      let target =
        match List.rev d.d_steps with
        | (v, _) :: _ -> Some v
        | [] -> None
      in
      let contiguous =
        let rec check prev = function
          | [] -> true
          | ((v : Store.Version.t), ops) :: rest ->
              ops <> []
              && (match prev with
                 | None -> v.counter = d.d_base + 1
                 | Some p -> Store.Version.follows v p)
              && check (Some v) rest
        in
        check None d.d_steps
      in
      match (current, target) with
      | Some existing, Some target
        when Store.Version.equal existing.Store.Object_state.version target ->
          Ok (uid, existing, `Delta)
      | Some existing, Some _
        when committed_counter = d.d_base && contiguous -> (
          match t.delta_applier with
          | None -> Error (uid, committed_counter)
          | Some apply -> (
              let folded =
                List.fold_left
                  (fun acc (_, ops) ->
                    Option.bind acc (fun payload ->
                        List.fold_left
                          (fun acc op ->
                            Option.bind acc (fun payload ->
                                apply ~impl:d.d_impl ~payload ~op))
                          (Some payload) ops))
                  (Some existing.Store.Object_state.payload)
                  d.d_steps
              in
              match (folded, target) with
              | Some payload, Some version ->
                  Ok (uid, Store.Object_state.make ~payload ~version, `Delta)
              | _ -> Error (uid, committed_counter)))
      | _ -> Error (uid, committed_counter))

(* The phase-1 handler, shared verbatim between the solo [store.prepare]
   endpoint and the batched [store.prepare_batch] one (which folds it over
   its sub-records): validation, reservations, staging, hooks and traces
   are identical either way, so a batch of one is indistinguishable from a
   solo prepare at the store. *)
let prepare_one t h node { pr_action; pr_coordinator; pr_writes } =
      let netw = Net.Rpc.network t.rpc_rt in
      let resolved, misses =
        List.fold_left
          (fun (resolved, misses) w ->
            match resolve_write t h w with
            | Ok r -> (r :: resolved, misses)
            | Error m -> (resolved, m :: misses))
          ([], []) pr_writes
      in
      let resolved = List.rev resolved and misses = List.rev misses in
      match misses with
      | (uid, counter) :: _ ->
          Sim.Metrics.incr (Net.Network.metrics netw) "store.delta_misses";
          Sim.Trace.recordf (Net.Network.trace netw)
            ~now:(Sim.Engine.now (Net.Network.engine netw)) ~tag:"store"
            "%s: %s delta miss on %s (store at %d)" node pr_action
            (Store.Uid.to_string uid) counter;
          Vote_delta_miss counter
      | [] ->
      (* Backward validation: each write must be the direct successor of
         the committed state (or recreate the same version during a
         recovery replay). A gap or a sibling version means the writer
         activated from a stale state. Delta-resolved writes already
         proved succession (their op chain starts at the committed
         counter), including multi-step chains a full write could not
         validate. *)
      let valid (uid, state, origin) =
        match origin with
        | `Delta -> true
        | `Full -> (
            match Store.Object_store.read h.h_objects uid with
            | None -> true
            | Some existing ->
                let incoming = state.Store.Object_state.version.Store.Version.counter in
                let current = existing.Store.Object_state.version.Store.Version.counter in
                incoming = current + 1 || incoming = current && Store.Object_state.equal state existing)
      in
      (* A pending prepare of another action is a write reservation:
         admitting a second writer for the same object would let two
         version-(n+1) siblings both commit (the apply order, not the
         validation, would then pick the survivor). *)
      let reserved (uid, _, _) =
        List.exists
          (fun a -> not (String.equal a pr_action))
          (Store.Intent_log.pending_writers h.h_log uid)
      in
      List.iter
        (fun ((uid, state, _) as w) ->
          if not (valid w) then
            Sim.Trace.recordf (Net.Network.trace netw)
              ~now:(Sim.Engine.now (Net.Network.engine netw)) ~tag:"store"
              "%s: %s stale prepare of %s (incoming %s vs stored %s)" node
              pr_action (Store.Uid.to_string uid)
              (Store.Version.to_string state.Store.Object_state.version)
              (match Store.Object_store.read h.h_objects uid with
              | Some e -> Store.Version.to_string e.Store.Object_state.version
              | None -> "none")
          else if reserved w then
            Sim.Trace.recordf (Net.Network.trace netw)
              ~now:(Sim.Engine.now (Net.Network.engine netw)) ~tag:"store"
              "%s: %s blocked by reservation of [%s] on %s" node pr_action
              (String.concat ","
                 (List.filter
                    (fun a -> not (String.equal a pr_action))
                    (Store.Intent_log.pending_writers h.h_log uid)))
              (Store.Uid.to_string uid))
        resolved;
      if List.for_all valid resolved && not (List.exists reserved resolved)
      then begin
        Store.Intent_log.prepare h.h_log ~action:pr_action
          ~coordinator:pr_coordinator
          (List.map (fun (uid, state, _) -> (uid, state)) resolved);
        (match t.prepare_hook with
        | Some hook ->
            hook ~node ~action:pr_action ~coordinator:pr_coordinator
        | None -> ());
        Vote_yes
          (List.map
             (fun (uid, _, _) ->
               ( uid,
                 match Store.Object_store.read h.h_objects uid with
                 | Some e ->
                     e.Store.Object_state.version.Store.Version.counter
                 | None -> -1 ))
             resolved)
      end
      else begin
        (* If the refusal came from another action's write reservation,
           report the blockers (with their coordinators) so in-doubt
           resolution can break reservations whose coordinator is
           partitioned away — a crash fires [prepare_hook]'s watch, but a
           partition severs the abort fan-out without killing anyone. *)
        (match t.reservation_hook with
        | None -> ()
        | Some hook ->
            let blockers =
              List.sort_uniq compare
                (List.concat_map
                   (fun (uid, _, _) ->
                     List.filter_map
                       (fun a ->
                         if String.equal a pr_action then None
                         else
                           Option.map
                             (fun { Store.Intent_log.coordinator; _ } ->
                               (a, coordinator))
                             (Store.Intent_log.prepared h.h_log ~action:a))
                       (Store.Intent_log.pending_writers h.h_log uid))
                   resolved)
            in
            if blockers <> [] then hook ~node ~blockers);
        Vote_stale
      end

(* The committed counter of every object this store holds: the acked-floor
   gossip payload. Batched phase-2 acks carry it (post-apply), and the
   anti-entropy round reads it directly, so coordinators can reseed the
   shared per-(store,object) floor without ever having written here. *)
let floors_of h =
  List.map
    (fun uid ->
      ( uid,
        match Store.Object_store.read h.h_objects uid with
        | Some e -> e.Store.Object_state.version.Store.Version.counter
        | None -> -1 ))
    (Store.Object_store.uids h.h_objects)

let add t node =
  if Hashtbl.mem t.hosts node then
    invalid_arg (Printf.sprintf "Store_host.add: %s already hosted" node);
  let h = { h_objects = Store.Object_store.create (); h_log = Store.Intent_log.create () } in
  Hashtbl.add t.hosts node h;
  Net.Rpc.serve t.rpc_rt ~node t.ep_read (fun uid ->
      Store.Object_store.read h.h_objects uid);
  Net.Rpc.serve t.rpc_rt ~node t.ep_prepare (fun req -> prepare_one t h node req);
  Net.Rpc.serve t.rpc_rt ~node t.ep_prepare_batch (fun reqs ->
      List.map (fun req -> (req.pr_action, prepare_one t h node req)) reqs);
  Net.Rpc.serve t.rpc_rt ~node t.ep_commit (fun action -> apply_commit h action);
  Net.Rpc.serve t.rpc_rt ~node t.ep_commit_batch (fun actions ->
      List.iter (fun action -> apply_commit h action) actions;
      floors_of h);
  Net.Rpc.serve t.rpc_rt ~node t.ep_floors (fun () -> floors_of h);
  Net.Rpc.serve t.rpc_rt ~node t.ep_abort (fun action ->
      Store.Intent_log.resolve h.h_log ~action);
  Net.Rpc.serve t.rpc_rt ~node t.ep_decision (fun action ->
      Store.Intent_log.decision_of h.h_log ~action)

let hosted t node = Hashtbl.mem t.hosts node

let objects t node = (host t node).h_objects
let log t node = (host t node).h_log

let seed t node uid state = Store.Object_store.write (host t node).h_objects uid state

let read t ~from ~store uid = Net.Rpc.call t.rpc_rt ~from ~dst:store t.ep_read uid

let full_writes writes = List.map (fun (uid, state) -> (uid, Full state)) writes

let prepare t ~from ~store ~action ~coordinator writes =
  Net.Rpc.call t.rpc_rt ~from ~dst:store t.ep_prepare
    {
      pr_action = action;
      pr_coordinator = coordinator;
      pr_writes = full_writes writes;
    }

let commit t ~from ~store ~action = Net.Rpc.call t.rpc_rt ~from ~dst:store t.ep_commit action

let abort t ~from ~store ~action = Net.Rpc.call t.rpc_rt ~from ~dst:store t.ep_abort action

(* The 2PC fan-outs below accept a hedging policy and a propagated
   deadline: prepare records the same intent twice idempotently (replays
   return the recorded vote), commit/abort resolve an intent-log entry
   idempotently, so a hedged duplicate delivery is harmless.

   With [?alt_of] (sibling-hedge routing), a leg whose destination the
   caller maps to a sibling [St] member races its backup copy against
   THAT node instead of re-rolling the sick destination's dice. The
   sibling holds the same replicated object, so its handler does the
   same work its own leg does (prepare replaces per-action; phase-2
   resolves idempotently) — but its answer is NOT the primary's: a
   sibling win is reported as [Error Timed_out] for the leg, which the
   commit layer already handles (§4.2 exclude-on-failure at prepare,
   conservative floor forgetting at phase-2). The payoff is purely
   latency: the gather stops waiting on the browned node after one
   healthy round trip instead of one inflated one. *)

let scatter_alt t ~from ?hedge ?deadline_at ?alt_of ~keep_primary ep reqs =
  match (hedge, alt_of) with
  | Some h, Some altf when List.exists (fun (d, _) -> altf d <> None) reqs ->
      let netw = Net.Rpc.network t.rpc_rt in
      (match reqs with
      | [] | [ _ ] -> ()
      | _ ->
          Sim.Metrics.incr (Net.Network.metrics netw) "rpc.scatters";
          Sim.Metrics.incr (Net.Network.metrics netw) ~by:(List.length reqs)
            "rpc.scatter_calls");
      Sim.Join.all (Net.Network.engine netw)
        (List.map
           (fun (dst, req) () ->
             match altf dst with
             | None ->
                 ( dst,
                   Net.Rpc.call_hedged t.rpc_rt ~from ~dst ?deadline_at
                     ~hedge:h ep req )
             | Some alt ->
                 let won = ref false in
                 let r =
                   Net.Rpc.call_hedged t.rpc_rt ~from ~dst ~alt ~keep_primary
                     ~alt_won:won ?deadline_at ~hedge:h ep req
                 in
                 (dst, if !won then Error Net.Rpc.Timed_out else r))
           reqs)
  | _ -> Net.Rpc.call_all t.rpc_rt ~from ?hedge ?deadline_at ep reqs

let prepare_each t ~from ?hedge ?deadline_at ?alt_of ~action ~coordinator
    writes =
  scatter_alt t ~from ?hedge ?deadline_at ?alt_of ~keep_primary:false
    t.ep_prepare
    (List.map
       (fun (store, ws) ->
         (store, { pr_action = action; pr_coordinator = coordinator; pr_writes = ws }))
       writes)

let commit_all t ~from ?hedge ?deadline_at ?alt_of ~stores action =
  scatter_alt t ~from ?hedge ?deadline_at ?alt_of ~keep_primary:true
    t.ep_commit
    (List.map (fun store -> (store, action)) stores)

let abort_all t ~from ?hedge ?deadline_at ?alt_of ~stores action =
  scatter_alt t ~from ?hedge ?deadline_at ?alt_of ~keep_primary:true
    t.ep_abort
    (List.map (fun store -> (store, action)) stores)

(* Batched prepares are NEVER sibling-routed: one store's batch can carry
   sub-records of actions whose [St] does not include the sibling, and a
   sibling staging such an intent would hold it forever (its phase-2
   fan-out never visits a non-member). Batched phase-2 is safe — an
   unknown action resolves as a no-op — so [commit_batch] takes the alt
   map while [prepare_batch] keeps same-node backups. *)
let prepare_batch t ~from ?hedge ?deadline_at per_store =
  Net.Rpc.call_all t.rpc_rt ~from ?hedge ?deadline_at t.ep_prepare_batch
    per_store

let commit_batch t ~from ?hedge ?deadline_at ?alt_of per_store =
  scatter_alt t ~from ?hedge ?deadline_at ?alt_of ~keep_primary:true
    t.ep_commit_batch per_store

let floors_all t ~from ~stores =
  Net.Rpc.call_all t.rpc_rt ~from t.ep_floors
    (List.map (fun store -> (store, ())) stores)

let decision t ~from ~coordinator ~action =
  Net.Rpc.call t.rpc_rt ~from ~dst:coordinator t.ep_decision action

let set_prepare_hook t hook = t.prepare_hook <- Some hook
let set_reservation_hook t hook = t.reservation_hook <- Some hook
let set_delta_applier t applier = t.delta_applier <- Some applier

let record_decision t ~node ~action d =
  Store.Intent_log.record_decision (host t node).h_log ~action d
