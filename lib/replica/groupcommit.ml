(* The coordinator-side group-commit plane.

   Concurrent commit copy-backs from the same runtime that target
   overlapping store sets merge into one batch, which pays ONE prepare
   round and ONE phase-2 round per store for every member (each round
   carries the members' per-action sub-records, see
   {!Action.Store_host.prepare_all}) instead of one per member.
   Everything transactional stays per action at the store — voting,
   write reservations, intent-log staging, recovery, duplicate delivery —
   so a refused member ([Vote_stale], [Vote_delta_miss], or a
   transport error on one store) is peeled out for an ordinary solo
   retry while its batchmates proceed untouched.

   Window discipline (the use-list flush's quiescence-pull pattern): an
   opening batch holds its leader for at most [window] simulated time,
   and closes early the moment no commit that could still join is in
   flight. "Could still join" is tracked by an approaching counter:
   {!enter} (called when commit processing starts) raises it, the
   member's prepare arrival (or an early exit — abort, read-optimised
   commit) lowers it; at zero every open batch's close ivar fills.
   Phase-2 symmetrically: {!expect_phase2} registers a sealed commit
   whose phase 2 is still to come, and the phase-2 batch closes early
   when no registered commit remains outstanding.

   Leadership and orphans: the first member to open a batch leads it —
   its fiber waits out the window and issues the scatter, distributing
   per-member results through ivars. Members bound their wait
   ([window + grace]): if the leader's client crashed mid-window they
   fall back to a solo prepare/commit (both idempotent at the store), so
   a chaos world cannot wedge a batchmate forever.

   Every commit goes through the plane ({!Replica.Commit.attach}); a
   batch that closes with one member scatters the same rounds with one
   sub-record each, carrying that member's deadline and sibling map. *)

type member = {
  m_client : Net.Network.node_id;
  m_action : string;
  m_writes :
    (Net.Network.node_id * (Store.Uid.t * Action.Store_host.write) list) list;
  m_alt : (Net.Network.node_id -> Net.Network.node_id option) option;
      (* the member's sibling-hedge map (see {!Replica.Commit}); only the
         scatters issued on this member's own behalf use it — a
         multi-member prepare never alt-routes (see
         {!Action.Store_host.prepare_all}) *)
  m_deadline : float option;
      (* the member's action deadline; like [m_alt], carried only by the
         scatters issued on this member's own behalf *)
  m_votes :
    (Net.Network.node_id * (Action.Store_host.vote, Net.Rpc.error) result) list
    Sim.Ivar.t;
}

type batch = {
  mutable b_open : bool;
  mutable b_members : member list; (* newest first; the last is the leader *)
  mutable b_stores : Net.Network.node_id list; (* union, join order *)
  b_close : unit Sim.Ivar.t;
}

type p2_member = {
  p_client : Net.Network.node_id;
  p_action : string;
  p_stores : Net.Network.node_id list;
  p_alt : (Net.Network.node_id -> Net.Network.node_id option) option;
  p_acks :
    (Net.Network.node_id * (unit, Net.Rpc.error) result) list Sim.Ivar.t;
}

type p2_batch = {
  mutable pb_open : bool;
  mutable pb_members : p2_member list;
  mutable pb_stores : Net.Network.node_id list;
  pb_close : unit Sim.Ivar.t;
}

type t = {
  gc_eng : Sim.Engine.t;
  gc_sh : Action.Store_host.t;
  gc_metrics : Sim.Metrics.t;
  mutable gc_approaching : int; (* commits between enter and their prepare *)
  mutable gc_expecting : int; (* sealed commits whose phase 2 is pending *)
  mutable gc_batches : batch list; (* open phase-1 batches, oldest first *)
  mutable gc_p2 : p2_batch list; (* open phase-2 batches, oldest first *)
}

(* How long an opening batch holds its leader for joiners, in simulated
   time (closing early on quiescence). *)
let window = 2.0

(* A member that died (client crash) or fell back solo must not leave its
   batchmates waiting past this; generous so it never fires in a healthy
   world (the leader always answers within [window]). *)
let orphan_grace = 90.0

let create ~engine ~store_host ~metrics =
  {
    gc_eng = engine;
    gc_sh = store_host;
    gc_metrics = metrics;
    gc_approaching = 0;
    gc_expecting = 0;
    gc_batches = [];
    gc_p2 = [];
  }

(* Under a gray-failure profile every store scatter issued from this plane
   is hedged: all of them are idempotent at the store. *)
let gc_hedge t =
  if Net.Network.hedged (Net.Rpc.network (Action.Store_host.rpc t.gc_sh)) then
    Some (Net.Rpc.hedge ())
  else None

(* Quiescence-pull: no in-flight commit can join any longer, so every
   open batch may close now rather than wait out its window. *)
let pull_close t =
  List.iter
    (fun b -> if b.b_open then ignore (Sim.Ivar.try_fill b.b_close ()))
    t.gc_batches

let pull_close2 t =
  List.iter
    (fun b -> if b.pb_open then ignore (Sim.Ivar.try_fill b.pb_close ()))
    t.gc_p2

type token = { mutable tk_counted : bool }

let enter t =
  t.gc_approaching <- t.gc_approaching + 1;
  { tk_counted = true }

let leave t tok =
  if tok.tk_counted then begin
    tok.tk_counted <- false;
    t.gc_approaching <- t.gc_approaching - 1;
    if t.gc_approaching = 0 then pull_close t
  end

let expect_phase2 t = t.gc_expecting <- t.gc_expecting + 1

let settle_phase2 t =
  t.gc_expecting <- t.gc_expecting - 1;
  if t.gc_expecting = 0 then pull_close2 t

let union stores extra =
  stores @ List.filter (fun s -> not (List.mem s stores)) extra

let overlaps stores others = List.exists (fun s -> List.mem s others) stores

(* Drop a batch a member found abandoned (its leader's client crashed
   before scattering) so later commits stop joining a queue nobody will
   ever drain. *)
let abandon t batch =
  if batch.b_open then begin
    batch.b_open <- false;
    t.gc_batches <- List.filter (fun b -> b != batch) t.gc_batches
  end

let abandon2 t batch =
  if batch.pb_open then begin
    batch.pb_open <- false;
    t.gc_p2 <- List.filter (fun b -> b != batch) t.gc_p2
  end

(* Leader duty, phase 1: close the batch, issue one prepare round per
   store in the union, and hand each member its own per-store votes. A
   batch of one carries its member's deadline and sibling map, so a lone
   commit's rounds are exactly those of an unbatched commit. A
   multi-member round carries no deadline — one member's expiry must not
   shed its batchmates' prepares — and never alt-routes. *)
let scatter t batch =
  batch.b_open <- false;
  t.gc_batches <- List.filter (fun b -> b != batch) t.gc_batches;
  let members = List.rev batch.b_members in
  match members with
  | [] -> ()
  | leader :: rest ->
      let deadline_at, alt_of =
        if rest = [] then (leader.m_deadline, leader.m_alt)
        else begin
          Sim.Metrics.incr t.gc_metrics "groupcommit.batches";
          Sim.Metrics.observe t.gc_metrics "groupcommit.batch_members"
            (float_of_int (List.length members));
          (None, None)
        end
      in
      let stores =
        List.fold_left (fun acc m -> union acc (List.map fst m.m_writes)) []
          members
      in
      let reqs =
        List.map
          (fun store ->
            ( store,
              List.filter_map
                (fun m ->
                  Option.map
                    (fun ws ->
                      {
                        Action.Store_host.pr_action = m.m_action;
                        pr_coordinator = m.m_client;
                        pr_writes = ws;
                      })
                    (List.assoc_opt store m.m_writes))
                members ))
          stores
      in
      let results =
        Action.Store_host.prepare_all t.gc_sh ~from:leader.m_client
          ?hedge:(gc_hedge t) ?deadline_at ?alt_of reqs
      in
      List.iter
        (fun m ->
          Sim.Ivar.fill m.m_votes
            (List.map
               (fun (store, _) ->
                 ( store,
                   match List.assoc_opt store results with
                   | None -> Error Net.Rpc.No_service
                   | Some r -> Action.Store_host.vote_of ~action:m.m_action r ))
               m.m_writes))
        members

let solo_prepare t ?deadline_at ?alt_of ~client ~action writes =
  Action.Store_host.prepare_each t.gc_sh ~from:client ?hedge:(gc_hedge t)
    ?deadline_at ?alt_of ~action ~coordinator:client writes

let all_yes votes =
  votes <> []
  && List.for_all
       (fun (_, v) ->
         match v with Ok (Action.Store_host.Vote_yes _) -> true | _ -> false)
       votes

(* A member's phase-1: join (or open) a batch, lead it if first, and wait
   for the distributed votes. Any vote short of all-yes on a multi-member
   batch peels this member out: the batch votes are discarded and the
   member re-runs the ordinary solo prepare from its own node — a genuine
   conflict then aborts on the solo verdict exactly as an unbatched
   commit would, and a delta miss flows into the caller's usual
   reseed-and-retry, while the batchmates' staged prepares are untouched.
   (Duplicate prepare delivery is idempotent at the store:
   {!Store.Intent_log.prepare} replaces.) *)
let prepare t tok ?deadline_at ?alt_of ~client ~action writes =
  let stores = List.map fst writes in
  let m =
    {
      m_client = client;
      m_action = action;
      m_writes = writes;
      m_alt = alt_of;
      m_deadline = deadline_at;
      m_votes = Sim.Ivar.create ();
    }
  in
  let leading, batch =
    match
      List.find_opt
        (fun b -> b.b_open && overlaps stores b.b_stores)
        t.gc_batches
    with
    | Some b ->
        b.b_members <- m :: b.b_members;
        b.b_stores <- union b.b_stores stores;
        (false, b)
    | None ->
        let b =
          {
            b_open = true;
            b_members = [ m ];
            b_stores = stores;
            b_close = Sim.Ivar.create ();
          }
        in
        t.gc_batches <- t.gc_batches @ [ b ];
        (true, b)
  in
  (* This commit has arrived; if it was the last one approaching, every
     open batch (including the one just joined) may close early. *)
  leave t tok;
  if leading then begin
    (match Sim.Ivar.read_timeout t.gc_eng window batch.b_close with
    | Ok () -> Sim.Metrics.incr t.gc_metrics "groupcommit.pulled_closes"
    | Error _ -> Sim.Metrics.incr t.gc_metrics "groupcommit.window_closes");
    scatter t batch
  end;
  match
    Sim.Ivar.read_timeout t.gc_eng (window +. orphan_grace) m.m_votes
  with
  | Error _ ->
      Sim.Metrics.incr t.gc_metrics "groupcommit.orphaned";
      abandon t batch;
      solo_prepare t ?deadline_at ?alt_of ~client ~action writes
  | Ok votes ->
      let batched = List.length batch.b_members > 1 in
      if (not batched) || all_yes votes then votes
      else begin
        Sim.Metrics.incr t.gc_metrics "groupcommit.peels";
        solo_prepare t ?deadline_at ?alt_of ~client ~action writes
      end

(* Leader duty, phase 2: one commit round per store, under the leader's
   sibling map (safe for any batch size: an action unknown to the sibling
   resolves as a no-op there), then hand each member its per-store
   acks. *)
let scatter2 t batch =
  batch.pb_open <- false;
  t.gc_p2 <- List.filter (fun b -> b != batch) t.gc_p2;
  let members = List.rev batch.pb_members in
  match members with
  | [] -> ()
  | leader :: _ ->
      let stores =
        List.fold_left (fun acc m -> union acc m.p_stores) [] members
      in
      let reqs =
        List.map
          (fun store ->
            ( store,
              List.filter_map
                (fun m ->
                  if List.mem store m.p_stores then Some m.p_action else None)
                members ))
          stores
      in
      let results =
        Action.Store_host.commit_all t.gc_sh ~from:leader.p_client
          ?hedge:(gc_hedge t) ?alt_of:leader.p_alt reqs
      in
      List.iter
        (fun m ->
          Sim.Ivar.fill m.p_acks
            (List.map
               (fun store ->
                 ( store,
                   Option.value ~default:(Error Net.Rpc.No_service)
                     (List.assoc_opt store results) ))
               m.p_stores))
        members

(* Batched phase 2 for a commit registered with {!expect_phase2}. Runs in
   the committing fiber (a 2PC participant's commit closure); the same
   join/lead/orphan discipline as phase 1. *)
let commit t ?alt_of ~client ~stores action =
  let m =
    {
      p_client = client;
      p_action = action;
      p_stores = stores;
      p_alt = alt_of;
      p_acks = Sim.Ivar.create ();
    }
  in
  let leading, batch =
    match
      List.find_opt (fun b -> b.pb_open && overlaps stores b.pb_stores) t.gc_p2
    with
    | Some b ->
        b.pb_members <- m :: b.pb_members;
        b.pb_stores <- union b.pb_stores stores;
        (false, b)
    | None ->
        let b =
          {
            pb_open = true;
            pb_members = [ m ];
            pb_stores = stores;
            pb_close = Sim.Ivar.create ();
          }
        in
        t.gc_p2 <- t.gc_p2 @ [ b ];
        (true, b)
  in
  (* Settle only after joining, so the quiescence-pull this settlement
     may trigger reaches the batch just joined (mirrors phase 1, where
     [leave] runs after the join for the same reason). *)
  settle_phase2 t;
  if leading then begin
    (match Sim.Ivar.read_timeout t.gc_eng window batch.pb_close with
    | Ok () -> Sim.Metrics.incr t.gc_metrics "groupcommit.pulled_closes"
    | Error _ -> Sim.Metrics.incr t.gc_metrics "groupcommit.window_closes");
    scatter2 t batch
  end;
  match
    Sim.Ivar.read_timeout t.gc_eng (window +. orphan_grace) m.p_acks
  with
  | Ok acks -> acks
  | Error _ ->
      Sim.Metrics.incr t.gc_metrics "groupcommit.orphaned";
      abandon2 t batch;
      Action.Store_host.commit_all t.gc_sh ~from:client ?hedge:(gc_hedge t)
        ?alt_of
        (List.map (fun store -> (store, [ action ])) stores)

(* Phase-2 abort of a commit registered with {!expect_phase2}: aborts are
   rare, so they go out unbatched — but the registration must still
   settle or phase-2 quiescence-pull would stall at a count that never
   drains. *)
let abort t ?alt_of ~client ~stores action =
  settle_phase2 t;
  Action.Store_host.abort_all t.gc_sh ~from:client ?hedge:(gc_hedge t) ?alt_of
    ~stores action
