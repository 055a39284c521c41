(* The coordinator-side group-commit plane.

   Concurrent commit copy-backs from the same runtime that target
   overlapping store sets merge into one batch, which pays ONE prepare
   round and ONE phase-2 round per store for every member (each round
   carries the members' per-action sub-records, see
   {!Action.Store_host.prepare_all}) instead of one per member.
   Everything transactional stays per action at the store — voting,
   write reservations, intent-log staging, recovery, duplicate delivery —
   so a refused member ([Vote_stale], or a
   transport error on one store) is peeled out for an ordinary solo
   retry while its batchmates proceed untouched.

   Window discipline (the use-list flush's quiescence-pull pattern): an
   opening batch holds its leader for at most [window] simulated time,
   and closes early the moment no commit that could still join is in
   flight. "Could still join" is tracked per phase by a pending count of
   tokens: {!enter} (called when commit processing starts) issues a
   phase-1 token, the member's prepare arrival (or an early exit — abort,
   read-optimised commit) settles it; at zero every open batch of the
   phase closes. Phase-2 symmetrically: {!expect_phase2} issues a token
   for a sealed commit whose phase 2 is still to come, settled by its
   {!commit} or {!abort}. A client's crash kills its committing fibers
   before they can settle anything, so the plane counts each client's
   tokens apart and releases them from a crash hook; otherwise one
   crash mid-commit would hold every later batch for the full window.

   Leadership and orphans: the first member to open a batch leads it —
   its fiber waits out the window and issues the scatter, distributing
   per-member results through ivars. Members bound their wait
   ([window + grace]): if the leader's client crashed mid-window they
   fall back to a solo prepare/commit (both idempotent at the store), so
   a chaos world cannot wedge a batchmate forever.

   Every commit goes through the plane ({!Replica.Commit.attach}); a
   batch that closes with one member scatters the same rounds with one
   sub-record each, carrying that member's deadline and [St]. *)

type member = {
  m_client : Net.Network.node_id;
  m_action : string;
  m_writes :
    (Net.Network.node_id * (Store.Uid.t * Store.Object_state.t) list) list;
  m_st : Net.Network.node_id list;
      (* the member's [St], whose siblings may serve its legs' backup
         copies; only the scatters issued on this member's own behalf pass
         it — a multi-member prepare never sibling-routes (see
         {!Action.Store_host.prepare_all}) *)
  m_deadline : float option;
      (* the member's action deadline; like [m_st], carried only by the
         scatters issued on this member's own behalf *)
  m_votes :
    (Net.Network.node_id * (Action.Store_host.vote, Net.Rpc.error) result) list
    Sim.Ivar.t;
}

type p2_member = {
  p_client : Net.Network.node_id;
  p_action : string;
  p_stores : Net.Network.node_id list;
  p_st : Net.Network.node_id list;
  p_done : unit Sim.Ivar.t;
}

type 'm batch = {
  mutable b_open : bool;
  mutable b_members : 'm list; (* newest first; the last is the leader *)
  mutable b_stores : Net.Network.node_id list; (* union, join order *)
  b_close : unit Sim.Ivar.t;
}

(* One phase of the plane: its outstanding tokens and its open batches,
   oldest first. *)
type 'm phase = {
  mutable ph_pending : int;
  mutable ph_batches : 'm batch list;
}

(* One client's part of the two phases' pending counts. *)
type share = { mutable s_p1 : int; mutable s_p2 : int }

type t = {
  gc_eng : Sim.Engine.t;
  gc_sh : Action.Store_host.t;
  gc_metrics : Sim.Metrics.t;
  gc_p1 : member phase; (* commits between enter and their prepare *)
  gc_p2 : p2_member phase; (* sealed commits whose phase 2 is pending *)
  gc_shares : (Net.Network.node_id, share) Hashtbl.t;
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
    gc_p1 = { ph_pending = 0; ph_batches = [] };
    gc_p2 = { ph_pending = 0; ph_batches = [] };
    gc_shares = Hashtbl.create 16;
  }

(* Quiescence-pull: no in-flight commit can join any longer, so every
   open batch may close now rather than wait out its window. *)
let pull ph =
  List.iter
    (fun b -> if b.b_open then ignore (Sim.Ivar.try_fill b.b_close ()))
    ph.ph_batches

type token = { tk_share : share; tk_phase2 : bool; mutable tk_counted : bool }

let drop ph n =
  if n > 0 then begin
    ph.ph_pending <- ph.ph_pending - n;
    if ph.ph_pending = 0 then pull ph
  end

(* A crashed client's fibers never resume, so none of its tokens will be
   settled by their holder: release them all at once. *)
let release t sh =
  let p1 = sh.s_p1 and p2 = sh.s_p2 in
  sh.s_p1 <- 0;
  sh.s_p2 <- 0;
  drop t.gc_p1 p1;
  drop t.gc_p2 p2

let share t client =
  match Hashtbl.find t.gc_shares client with
  | sh -> sh
  | exception Not_found ->
      let sh = { s_p1 = 0; s_p2 = 0 } in
      Hashtbl.add t.gc_shares client sh;
      Net.Network.on_crash
        (Net.Rpc.network (Action.Store_host.rpc t.gc_sh))
        client
        (fun () -> release t sh);
      sh

let enter t ~client =
  let sh = share t client in
  sh.s_p1 <- sh.s_p1 + 1;
  t.gc_p1.ph_pending <- t.gc_p1.ph_pending + 1;
  { tk_share = sh; tk_phase2 = false; tk_counted = true }

let expect_phase2 t ~client =
  let sh = share t client in
  sh.s_p2 <- sh.s_p2 + 1;
  t.gc_p2.ph_pending <- t.gc_p2.ph_pending + 1;
  { tk_share = sh; tk_phase2 = true; tk_counted = true }

let leave t tok =
  if tok.tk_counted then begin
    tok.tk_counted <- false;
    let sh = tok.tk_share in
    if tok.tk_phase2 then begin
      sh.s_p2 <- sh.s_p2 - 1;
      drop t.gc_p2 1
    end
    else begin
      sh.s_p1 <- sh.s_p1 - 1;
      drop t.gc_p1 1
    end
  end

let union stores extra =
  stores @ List.filter (fun s -> not (List.mem s stores)) extra

let overlaps stores others = List.exists (fun s -> List.mem s others) stores

(* Take a batch out of the joinable set: its leader scatters it, or a
   member found it abandoned (its leader's client crashed before
   scattering) and later commits must stop joining a queue nobody will
   ever drain. *)
let close ph batch =
  if batch.b_open then begin
    batch.b_open <- false;
    ph.ph_batches <- List.filter (fun b -> b != batch) ph.ph_batches
  end

(* A member's arrival: join the oldest open batch whose stores overlap
   [stores] (or open one), settle the member's token — only after
   joining, so the quiescence-pull this settlement may trigger reaches the
   batch just joined — and, when leading, wait out the window and
   [scatter] the members, leader first. *)
let arrive t ph tok ~stores m ~scatter =
  let leading, batch =
    match
      List.find_opt
        (fun b -> b.b_open && overlaps stores b.b_stores)
        ph.ph_batches
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
        ph.ph_batches <- ph.ph_batches @ [ b ];
        (true, b)
  in
  leave t tok;
  if leading then begin
    (match Sim.Ivar.read_timeout t.gc_eng window batch.b_close with
    | Ok () -> Sim.Metrics.incr t.gc_metrics "groupcommit.pulled_closes"
    | Error _ -> Sim.Metrics.incr t.gc_metrics "groupcommit.window_closes");
    close ph batch;
    scatter (List.rev batch.b_members)
  end;
  batch

(* A member that waited past [window + orphan_grace] for its leader. *)
let orphaned t ph batch =
  Sim.Metrics.incr t.gc_metrics "groupcommit.orphaned";
  close ph batch

(* Leader duty, phase 1: issue one prepare round per store in the union,
   and hand each member its own per-store votes. A batch of one carries
   its member's deadline and [St], so a lone commit's rounds are exactly
   those of an unbatched commit. A multi-member round carries no
   deadline — one member's expiry must not shed its batchmates'
   prepares — and never sibling-routes. *)
let scatter t members =
  match members with
  | [] -> ()
  | leader :: rest ->
      let deadline_at, st =
        if rest = [] then (leader.m_deadline, Some leader.m_st)
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
          ?deadline_at ?st reqs
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

let solo_prepare t ?deadline_at ~st ~client ~action writes =
  Action.Store_host.prepare_each t.gc_sh ~from:client ?deadline_at ~st ~action
    ~coordinator:client writes

let all_yes votes =
  votes <> []
  && List.for_all
       (fun (_, v) ->
         match v with Ok Action.Store_host.Vote_yes -> true | _ -> false)
       votes

(* A member's phase-1: join (or open) a batch, lead it if first, and wait
   for the distributed votes. Any vote short of all-yes on a multi-member
   batch peels this member out: the batch votes are discarded and the
   member re-runs the ordinary solo prepare from its own node — a genuine
   conflict then aborts on the solo verdict exactly as an unbatched
   commit would, while the batchmates' staged prepares are untouched.
   (Duplicate prepare delivery is idempotent at the store:
   {!Store.Intent_log.prepare} replaces.) *)
let prepare t tok ?deadline_at ~st ~client ~action writes =
  let m =
    {
      m_client = client;
      m_action = action;
      m_writes = writes;
      m_st = st;
      m_deadline = deadline_at;
      m_votes = Sim.Ivar.create ();
    }
  in
  let batch =
    arrive t t.gc_p1 tok ~stores:(List.map fst writes) m ~scatter:(scatter t)
  in
  match
    Sim.Ivar.read_timeout t.gc_eng (window +. orphan_grace) m.m_votes
  with
  | Error _ ->
      orphaned t t.gc_p1 batch;
      solo_prepare t ?deadline_at ~st ~client ~action writes
  | Ok votes ->
      let batched = List.length batch.b_members > 1 in
      if (not batched) || all_yes votes then votes
      else begin
        Sim.Metrics.incr t.gc_metrics "groupcommit.peels";
        solo_prepare t ?deadline_at ~st ~client ~action writes
      end

(* Leader duty, phase 2: one commit round per store, under the leader's
   [St] (safe for any batch size: an action unknown to the sibling
   resolves as a no-op there), then release every member. *)
let scatter2 t members =
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
      ignore
        (Action.Store_host.commit_all t.gc_sh ~from:leader.p_client
           ~st:leader.p_st reqs);
      List.iter (fun m -> Sim.Ivar.fill m.p_done ()) members

(* Batched phase 2 for a commit holding an {!expect_phase2} token. Runs in
   the committing fiber (a 2PC participant's commit closure); the same
   join/lead/orphan discipline as phase 1. *)
let commit t tok ~st ~client ~stores action =
  let m =
    {
      p_client = client;
      p_action = action;
      p_stores = stores;
      p_st = st;
      p_done = Sim.Ivar.create ();
    }
  in
  let batch = arrive t t.gc_p2 tok ~stores m ~scatter:(scatter2 t) in
  match
    Sim.Ivar.read_timeout t.gc_eng (window +. orphan_grace) m.p_done
  with
  | Ok () -> ()
  | Error _ ->
      orphaned t t.gc_p2 batch;
      ignore
        (Action.Store_host.commit_all t.gc_sh ~from:client ~st
           (List.map (fun store -> (store, [ action ])) stores))

(* Phase-2 abort: aborts are rare, so they go out unbatched — but the
   token must still settle or phase-2 quiescence-pull would stall at a
   count that never drains. *)
let abort t tok ~st ~client ~stores action =
  leave t tok;
  ignore (Action.Store_host.abort_all t.gc_sh ~from:client ~st ~stores action)
