(* The coordinator-side group-commit plane.

   Concurrent commit copy-backs from the same runtime that target
   overlapping store sets merge into one batch, which pays ONE prepare
   round and ONE phase-2 round per store for every member (each round
   carries the members' per-action sub-records, see
   {!Action.Store_host.prepare_all}) instead of one per member.
   Everything transactional stays per action at the store — voting,
   write reservations, intent-log staging, recovery, duplicate delivery —
   so a refused member ([Vote_stale], or a transport error on one store)
   is peeled out to prepare again in a batch of one while its batchmates
   proceed untouched.

   Window discipline (the use-list flush's quiescence-pull pattern): an
   opening batch holds its leader for at most [window] simulated time,
   and closes early the moment no commit that could still join is in
   flight. "Could still join" is tracked per phase by a pending count of
   tokens: {!enter} (called when commit processing starts) issues a
   phase-1 token, the member's prepare arrival (or an early exit — abort,
   read-optimised commit) settles it; at zero every open batch of the
   phase closes. Phase-2 symmetrically: {!expect_phase2} issues a token
   when a commit first joins phase 1, since its phase 2 is then still to
   come, settled by its {!commit}, or by {!leave} if the action aborts
   instead. A client's
   crash kills its committing fibers before they can settle anything, so
   the plane counts each client's tokens apart and releases them from a
   crash hook; otherwise one crash mid-commit would hold every later
   batch for the full window.

   A member whose action's object has waiters (the contention flag of
   the commit view on its invocation reply) closes its batch at once,
   in either phase, once it is in it: the server holds the object's
   lock until phase 2, so the waiters would pay for the window too. The tokens of those very
   waiters, taken at their first write invocation, would otherwise hold
   the batch open for commits that cannot come until the lock goes.

   Leadership and orphans: the first member to open a batch leads it —
   its fiber waits out the window and issues the phase's round,
   distributing per-member results through ivars. The two phases differ
   only in that round (a prepare or a commit per store). Members bound
   their wait ([window + grace]): if the leader's client crashed
   mid-window they run the same round as a batch of one (idempotent at
   the store), so a chaos world cannot wedge a batchmate forever.

   Every commit goes through the plane ({!Replica.Commit.attach}); a
   batch that closes with one member scatters the same rounds with one
   sub-record each, carrying that member's deadline. *)

(* One action's passage through one phase: its sub-record per store (the
   states it writes there; phase 2 sends only the action's name), and
   the ivar through which its leader hands it one result per store, in
   [m_subs] order. *)
type 'res member = {
  m_client : Net.Network.node_id;
  m_action : string;
  m_subs :
    (Net.Network.node_id * (Store.Uid.t * Store.Object_state.t) list) list;
  m_deadline : float option;
      (* the member's action deadline, carried only by a round issued on
         this member's own behalf; phase 2 carries none *)
  m_results :
    (Net.Network.node_id * ('res, Net.Rpc.error) result) list Sim.Ivar.t;
}

(* Why a batch closed before its window ran out. *)
type early = Pulled | Waited_on

type 'm batch = {
  mutable b_open : bool;
  mutable b_members : 'm list; (* newest first; the last is the leader *)
  b_close : early Sim.Ivar.t;
}

(* One phase of the plane: its outstanding tokens, its open batches,
   oldest first, and the store round it scatters. A round issues one
   call per store in its members' union, from [from] and carrying
   [deadline_at], and answers a function handing each member its
   results. *)
type 'res phase = {
  mutable ph_pending : int;
  mutable ph_batches : 'res member batch list;
  ph_round :
    from:Net.Network.node_id ->
    deadline_at:float option ->
    'res member list ->
    'res member ->
    (Net.Network.node_id * ('res, Net.Rpc.error) result) list;
  ph_counted : bool; (* a multi-member batch counts in the batch metrics *)
}

(* One client's part of the two phases' pending counts. *)
type share = { mutable s_p1 : int; mutable s_p2 : int }

type t = {
  gc_eng : Sim.Engine.t;
  gc_sh : Action.Store_host.t;
  gc_metrics : Sim.Metrics.t;
  gc_p1 : Action.Store_host.vote phase;
      (* commits between enter and their prepare *)
  gc_p2 : unit phase; (* sealed commits whose phase 2 is pending *)
  gc_shares : (Net.Network.node_id, share) Hashtbl.t;
}

(* How long an opening batch holds its leader for joiners, in simulated
   time (closing early on quiescence). *)
let window = 2.0

(* A member whose leader died (client crash) waits no longer than this
   past the window; generous so it never fires in a healthy world (the
   leader always answers within [window]). *)
let orphan_grace = 90.0

(* The stores of [members]' sub-records, in order of first appearance. *)
let stores_of members =
  List.rev
    (List.fold_left
       (fun acc m ->
         List.fold_left
           (fun acc (store, _) ->
             if List.mem store acc then acc else store :: acc)
           acc m.m_subs)
       [] members)

(* One request per store of [members], listing [req m sub] for every
   member [m] with a sub-record [sub] there, in member order. *)
let requests members req =
  List.map
    (fun store ->
      ( store,
        List.filter_map
          (fun m ->
            match List.assoc store m.m_subs with
            | sub -> Some (req m sub)
            | exception Not_found -> None)
          members ))
    (stores_of members)

(* [m]'s result per store, [result] of the store's answer. *)
let hand_out m answers result =
  List.map
    (fun (store, _) ->
      ( store,
        match List.assoc store answers with
        | answer -> result answer
        | exception Not_found -> Error Net.Rpc.No_service ))
    m.m_subs

(* Phase 1's round: one prepare per store; each member's vote comes out
   of the store's per-action answer. *)
let prepare_round sh ~from ~deadline_at members =
  let answers =
    Action.Store_host.prepare_all sh ~from ?deadline_at
      (requests members (fun m writes ->
           {
             Action.Store_host.pr_action = m.m_action;
             pr_coordinator = m.m_client;
             pr_writes = writes;
           }))
  in
  fun m -> hand_out m answers (Action.Store_host.vote_of ~action:m.m_action)

(* Phase 2's round: one commit per store, applying its members' intents.
   It carries no deadline: a decided outcome must reach the stores even
   when the initiator stopped waiting. *)
let commit_round sh ~from ~deadline_at:_ members =
  let answers =
    Action.Store_host.commit_all sh ~from
      (requests members (fun m _ -> m.m_action))
  in
  fun m -> hand_out m answers Fun.id

let create ~engine ~store_host ~metrics =
  let phase round ~counted =
    {
      ph_pending = 0;
      ph_batches = [];
      ph_round = round store_host;
      ph_counted = counted;
    }
  in
  {
    gc_eng = engine;
    gc_sh = store_host;
    gc_metrics = metrics;
    gc_p1 = phase prepare_round ~counted:true;
    gc_p2 = phase commit_round ~counted:false;
    gc_shares = Hashtbl.create 16;
  }

(* Quiescence-pull: no in-flight commit can join any longer, so every
   open batch may close now rather than wait out its window. *)
let pull ph =
  List.iter
    (fun b -> if b.b_open then ignore (Sim.Ivar.try_fill b.b_close Pulled))
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

(* Does [m] write a store that some member of [b] writes? *)
let overlaps m b =
  List.exists
    (fun (store, _) ->
      List.exists (fun o -> List.mem_assoc store o.m_subs) b.b_members)
    m.m_subs

(* Take a batch out of the joinable set: its leader scatters it, or a
   member found it abandoned (its leader's client crashed before
   scattering) and later commits must stop joining a queue nobody will
   ever drain. *)
let close ph batch =
  if batch.b_open then begin
    batch.b_open <- false;
    ph.ph_batches <- List.filter (fun b -> b != batch) ph.ph_batches
  end

(* Leader duty: issue the phase's round for the members, leader first,
   and hand each its own results. A batch of one carries its member's
   deadline, so a lone commit's rounds are exactly those of an unbatched
   commit. A multi-member round carries no deadline — one member's
   expiry must not shed its batchmates' sub-records. *)
let scatter t ph members =
  match members with
  | [] -> ()
  | leader :: rest ->
      let deadline_at =
        if rest = [] then leader.m_deadline
        else begin
          if ph.ph_counted then begin
            Sim.Metrics.incr t.gc_metrics "groupcommit.batches";
            Sim.Metrics.observe t.gc_metrics "groupcommit.batch_members"
              (float_of_int (List.length members))
          end;
          None
        end
      in
      let results = ph.ph_round ~from:leader.m_client ~deadline_at members in
      List.iter (fun m -> Sim.Ivar.fill m.m_results (results m)) members

(* [m]'s sub-records as a batch of one, outside the plane's batches. *)
let solo ph m = ph.ph_round ~from:m.m_client ~deadline_at:m.m_deadline [ m ] m

(* A member's passage through [ph]: join the oldest open batch that
   shares a store with it (or open one), close it at once if [contended]
   (another action waits on the lock this member's action holds), settle
   its token — only after joining, so the quiescence-pull this settlement
   may trigger reaches the batch just joined — lead the batch if first,
   and wait for its results. Returns them and whether the batch had more
   than one member. A member whose leader has not answered within
   [window + orphan_grace] (its client crashed before scattering) closes
   the abandoned batch and runs its sub-records as a batch of one. *)
let join t ph tok ~contended m =
  let leading, batch =
    match
      List.find_opt (fun b -> b.b_open && overlaps m b) ph.ph_batches
    with
    | Some b ->
        b.b_members <- m :: b.b_members;
        (false, b)
    | None ->
        let b = { b_open = true; b_members = [ m ]; b_close = Sim.Ivar.create () } in
        ph.ph_batches <- ph.ph_batches @ [ b ];
        (true, b)
  in
  if contended then ignore (Sim.Ivar.try_fill batch.b_close Waited_on);
  leave t tok;
  if leading then begin
    (match Sim.Ivar.read_timeout t.gc_eng window batch.b_close with
    | Ok Pulled -> Sim.Metrics.incr t.gc_metrics "groupcommit.pulled_closes"
    | Ok Waited_on -> Sim.Metrics.incr t.gc_metrics "groupcommit.waiter_closes"
    | Error _ -> Sim.Metrics.incr t.gc_metrics "groupcommit.window_closes");
    close ph batch;
    scatter t ph (List.rev batch.b_members)
  end;
  match
    Sim.Ivar.read_timeout t.gc_eng (window +. orphan_grace) m.m_results
  with
  | Ok results -> (results, List.length batch.b_members > 1)
  | Error _ ->
      Sim.Metrics.incr t.gc_metrics "groupcommit.orphaned";
      close ph batch;
      (solo ph m, false)

let member ?deadline_at ~client ~action subs =
  {
    m_client = client;
    m_action = action;
    m_subs = subs;
    m_deadline = deadline_at;
    m_results = Sim.Ivar.create ();
  }

let all_yes votes =
  votes <> []
  && List.for_all
       (fun (_, v) ->
         match v with Ok Action.Store_host.Vote_yes -> true | _ -> false)
       votes

(* A member's phase 1. Any vote short of all-yes on a multi-member batch
   peels this member out: the batch votes are discarded and the member
   prepares again in a batch of one — a genuine conflict then aborts on
   that verdict exactly as an unbatched commit would, while the
   batchmates' staged prepares are untouched. (Duplicate prepare
   delivery is idempotent at the store: {!Store.Intent_log.prepare}
   replaces.) Also returns the stores whose discarded batch vote was
   yes: they hold the member's stage whatever the retry hears. *)
let prepare t tok ?deadline_at ~contended ~client ~action writes =
  let m = member ?deadline_at ~client ~action writes in
  let votes, batched = join t t.gc_p1 tok ~contended m in
  if (not batched) || all_yes votes then (votes, [])
  else begin
    Sim.Metrics.incr t.gc_metrics "groupcommit.peels";
    let staged =
      List.filter_map
        (function
          | store, Ok Action.Store_host.Vote_yes -> Some store | _ -> None)
        votes
    in
    (solo t.gc_p1 m, staged)
  end

let commit t tok ~contended ~client ~action prepared =
  fst (join t t.gc_p2 tok ~contended (member ~client ~action prepared))
