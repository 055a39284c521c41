type owner = string

type waiter = {
  w_owner : owner;
  w_mode : Mode.t;
  w_resume : unit Sim.Engine.resumer;
  mutable w_cancelled : bool;
}

type entry = {
  mutable held : (owner * Mode.t) list; (* unordered *)
  queue : waiter Queue.t;
}

module Keys = Set.Make (String)
module Tbl = Hashtbl.Make (String)

type counters = {
  granted : Sim.Metrics.handle;
  granted_after_wait : Sim.Metrics.handle;
  reentrant : Sim.Metrics.handle;
  promoted : Sim.Metrics.handle;
  promotion_refused : Sim.Metrics.handle;
  waited : Sim.Metrics.handle;
  timed_out : Sim.Metrics.handle;
  released : Sim.Metrics.handle;
}

(* [entries] holds only keys with a holder or a live waiter: an entry is
   dropped when its last holder and last waiter leave. [by_owner] maps each
   owner to the keys it holds or waits on, so ending an action visits only
   its own keys. Every server instance owns a manager, so both tables start
   at the minimum size. *)
type t = {
  eng : Sim.Engine.t;
  entries : entry Tbl.t;
  by_owner : Keys.t Tbl.t;
  counters : counters option;
}

let create ?metrics eng =
  let counters =
    Option.map
      (fun m ->
        let h = Sim.Metrics.handle m in
        {
          granted = h "lock.granted";
          granted_after_wait = h "lock.granted_after_wait";
          reentrant = h "lock.reentrant";
          promoted = h "lock.promoted";
          promotion_refused = h "lock.promotion_refused";
          waited = h "lock.waited";
          timed_out = h "lock.timeout";
          released = h "lock.released";
        })
      metrics
  in
  { eng; entries = Tbl.create 1; by_owner = Tbl.create 1; counters }

let bump t pick =
  match t.counters with Some c -> Sim.Metrics.bump (pick c) | None -> ()

let index_add t owner key =
  match Tbl.find_opt t.by_owner owner with
  | Some keys ->
      if not (Keys.mem key keys) then Tbl.replace t.by_owner owner (Keys.add key keys)
  | None -> Tbl.add t.by_owner owner (Keys.singleton key)

let index_remove t owner key =
  match Tbl.find_opt t.by_owner owner with
  | None -> ()
  | Some keys ->
      let keys = Keys.remove key keys in
      if Keys.is_empty keys then Tbl.remove t.by_owner owner
      else Tbl.replace t.by_owner owner keys

let held_mode e owner =
  List.assoc_opt owner e.held

let waits_on e owner =
  (not (Queue.is_empty e.queue))
  && Queue.fold
       (fun found w -> found || ((not w.w_cancelled) && String.equal w.w_owner owner))
       false e.queue

let involved e owner = List.mem_assoc owner e.held || waits_on e owner

(* Drop [key]'s entry once nobody holds or waits on it. The table's entry
   must be [e] itself: a waiting fiber keeps its entry across the wait, and
   by the time it wakes that entry may have been dropped and replaced, so
   removing by key alone could delete the live entry of a later holder. *)
let drop_if_idle t key e =
  if e.held = [] && Queue.is_empty e.queue then
    match Tbl.find_opt t.entries key with
    | Some live when live == e -> Tbl.remove t.entries key
    | _ -> ()

(* Hierarchical action ids: "c:1.2" is a descendant of "c:1". A nested
   action may share its ancestors' locks (Arjuna lock inheritance); the
   lock it acquires is recorded in its own name and folds back into the
   parent on nested commit via [transfer_all]. *)
let is_descendant ~ancestor owner =
  let la = String.length ancestor in
  String.length owner > la
  && String.sub owner 0 la = ancestor
  && owner.[la] = '.'

(* A request is grantable when compatible with every holder other than the
   requester itself (merging its own weaker lock) and the requester's
   ancestors (inheriting theirs). *)
let grantable e ~owner ~mode =
  List.for_all
    (fun (o, m) ->
      String.equal o owner || is_descendant ~ancestor:o owner
      || Mode.compatible m mode)
    e.held

let install e ~owner ~mode =
  let merged =
    match held_mode e owner with
    | Some old -> Mode.strongest old mode
    | None -> mode
  in
  e.held <- (owner, merged) :: List.remove_assoc owner e.held

(* A first lock on an untracked key: nobody holds or waits on it. *)
let install_fresh t key ~owner ~mode =
  Tbl.add t.entries key { held = [ (owner, mode) ]; queue = Queue.create () };
  index_add t owner key

(* Wake queued waiters in order; stop at the first one that still cannot be
   granted, preserving queue fairness. Cancelled waiters are discarded. A
   live waiter's owner is indexed under [key] already. *)
let rec service t key e =
  match Queue.peek_opt e.queue with
  | None -> ()
  | Some w when w.w_cancelled ->
      ignore (Queue.pop e.queue);
      service t key e
  | Some w ->
      if grantable e ~owner:w.w_owner ~mode:w.w_mode then begin
        ignore (Queue.pop e.queue);
        install e ~owner:w.w_owner ~mode:w.w_mode;
        w.w_resume (Ok ());
        service t key e
      end

(* Validate-under-mode query: would [owner] get [mode] on [key] right now,
   without installing anything? True when a covering lock is already held,
   or when the request is compatible with every other holder and no earlier
   waiter is queued (the same fairness rule [try_acquire] applies). Pure:
   the lock table is unchanged, so a caller can probe before mutating any
   state the grant would protect. *)
let available t ~owner ~mode key =
  match Tbl.find_opt t.entries key with
  | None -> true
  | Some e -> (
      match held_mode e owner with
      | Some held when Mode.covers held mode -> true
      | Some _ -> grantable e ~owner ~mode
      | None -> Queue.is_empty e.queue && grantable e ~owner ~mode)

let try_acquire t ~owner ~mode key =
  match Tbl.find_opt t.entries key with
  | None ->
      install_fresh t key ~owner ~mode;
      bump t (fun c -> c.granted);
      true
  | Some e -> (
      match held_mode e owner with
      | Some held when Mode.covers held mode ->
          bump t (fun c -> c.reentrant);
          true
      | held ->
          if Queue.is_empty e.queue && grantable e ~owner ~mode then begin
            install e ~owner ~mode;
            if Option.is_none held then index_add t owner key;
            bump t (fun c -> c.granted);
            true
          end
          else false)

let wait t key e ~owner ~mode ?timeout () =
  bump t (fun c -> c.waited);
  let waiter = ref None in
  let register resume =
    let w = { w_owner = owner; w_mode = mode; w_resume = resume; w_cancelled = false } in
    waiter := Some w;
    Queue.push w e.queue;
    index_add t owner key
  in
  let outcome =
    match timeout with
    | None -> Ok (Sim.Engine.suspend t.eng register)
    | Some dt -> (
        match Sim.Engine.timeout t.eng dt register with
        | Ok () -> Ok ()
        | Error _ -> Error `Timeout)
  in
  (match outcome with
  | Ok () -> bump t (fun c -> c.granted_after_wait)
  | Error `Timeout -> (
      bump t (fun c -> c.timed_out);
      match !waiter with
      | Some w -> (
          w.w_cancelled <- true;
          (* Our dead entry may have been blocking the queue head. *)
          service t key e;
          (* No drop here: a waiter queues only behind a holder, so [e]
             still has one — or [e] was dropped while we waited, and the
             table's entry for [key], if any, belongs to later requests. *)
          match Tbl.find_opt t.entries key with
          | Some live when involved live owner -> ()
          | _ -> index_remove t owner key)
      | None -> ()));
  outcome

let acquire t ~owner ~mode ?timeout key =
  match Tbl.find_opt t.entries key with
  | None ->
      install_fresh t key ~owner ~mode;
      bump t (fun c -> c.granted);
      Ok ()
  | Some e -> (
      match held_mode e owner with
      | Some held when Mode.covers held mode ->
          bump t (fun c -> c.reentrant);
          Ok ()
      | Some _ ->
          (* Non-covering re-request while holding a weaker lock: waiting
             could self-deadlock (we would wait for our own lock), so treat
             it as an immediate promotion attempt. *)
          if grantable e ~owner ~mode then begin
            install e ~owner ~mode;
            bump t (fun c -> c.promoted);
            Ok ()
          end
          else begin
            bump t (fun c -> c.promotion_refused);
            Error `Timeout
          end
      | None ->
          if Queue.is_empty e.queue && grantable e ~owner ~mode then begin
            install e ~owner ~mode;
            index_add t owner key;
            bump t (fun c -> c.granted);
            Ok ()
          end
          else wait t key e ~owner ~mode ?timeout ())

let promote t ~owner ~to_mode key =
  match Tbl.find_opt t.entries key with
  | None -> false
  | Some e -> (
      match held_mode e owner with
      | None -> false
      | Some held when Mode.covers held to_mode -> true
      | Some _ ->
          if grantable e ~owner ~mode:to_mode then begin
            install e ~owner ~mode:to_mode;
            bump t (fun c -> c.promoted);
            true
          end
          else begin
            bump t (fun c -> c.promotion_refused);
            false
          end)

let release t ~owner key =
  match Tbl.find_opt t.entries key with
  | None -> ()
  | Some e ->
      if List.mem_assoc owner e.held then begin
        e.held <- List.remove_assoc owner e.held;
        bump t (fun c -> c.released);
        service t key e;
        if not (involved e owner) then index_remove t owner key;
        drop_if_idle t key e
      end

(* Take [owner]'s key set out of the index and visit its keys that still
   have an entry, in key order. *)
let take_keys t owner f =
  match Tbl.find_opt t.by_owner owner with
  | None -> ()
  | Some keys ->
      Tbl.remove t.by_owner owner;
      Keys.iter
        (fun key ->
          match Tbl.find_opt t.entries key with
          | Some e -> f key e
          | None -> ())
        keys

let release_all t ~owner =
  take_keys t owner (fun key e ->
      Queue.iter
        (fun w -> if String.equal w.w_owner owner then w.w_cancelled <- true)
        e.queue;
      if List.mem_assoc owner e.held then begin
        e.held <- List.remove_assoc owner e.held;
        bump t (fun c -> c.released)
      end;
      service t key e;
      drop_if_idle t key e)

let release_everything ?(keep = fun _ -> false) t =
  Tbl.reset t.by_owner;
  Tbl.filter_map_inplace
    (fun key e ->
      Queue.iter (fun w -> w.w_cancelled <- true) e.queue;
      Queue.clear e.queue;
      e.held <- List.filter (fun (o, _) -> keep o) e.held;
      List.iter (fun (o, _) -> index_add t o key) e.held;
      if e.held = [] then None else Some e)
    t.entries

(* A transfer can make a queued descendant of [to_owner] grantable (it now
   inherits the lock), so each visited key is serviced. *)
let transfer_all t ~from_owner ~to_owner =
  take_keys t from_owner (fun key e ->
      (match List.assoc_opt from_owner e.held with
      | None -> ()
      | Some m ->
          e.held <- List.remove_assoc from_owner e.held;
          install e ~owner:to_owner ~mode:m;
          index_add t to_owner key);
      service t key e;
      if waits_on e from_owner then index_add t from_owner key)

let holds t ~owner key =
  match Tbl.find_opt t.entries key with
  | None -> None
  | Some e -> held_mode e owner

let holders t key =
  match Tbl.find_opt t.entries key with
  | None -> []
  | Some e -> List.sort (fun (a, _) (b, _) -> String.compare a b) e.held

let waiting t key =
  match Tbl.find_opt t.entries key with
  | None -> 0
  | Some e ->
      Queue.fold (fun n w -> if w.w_cancelled then n else n + 1) 0 e.queue

let tracked_keys t =
  Tbl.fold (fun key _ acc -> key :: acc) t.entries [] |> List.sort String.compare

let all_held t =
  List.map (fun key -> (key, holders t key)) (tracked_keys t)

let locked_keys t ~owner =
  match Tbl.find_opt t.by_owner owner with
  | None -> []
  | Some keys -> List.filter (fun key -> holds t ~owner key <> None) (Keys.elements keys)
