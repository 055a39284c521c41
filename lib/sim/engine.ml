(* What a resumption touches: the event heap and its clock, the now-queue,
   and the counts that tell a drain when to stop. Every group points here,
   so a parked fiber's record reaches it without a field of its own. *)
type queue = {
  heap : Heap.t;
  (* The now-queue: a ring buffer of the plain events due at the current
     instant, in push order. Each slot holds the sequence number it took
     from [heap], so [run] can merge it with the heap in (time, seq)
     order, and either a thunk or a parked fiber with the result to resume
     it with. A free slot holds [ignore], [nil] and [unit_result], so no
     thunk or fiber outlives its event. Empty until the first push. *)
  mutable now_seqs : int array;
  mutable now_thunks : (unit -> unit) array;
  mutable now_parked : parked array;
  mutable now_results : Obj.t array;
  mutable now_head : int;
  mutable now_len : int;
  mutable guards : int; (* guards queued in the lanes *)
  mutable suspended : int;
}

and group = { gid : int; mutable alive : bool; q : queue }

(* A parked suspension, which is also its own resumer. It is a node of
   exactly one intrusive doubly linked list, so parking and resuming are
   O(1): a guarded one sits in its guard lane, any other in the leak-audit
   registry, newest first. A node outside its list links to itself, which
   is also the resumer's "already fired" flag, and holds no neighbour
   alive. *)
and parked = {
  p_from : string;
  p_name : string;
  p_group : group;
  p_lane : int;
      (* the guard lane's index for a [timeout], else [unguarded] or
         [daemon] *)
  p_k : (Obj.t, unit) Effect.Deep.continuation;
  p_base : float; (* a guard's due time is [p_base +. ] its lane's delay *)
  p_seq : int; (* a guard's sequence number *)
  mutable prev : parked;
  mutable next : parked;
}

(* One FIFO per distinct guard delay. A guard is due at the clock when it
   was queued plus the delay, and takes its sequence number then, so each
   lane is already in (time, seq) order. *)
type lane = { l_dt : float; l_head : parked (* sentinel *) }

type t = {
  q : queue;
  mutable gid : int;
  root : group;
  engine_rng : Rng.t;
  mutable fiber_error : exn option;
  mutable processed : int;
  parked : parked; (* sentinel of the registry *)
  mutable lanes : lane array;
  mutable detect_deadlock : bool;
  mutable next_lane : int;
  mutable next_register : parked -> unit;
      (* set by [wait] just before performing [Suspend], read at once by
         the handler: the suspension's lane and its registrant *)
  mutable sleep_dt : float;
      (* set by [sleep] just before performing [Suspend], read at once by
         [sleep_register], which the handler calls before anything else
         runs *)
  mutable handler : (unit, unit) Effect.Deep.handler;
  mutable sleep_register : parked -> unit;
      (* the one handler every fiber runs under, and [sleep]'s registrant:
         [create] sets both once, since they capture the engine *)
}

(* Outside engine.ml a resumer is abstract; here it is the parked record.
   Its type parameter is what [suspend] or [timeout] returns. *)
type 'a resumer = parked

exception Deadlock of string
exception Timed_out

(* [p_lane] of a plain suspension, and of a daemon sleep's. *)
let unguarded = -1
let daemon = -2

(* The now-queue's first capacity; it doubles when full. A power of two,
   so slot arithmetic is a mask. *)
let now_capacity = 16

let no_handler : (unit, unit) Effect.Deep.handler =
  { retc = ignore; exnc = raise; effc = (fun _ -> None) }

let new_queue () =
  {
    heap = Heap.create ();
    now_seqs = [||];
    now_thunks = [||];
    now_parked = [||];
    now_results = [||];
    now_head = 0;
    now_len = 0;
    guards = 0;
    suspended = 0;
  }

let dead_group = { gid = -1; alive = false; q = new_queue () }

(* The stored result of a free now-queue slot: never passed to a fiber,
   since a slot's result is written together with its fiber. *)
let unit_result = Obj.repr ()

(* What a free now-queue slot holds instead of a parked fiber, and the
   pattern of every list's sentinel. No sentinel is ever resumed, so its
   continuation slot holds a placeholder that is never read: [Obj.magic]
   gives the slot its type without a continuation to put there. *)
let nil =
  let rec s =
    {
      p_from = "";
      p_name = "";
      p_group = dead_group;
      p_lane = unguarded;
      p_k = Obj.magic ();
      p_base = 0.0;
      p_seq = -1;
      prev = s;
      next = s;
    }
  in
  s

let make_sentinel g =
  let s = { nil with p_group = g } in
  s.prev <- s;
  s.next <- s;
  s

let create_engine seed =
  let q = new_queue () in
  let root = { gid = 0; alive = true; q } in
  {
    q;
    gid = 1;
    root;
    engine_rng = Rng.create seed;
    fiber_error = None;
    processed = 0;
    parked = make_sentinel root;
    lanes = [||];
    detect_deadlock = false;
    next_lane = unguarded;
    next_register = ignore;
    sleep_dt = 0.0;
    handler = no_handler;
    sleep_register = ignore;
  }

let rng t = t.engine_rng
let now t = Heap.now t.q.heap
let root_group t = t.root

let new_group t =
  let g = { gid = t.gid; alive = true; q = t.q } in
  t.gid <- t.gid + 1;
  g

let kill_group t g = if g != t.root then g.alive <- false

let grow_now q =
  let cap = Array.length q.now_seqs in
  let cap' = if cap = 0 then now_capacity else 2 * cap in
  let seqs = Array.make cap' 0 and thunks = Array.make cap' ignore in
  let parked = Array.make cap' nil and results = Array.make cap' unit_result in
  for i = 0 to q.now_len - 1 do
    let j = (q.now_head + i) land (cap - 1) in
    seqs.(i) <- q.now_seqs.(j);
    thunks.(i) <- q.now_thunks.(j);
    parked.(i) <- q.now_parked.(j);
    results.(i) <- q.now_results.(j)
  done;
  q.now_seqs <- seqs;
  q.now_thunks <- thunks;
  q.now_parked <- parked;
  q.now_results <- results;
  q.now_head <- 0

(* An event due at the current instant skips the heap: it joins the
   now-queue with the next sequence number, which is where the heap would
   have ordered it. The slot's index is returned for the caller to fill. *)
let now_slot q =
  if q.now_len = Array.length q.now_seqs then grow_now q;
  let i = (q.now_head + q.now_len) land (Array.length q.now_seqs - 1) in
  q.now_seqs.(i) <- Heap.take_seq q.heap;
  q.now_len <- q.now_len + 1;
  i

let push_now q thunk = q.now_thunks.(now_slot q) <- thunk

let push_resume q p r =
  let i = now_slot q in
  q.now_parked.(i) <- p;
  q.now_results.(i) <- r

(* A delay that is not positive, or too small to move the clock, is due
   now. A NaN delay is neither and goes to the heap, as it always did. *)
let push q ~delay thunk =
  if Heap.due_now q.heap ~delay then push_now q thunk
  else Heap.push q.heap ~delay ~daemon:false thunk

let schedule t ~delay f = push t.q ~delay f

(* Link [p] after [s]: at the front of the registry, or at the back of a
   lane when [s] is the lane's last node. *)
let link_after s p =
  p.next <- s.next;
  p.prev <- s;
  s.next.prev <- p;
  s.next <- p

let unlink p =
  p.prev.next <- p.next;
  p.next.prev <- p.prev;
  p.prev <- p;
  p.next <- p

let linked p = p.next != p

(* [Suspend] parks the fiber until its resumer is called, with the lane
   and registrant [wait] left in the engine. The fiber gets the resumer's
   argument as an [Obj.t]; [wait] gives it back its type. *)
type _ Effect.t += Suspend : Obj.t Effect.t

(* The group and name of the fiber code currently executing. Every code
   path that runs fiber code (initial start, resumption) sets them first;
   they are never read outside fiber code, so stale values between events
   are harmless. A fiber that [start] ran is named [from->name], a
   spawned one [name] (its [from] is [""]); the two are joined only when
   a report prints the name. *)
let current_group : group ref = ref dead_group
let current_from = ref ""
let current_name = ref ""

let fiber_name ~from ~name = if from = "" then name else from ^ "->" ^ name

(* Queue a settled fiber's resumption, unless its group died. [p] has
   already left its list. *)
let settle p r =
  let g = p.p_group in
  if g.alive then begin
    g.q.suspended <- g.q.suspended - 1;
    push_resume g.q p r
  end

(* Only the first call counts. A guard still queued leaves its lane at
   once, so a drain-mode [run] reaches quiescence without the moot guard
   and no later event has to merge past it. *)
let resume (p : 'a resumer) (r : ('a, exn) result) =
  if linked p then begin
    unlink p;
    if p.p_lane >= 0 then p.p_group.q.guards <- p.p_group.q.guards - 1;
    (* erases the type [wait] restores: see there *)
    settle p (Obj.repr r)
  end

(* The lane for guards of delay [dt], a negative one counting as 0, added
   on first use. A world uses a handful of distinct delays, so a scan
   finds it. *)
let lane_of t dt =
  let dt = if dt < 0.0 then 0.0 else dt in
  let n = Array.length t.lanes in
  let i = ref 0 in
  while !i < n && not (Float.equal t.lanes.(!i).l_dt dt) do
    incr i
  done;
  if !i = n then
    t.lanes <- Array.append t.lanes [| { l_dt = dt; l_head = make_sentinel t.root } |];
  !i

(* Park the suspending fiber: in its guard lane, with the guard's time
   and sequence number, or in the leak-audit registry. Then hand the
   registrant its resumer. *)
let park t k =
  let q = t.q in
  let lane = t.next_lane and register = t.next_register in
  t.next_lane <- unguarded;
  t.next_register <- ignore;
  q.suspended <- q.suspended + 1;
  let guarded = lane >= 0 in
  (* a plain suspension keeps the clock too: a pointer, where a
     conditional float would be boxed afresh *)
  let base = Heap.now q.heap in
  let p =
    {
      p_from = !current_from;
      p_name = !current_name;
      p_group = !current_group;
      p_lane = lane;
      p_k = k;
      p_base = base;
      p_seq = (if guarded then Heap.take_seq q.heap else -1);
      prev = nil;
      next = nil;
    }
  in
  if guarded then begin
    link_after t.lanes.(lane).l_head.prev p;
    q.guards <- q.guards + 1
  end
  else link_after t.parked p;
  register p

(* Whether a resumed fiber's group is still alive, making it the running
   fiber if so. *)
let enter p =
  if p.p_group.alive then begin
    current_group := p.p_group;
    current_from := p.p_from;
    current_name := p.p_name
  end;
  p.p_group.alive

let fiber_died t e =
  let bt = Printexc.get_backtrace () in
  if t.fiber_error = None then
    t.fiber_error <-
      Some
        (Failure
           (Printf.sprintf "fiber %s died: %s\n%s"
              (fiber_name ~from:!current_from ~name:!current_name)
              (Printexc.to_string e) bt))

(* The engine's one handler. It turns a suspension into a queue-mediated
   resumption: the registrant receives the parked record, whose first
   [resume] (only while the fiber's group is alive) queues the
   continuation. A killed group drops resumptions, so the fiber
   disappears at its suspension point without unwinding — matching
   fail-silent crash semantics. The [Some] is built once per engine. *)
let handler t : (unit, unit) Effect.Deep.handler =
  let parking = Some (park t) in
  {
    retc = ignore;
    exnc = fiber_died t;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend -> (parking : ((a, unit) Effect.Deep.continuation -> unit) option)
        | _ -> None);
  }

let ok_unit : (unit, exn) result = Ok ()

let sleep_register t p = push t.q ~delay:t.sleep_dt (fun () -> resume p ok_unit)

let create ?(seed = 1L) () =
  let t = create_engine seed in
  t.handler <- handler t;
  t.sleep_register <- sleep_register t;
  t

let run_fiber t g from name f =
  current_group := g;
  current_from := from;
  current_name := name;
  Effect.Deep.match_with f () t.handler

let spawn t ?group ?(name = "fiber") f =
  let g = match group with None -> t.root | Some g -> g in
  if g.alive then push_now t.q (fun () -> if g.alive then run_fiber t g "" name f)

(* Starting inside the current event instead of a delay-0 start event keeps
   the (time, seq) order of every other event whenever nothing else is due
   at this instant — see DESIGN.md §5. The caller's group and name are
   restored once the fiber first suspends or ends. *)
let start t ~group ~from ~name f =
  if group.alive then begin
    let caller = !current_group
    and caller_from = !current_from
    and caller_name = !current_name in
    run_fiber t group from name f;
    current_group := caller;
    current_from := caller_from;
    current_name := caller_name
  end

(* Suspend the calling fiber in [lane] and return what its resumer is
   first called with. The cast is sound because the fiber is continued
   with one of two values. One is [Obj.repr r] for the [r] of the first
   [resume], which takes the [('a, exn) result] of the registrant's
   ['a resumer]: the ['a] of this call. The other is a guard's
   [Error Timed_out], a value of [('a, exn) result] for every ['a]. *)
let wait t lane (register : 'a resumer -> unit) : ('a, exn) result =
  t.next_lane <- lane;
  t.next_register <- register;
  Obj.obj (Effect.perform Suspend)

let suspend t register =
  match wait t unguarded register with Ok v -> v | Error e -> raise e

let self_group _t = !current_group

let sleep t dt =
  t.sleep_dt <- dt;
  suspend t t.sleep_register

(* A daemon sleep parks an idle periodic fiber (an autonomic controller).
   Its wakeup event is daemon-flagged, so a drain-mode [run]
   stops without firing it, and the parked suspension is not reported by
   [leaked_fibers] — the fiber is idle by design, not lost. Once resumed
   (time-bounded runs), the fiber's work is ordinary non-daemon events. *)
let daemon_sleep t dt =
  match
    wait t daemon (fun p ->
        Heap.push t.q.heap ~delay:dt ~daemon:true (fun () -> resume p ok_unit))
  with
  | Ok () -> ()
  | Error e -> raise e

let yield t = sleep t 0.0

(* Whichever side settles first wins. A guard for an operation that never
   settles (request dropped by a link fault) stays queued and WILL fire —
   the suspended caller's only wakeup. *)
let timeout t dt register =
  wait t (lane_of t dt) register

let set_detect_deadlock t flag = t.detect_deadlock <- flag

let queue_empty q = q.now_len = 0 && q.guards = 0 && Heap.is_empty q.heap

(* Whether nothing but daemon wakeups (idle periodic fibers) is queued:
   a drain-mode [run] stops here. *)
let idle q = q.now_len = 0 && q.guards = 0 && Heap.pending q.heap = 0

(* A queue at rest gives back the slots its busiest instant needed: the
   now-queue is empty, and so is the heap unless daemon wakeups remain. *)
let release_slots q =
  if q.now_len = 0 then begin
    q.now_seqs <- [||];
    q.now_thunks <- [||];
    q.now_parked <- [||];
    q.now_results <- [||];
    q.now_head <- 0
  end;
  Heap.release q.heap

let check_deadlock t =
  if t.detect_deadlock && queue_empty t.q && t.q.suspended > 0 then
    raise
      (Deadlock
         (Printf.sprintf "%d fiber(s) suspended with empty queue" t.q.suspended))

(* The sources [next_source] picks from, besides a lane's index. *)
let from_now = -1
let from_heap = -2
let from_none = -3

(* Whether lane [a]'s first guard goes before lane [b]'s, both nonempty. *)
let lane_before t a b =
  let la = t.lanes.(a) and lb = t.lanes.(b) in
  let pa = la.l_head.next and pb = lb.l_head.next in
  let ta = pa.p_base +. la.l_dt and tb = pb.p_base +. lb.l_dt in
  ta < tb || (ta = tb && pa.p_seq < pb.p_seq)

(* The lane whose first guard is due first, or [from_none]. *)
let first_lane t =
  let best = ref from_none in
  if t.q.guards > 0 then
    for i = 0 to Array.length t.lanes - 1 do
      let l = t.lanes.(i) in
      if l.l_head.next != l.l_head && (!best < 0 || lane_before t i !best) then
        best := i
    done;
  !best

(* Where the next event in (time, seq) order comes from: the now-queue's
   head, the heap's top or a lane's first guard. Every now-queue event is
   due at the clock: the clock only advances by a heap or lane pop, and
   those pop only when they go first or the now-queue is empty. *)
let next_source t =
  let q = t.q in
  let clock = Heap.now q.heap in
  let lane = first_lane t in
  let src =
    if q.now_len = 0 then lane
    else if lane < 0 then from_now
    else
      let l = t.lanes.(lane) in
      let p = l.l_head.next in
      let time = p.p_base +. l.l_dt in
      if time < clock || (time = clock && p.p_seq < q.now_seqs.(q.now_head)) then
        lane
      else from_now
  in
  if Heap.is_empty q.heap then src
  else if src = from_none then from_heap
  else if src = from_now then
    if Heap.before q.heap ~base:clock ~delay:0.0 ~seq:q.now_seqs.(q.now_head)
    then from_heap
    else from_now
  else
    let l = t.lanes.(src) in
    let p = l.l_head.next in
    if Heap.before q.heap ~base:p.p_base ~delay:l.l_dt ~seq:p.p_seq then from_heap
    else src

let check_fiber_error t =
  match t.fiber_error with
  | Some err ->
      t.fiber_error <- None;
      raise err
  | None -> ()

(* Run the now-queue's head: a plain event's thunk, or a resumption. The
   slot is cleared first, since what runs may push again. *)
let fire_now t =
  let q = t.q in
  let i = q.now_head in
  let p = q.now_parked.(i) in
  q.now_head <- (i + 1) land (Array.length q.now_seqs - 1);
  q.now_len <- q.now_len - 1;
  t.processed <- t.processed + 1;
  if p == nil then begin
    let thunk = q.now_thunks.(i) in
    q.now_thunks.(i) <- ignore;
    thunk ()
  end
  else begin
    let r = q.now_results.(i) in
    q.now_parked.(i) <- nil;
    q.now_results.(i) <- unit_result;
    if enter p then Effect.Deep.continue p.p_k r
  end;
  check_fiber_error t

let fire_heap t =
  let thunk = Heap.pop t.q.heap in
  t.processed <- t.processed + 1;
  thunk ();
  check_fiber_error t

let timed_out : (unit, exn) result = Error Timed_out

(* A guard fires: its fiber resumes with [Error Timed_out]. *)
let fire_guard t l p =
  let q = t.q in
  unlink p;
  q.guards <- q.guards - 1;
  Heap.advance q.heap ~base:p.p_base ~delay:l.l_dt;
  t.processed <- t.processed + 1;
  (* [Error Timed_out] has the fiber's type whatever its ['a]: see [wait] *)
  settle p (Obj.repr timed_out)

let run_loop t ~drain ~until ~max_steps =
  let q = t.q in
  let rec loop steps =
    if steps >= max_steps then ()
    else if (drain && idle q) || queue_empty q then
      (* Quiescence: only daemon wakeups (idle periodic fibers) remain.
         Leave them queued and parked — a later [run ~until] resumes them;
         a world with no daemons hits this exactly when the queue empties. *)
      begin
        release_slots q;
        check_deadlock t
      end
    else
      let src = next_source t in
      if src = from_now then begin
        if Heap.now q.heap <= until then begin
          fire_now t;
          loop (steps + 1)
        end
      end
      else if src = from_heap then begin
        if Heap.due q.heap ~until then begin
          fire_heap t;
          loop (steps + 1)
        end
      end
      else
        let l = t.lanes.(src) in
        let p = l.l_head.next in
        if p.p_base +. l.l_dt <= until then begin
          fire_guard t l p;
          loop (steps + 1)
        end
  in
  loop 0

let run ?(until = infinity) ?(max_steps = max_int) t =
  run_loop t ~drain:(until = infinity) ~until ~max_steps

let run_to_quiescence t ~by =
  run_loop t ~drain:true ~until:by ~max_steps:max_int;
  idle t.q

let processed_events t = t.processed

let leaked_fibers t =
  (* Prune registry entries whose group died: those fibers vanished with a
     crash, which is fail-silent semantics, not a leak. What remains — a
     suspension in a live group after the queue has drained — waits for a
     wakeup that can no longer come. Daemon-parked suspensions (idle
     periodic fibers sleeping via [daemon_sleep]) are excluded: their
     wakeup is queued, merely never fired by a drain-mode [run]. A guarded
     suspension stays in its lane until its guard fires, group dead or
     not, so a lane is only read. *)
  let name p = fiber_name ~from:p.p_from ~name:p.p_name in
  let rec walk s p acc =
    if p == s then acc
    else
      let next = p.next in
      if not p.p_group.alive then begin
        if s == t.parked then unlink p;
        walk s next acc
      end
      else walk s next (if p.p_lane = daemon then acc else name p :: acc)
  in
  let acc = walk t.parked t.parked.next [] in
  let acc = Array.fold_left (fun acc l -> walk l.l_head l.l_head.next acc) acc t.lanes in
  List.sort String.compare acc
