type group = { gid : int; mutable alive : bool }

(* The leak-audit registry: every parked suspension is a node of an
   intrusive doubly linked list, newest first, so parking and resuming are
   O(1). A node outside the list links to itself — which is also its
   resumer's "already fired" flag — and holds no neighbour alive. *)
type parked = {
  p_from : string;
  p_name : string;
  p_group : group;
  p_daemon : bool;
  mutable p_guard : Heap.event;
      (* a [timeout]'s guard timer, removed when the fiber resumes;
         [Heap.placeholder] for other suspensions *)
  mutable prev : parked;
  mutable next : parked;
}

type t = {
  mutable clock : float;
  mutable gid : int;
  queue : Heap.t;
  (* The now-queue: a ring buffer of the plain events due at [clock], in
     push order. Each slot holds a thunk and the sequence number it took
     from [queue], so [run] can merge it with the heap in (time, seq)
     order. Popped slots are cleared so no thunk outlives its event. *)
  mutable now_seqs : int array;
  mutable now_thunks : (unit -> unit) array;
  mutable now_head : int;
  mutable now_len : int;
  root : group;
  engine_rng : Rng.t;
  mutable fiber_error : exn option;
  mutable processed : int;
  mutable suspended : int;
  parked : parked; (* sentinel of the registry *)
  mutable detect_deadlock : bool;
  mutable nondaemon_queued : int;
      (* queued events (heap and now-queue) that represent real work; a
         drain-mode [run] stops when only daemon wakeups (idle periodic
         fibers) remain *)
  mutable next_suspend_daemon : bool;
      (* set by [daemon_sleep] just before performing Suspend, consumed by
         the handler to flag the parked suspension as a daemon's *)
  mutable sleep_dt : float;
      (* set by [sleep] just before performing Suspend, read at once by
         [sleep_register], which the handler calls before anything else
         runs *)
  mutable handler : (unit, unit) Effect.Deep.handler;
  mutable sleep_register : unit resumer -> unit;
      (* the one handler every fiber runs under, and [sleep]'s registrant:
         [create] sets both once, since they capture the engine *)
}

and 'a resumer = ('a, exn) result -> unit

exception Deadlock of string
exception Timed_out

(* The now-queue's first capacity; it doubles when full. A power of two,
   so slot arithmetic is a mask. *)
let now_capacity = 16

let no_handler : (unit, unit) Effect.Deep.handler =
  { retc = ignore; exnc = raise; effc = (fun _ -> None) }

let create_engine seed =
  let root = { gid = 0; alive = true } in
  let rec sentinel =
    {
      p_from = "";
      p_name = "";
      p_group = root;
      p_daemon = true;
      p_guard = Heap.placeholder;
      prev = sentinel;
      next = sentinel;
    }
  in
  {
    clock = 0.0;
    gid = 1;
    queue = Heap.create ();
    now_seqs = Array.make now_capacity 0;
    now_thunks = Array.make now_capacity ignore;
    now_head = 0;
    now_len = 0;
    root;
    engine_rng = Rng.create seed;
    fiber_error = None;
    processed = 0;
    suspended = 0;
    parked = sentinel;
    detect_deadlock = false;
    nondaemon_queued = 0;
    next_suspend_daemon = false;
    sleep_dt = 0.0;
    handler = no_handler;
    sleep_register = ignore;
  }

let rng t = t.engine_rng
let now t = t.clock
let root_group t = t.root

let new_group t =
  let g = { gid = t.gid; alive = true } in
  t.gid <- t.gid + 1;
  g

let kill_group t g = if g != t.root then g.alive <- false

(* A heap event: a future one, or one that must stay removable (a guard)
   or daemon-flagged, even when it is due now. *)
let push_ev t ~daemon ~delay thunk =
  let delay = if delay < 0.0 then 0.0 else delay in
  if not daemon then t.nondaemon_queued <- t.nondaemon_queued + 1;
  Heap.push t.queue ~time:(t.clock +. delay) ~daemon thunk

let grow_now t =
  let cap = Array.length t.now_seqs in
  let seqs = Array.make (2 * cap) 0 and thunks = Array.make (2 * cap) ignore in
  for i = 0 to t.now_len - 1 do
    let j = (t.now_head + i) land (cap - 1) in
    seqs.(i) <- t.now_seqs.(j);
    thunks.(i) <- t.now_thunks.(j)
  done;
  t.now_seqs <- seqs;
  t.now_thunks <- thunks;
  t.now_head <- 0

(* A plain event due at the current instant skips the heap: it joins the
   now-queue with the next sequence number, which is where the heap would
   have ordered it. *)
let push_now t thunk =
  if t.now_len = Array.length t.now_seqs then grow_now t;
  let i = (t.now_head + t.now_len) land (Array.length t.now_seqs - 1) in
  t.now_seqs.(i) <- Heap.take_seq t.queue;
  t.now_thunks.(i) <- thunk;
  t.now_len <- t.now_len + 1;
  t.nondaemon_queued <- t.nondaemon_queued + 1

let pop_now t =
  let i = t.now_head in
  let thunk = t.now_thunks.(i) in
  t.now_thunks.(i) <- ignore;
  t.now_head <- (i + 1) land (Array.length t.now_seqs - 1);
  t.now_len <- t.now_len - 1;
  t.nondaemon_queued <- t.nondaemon_queued - 1;
  thunk

(* A delay that is not positive, or too small to move the clock, is due
   now. A NaN delay is neither and goes to the heap, as it always did. *)
let push t ~delay thunk =
  if t.clock +. delay <= t.clock then push_now t thunk
  else ignore (push_ev t ~daemon:false ~delay thunk : Heap.event)

let schedule t ~delay f = push t ~delay f

let link t p =
  let s = t.parked in
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

(* [Suspend] parks the fiber until its resumer is called. [Guarded] also
   queues a guard timer that resumes it with [Error Timed_out], and hands
   the fiber the resumer's argument as is. *)
type _ Effect.t +=
  | Suspend : group * ('a resumer -> unit) -> 'a Effect.t
  | Guarded : group * float * ('a resumer -> unit) -> ('a, exn) result Effect.t

(* The group and name of the fiber code currently executing. Every code
   path that runs fiber code (initial start, resumption) sets them first;
   they are never read outside fiber code, so stale values between events
   are harmless. A fiber that [start] ran is named [from->name], a
   spawned one [name] (its [from] is [""]); the two are joined only when
   a report prints the name. *)
let current_group : group ref = ref { gid = -1; alive = true }
let current_from = ref ""
let current_name = ref ""

let fiber_name ~from ~name = if from = "" then name else from ^ "->" ^ name

(* Park the suspending fiber in the leak-audit registry. *)
let park t fg =
  t.suspended <- t.suspended + 1;
  let daemon = t.next_suspend_daemon in
  t.next_suspend_daemon <- false;
  let rec p =
    {
      p_from = !current_from;
      p_name = !current_name;
      p_group = fg;
      p_daemon = daemon;
      p_guard = Heap.placeholder;
      prev = p;
      next = p;
    }
  in
  link t p;
  p

(* The resumer's first call: whether the fiber is to be continued. A
   guard still queued leaves the queue at once, so a drain-mode [run]
   reaches quiescence without the moot guard and no later event has to
   sift past it; a guard that has popped is the call itself. *)
let wake t p =
  let guard = p.p_guard in
  if Heap.queued guard then begin
    Heap.remove t.queue guard;
    t.nondaemon_queued <- t.nondaemon_queued - 1
  end;
  linked p
  && begin
       unlink p;
       if p.p_group.alive then t.suspended <- t.suspended - 1;
       p.p_group.alive
     end

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
   resumption: the registrant receives a [resume] closure which
   (idempotently, and only while the fiber's group is alive) schedules
   the continuation. A killed group drops resumptions, so the fiber
   disappears at its suspension point without unwinding — matching
   fail-silent crash semantics. *)
let handler t : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  {
    retc = ignore;
    exnc = fiber_died t;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend (fg, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                let p = park t fg in
                register (fun r ->
                    if wake t p then
                      push_now t (fun () ->
                          if enter p then
                            match r with
                            | Ok v -> continue k v
                            | Error e -> discontinue k e)))
        | Guarded (fg, dt, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                let p = park t fg in
                let resume r =
                  if wake t p then push_now t (fun () -> if enter p then continue k r)
                in
                p.p_guard <-
                  push_ev t ~daemon:false ~delay:dt (fun () ->
                      resume (Error Timed_out));
                register resume)
        | _ -> None);
  }

let sleep_register t resume =
  push t ~delay:t.sleep_dt (fun () -> resume (Ok ()))

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
  if g.alive then push_now t (fun () -> if g.alive then run_fiber t g "" name f)

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

let suspend _t register = Effect.perform (Suspend (!current_group, register))

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
  t.next_suspend_daemon <- true;
  suspend t (fun resume ->
      ignore
        (push_ev t ~daemon:true ~delay:dt (fun () -> resume (Ok ()))
          : Heap.event))

let yield t = sleep t 0.0

(* Whichever side settles first wins. A guard for an operation that never
   settles (request dropped by a link fault) stays queued and WILL fire —
   the suspended caller's only wakeup. *)
let timeout _t dt register =
  Effect.perform (Guarded (!current_group, dt, register))

let set_detect_deadlock t flag = t.detect_deadlock <- flag

let queue_empty t = t.now_len = 0 && Heap.is_empty t.queue

let check_deadlock t =
  if t.detect_deadlock && queue_empty t && t.suspended > 0 then
    raise
      (Deadlock
         (Printf.sprintf "%d fiber(s) suspended with empty queue" t.suspended))

(* Whether the next event in (time, seq) order is the heap's top rather
   than the now-queue's head. Every now-queue event is due at [clock]: the
   clock only advances by a heap pop, and the heap pops only when this
   holds or the now-queue is empty. So the heap goes first only with an
   event due at [clock] pushed before the now-queue's head — a guard or a
   daemon wakeup due at once. *)
let heap_first t =
  t.now_len = 0
  || (not (Heap.is_empty t.queue))
     && (let e = Heap.top t.queue in
         e.time <= t.clock && e.seq < t.now_seqs.(t.now_head))

let fire t thunk =
  t.processed <- t.processed + 1;
  thunk ();
  match t.fiber_error with
  | Some err ->
      t.fiber_error <- None;
      raise err
  | None -> ()

let run_loop t ~drain ~until ~max_steps =
  let rec loop steps =
    if steps >= max_steps then ()
    else if (drain && t.nondaemon_queued = 0) || queue_empty t then
      (* Quiescence: only daemon wakeups (idle periodic fibers) remain.
         Leave them queued and parked — a later [run ~until] resumes them;
         a world with no daemons hits this exactly when the queue empties. *)
      check_deadlock t
    else if not (heap_first t) then begin
      if t.clock <= until then begin
        fire t (pop_now t);
        loop (steps + 1)
      end
    end
    else
      let e = Heap.top t.queue in
      if e.time <= until then begin
        ignore (Heap.pop t.queue : Heap.event);
        if not e.daemon then t.nondaemon_queued <- t.nondaemon_queued - 1;
        if e.time > t.clock then t.clock <- e.time;
        fire t e.thunk;
        loop (steps + 1)
      end
  in
  loop 0

let run ?(until = infinity) ?(max_steps = max_int) t =
  run_loop t ~drain:(until = infinity) ~until ~max_steps

let run_to_quiescence t ~by =
  run_loop t ~drain:true ~until:by ~max_steps:max_int;
  t.nondaemon_queued = 0

let processed_events t = t.processed

let leaked_fibers t =
  (* Prune registry entries whose group died: those fibers vanished with a
     crash, which is fail-silent semantics, not a leak. What remains — a
     suspension in a live group after the queue has drained — waits for a
     wakeup that can no longer come. Daemon-parked suspensions (idle
     periodic fibers sleeping via [daemon_sleep]) are excluded: their
     wakeup is queued, merely never fired by a drain-mode [run]. *)
  let rec walk p acc =
    if p == t.parked then acc
    else
      let next = p.next in
      if not p.p_group.alive then begin
        unlink p;
        walk next acc
      end
      else
        walk next
          (if p.p_daemon then acc
           else fiber_name ~from:p.p_from ~name:p.p_name :: acc)
  in
  List.sort String.compare (walk t.parked.next [])
