type group = { gid : int; mutable alive : bool }

(* The leak-audit registry: every parked suspension is a node of an
   intrusive doubly linked list, newest first, so parking and resuming are
   O(1). A node outside the list links to itself — which is also its
   resumer's "already fired" flag — and holds no neighbour alive. *)
type parked = {
  p_name : string;
  p_group : group;
  p_daemon : bool;
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
}

exception Deadlock of string
exception Timed_out

(* The now-queue's first capacity; it doubles when full. A power of two,
   so slot arithmetic is a mask. *)
let now_capacity = 16

let create ?(seed = 1L) () =
  let root = { gid = 0; alive = true } in
  let rec sentinel =
    { p_name = ""; p_group = root; p_daemon = true; prev = sentinel; next = sentinel }
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

type 'a resumer = ('a, exn) result -> unit

type _ Effect.t += Suspend : (group * ('a resumer -> unit)) -> 'a Effect.t

(* The group of the fiber code currently executing. Every code path that
   runs fiber code (initial start, resumption) sets this first; it is never
   read outside fiber code, so stale values between events are harmless. *)
let current_group : group ref = ref { gid = -1; alive = true }

(* Each fiber runs under one deep handler. The handler turns [Suspend]
   into a queue-mediated resumption: the registrant receives a [resume]
   closure which (idempotently, and only while the fiber's group is alive)
   schedules the continuation. A killed group drops resumptions, so the
   fiber disappears at its suspension point without unwinding — matching
   fail-silent crash semantics. *)
let run_fiber t g name f =
  let body () =
    current_group := g;
    f ()
  in
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          let bt = Printexc.get_backtrace () in
          if t.fiber_error = None then
            t.fiber_error <-
              Some
                (Failure
                   (Printf.sprintf "fiber %s died: %s\n%s" name
                      (Printexc.to_string e) bt)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend (fg, register) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.suspended <- t.suspended + 1;
                  let daemon = t.next_suspend_daemon in
                  t.next_suspend_daemon <- false;
                  let rec p =
                    { p_name = name; p_group = fg; p_daemon = daemon; prev = p; next = p }
                  in
                  link t p;
                  let resume (r : (a, exn) result) =
                    if linked p then begin
                      unlink p;
                      if fg.alive then begin
                        t.suspended <- t.suspended - 1;
                        push_now t (fun () ->
                            if fg.alive then begin
                              current_group := fg;
                              match r with
                              | Ok v -> continue k v
                              | Error e -> discontinue k e
                            end)
                      end
                    end
                  in
                  register resume)
          | _ -> None);
    }

let spawn t ?group ?(name = "fiber") f =
  let g = match group with None -> t.root | Some g -> g in
  if g.alive then push_now t (fun () -> if g.alive then run_fiber t g name f)

(* Starting inside the current event instead of a delay-0 start event keeps
   the (time, seq) order of every other event whenever nothing else is due
   at this instant — see DESIGN.md §5. The caller's group is restored once
   the fiber first suspends or ends. *)
let start t ~group ~name f =
  if group.alive then begin
    let caller = !current_group in
    run_fiber t group name f;
    current_group := caller
  end

let suspend _t register =
  let g = !current_group in
  Effect.perform (Suspend (g, register))

let self_group _t = !current_group

let sleep t dt =
  suspend t (fun resume -> push t ~delay:dt (fun () -> resume (Ok ())))

(* A daemon sleep parks an idle periodic fiber (an autonomic controller).
   Its wakeup event is daemon-flagged, so a drain-mode [run]
   stops without firing it, and the parked suspension is not reported by
   [leaked_fibers] — the fiber is idle by design, not lost. Once resumed
   (time-bounded runs), the fiber's work is ordinary non-daemon events. *)
let daemon_sleep t dt =
  let g = !current_group in
  t.next_suspend_daemon <- true;
  Effect.perform
    (Suspend
       ( g,
         fun resume ->
           ignore
             (push_ev t ~daemon:true ~delay:dt (fun () -> resume (Ok ()))
               : Heap.event) ))

let yield t = sleep t 0.0

let timeout t dt register =
  let g = !current_group in
  match
    Effect.perform
      (Suspend
         ( g,
           fun resume ->
             (* Whichever side settles first wins. When the operation
                settles, its guard timer leaves the queue at once, so a
                drain-mode [run] reaches quiescence without the moot guard
                and no later event has to sift past it. A guard for an
                operation that never settles (request dropped by a link
                fault) stays queued and WILL fire — the suspended caller's
                only wakeup. *)
             let guard =
               push_ev t ~daemon:false ~delay:dt (fun () ->
                   resume (Error Timed_out))
             in
             register (fun r ->
                 if Heap.queued guard then begin
                   Heap.remove t.queue guard;
                   t.nondaemon_queued <- t.nondaemon_queued - 1;
                   resume r
                 end) ))
  with
  | v -> Ok v
  | exception Timed_out -> Error Timed_out

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

let run ?(until = infinity) ?(max_steps = max_int) t =
  let drain = until = infinity in
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
      else walk next (if p.p_daemon then acc else p.p_name :: acc)
  in
  List.sort String.compare (walk t.parked.next [])
