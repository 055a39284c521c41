type group = { gid : int; mutable alive : bool }

(* [daemon] doubles as the "no longer counted in [nondaemon_queued]" bit:
   true from birth for daemon wakeups, flipped on pop (when the count is
   released) and by {!timeout}'s demotion of guard timers whose operation
   already settled. Both paths are idempotent through the flag. *)
type event = {
  time : float;
  seq : int;
  thunk : unit -> unit;
  mutable daemon : bool;
}

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable gid : int;
  queue : event Heap.t;
  root : group;
  engine_rng : Rng.t;
  mutable fiber_error : exn option;
  mutable processed : int;
  mutable suspended : int;
  mutable suspend_id : int;
  suspended_tbl : (int, string * group * bool) Hashtbl.t;
  mutable detect_deadlock : bool;
  mutable nondaemon_queued : int;
      (* queued events that represent real work; a drain-mode [run] stops
         when only daemon wakeups (idle periodic fibers) remain *)
  mutable next_suspend_daemon : bool;
      (* set by [daemon_sleep] just before performing Suspend, consumed by
         the handler to flag the parked suspension as a daemon's *)
}

exception Deadlock of string
exception Timed_out

let compare_event a b =
  match Float.compare a.time b.time with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let create ?(seed = 1L) () =
  {
    clock = 0.0;
    seq = 0;
    gid = 1;
    queue = Heap.create ~compare:compare_event;
    root = { gid = 0; alive = true };
    engine_rng = Rng.create seed;
    fiber_error = None;
    processed = 0;
    suspended = 0;
    suspend_id = 0;
    suspended_tbl = Hashtbl.create 64;
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
let group_alive g = g.alive

let push_ev ?(daemon = false) t ~delay thunk =
  let delay = if delay < 0.0 then 0.0 else delay in
  let e = { time = t.clock +. delay; seq = t.seq; thunk; daemon } in
  t.seq <- t.seq + 1;
  if not daemon then t.nondaemon_queued <- t.nondaemon_queued + 1;
  Heap.push t.queue e;
  e

let push ?daemon t ~delay thunk = ignore (push_ev ?daemon t ~delay thunk : event)

let release_count t e =
  if not e.daemon then begin
    e.daemon <- true;
    t.nondaemon_queued <- t.nondaemon_queued - 1
  end

let schedule t ~delay f = push t ~delay f

type 'a resumer = ('a, exn) result -> unit

type _ Effect.t += Suspend : (group * ('a resumer -> unit)) -> 'a Effect.t

(* The group of the fiber code currently executing. Every code path that
   runs fiber code (initial start, resumption) sets this first; it is never
   read outside fiber code, so stale values between events are harmless. *)
let current_group : group ref = ref { gid = -1; alive = true }

(* Each fiber runs under one deep handler installed by [spawn]. The handler
   turns [Suspend] into a queue-mediated resumption: the registrant receives
   a [resume] closure which (idempotently, and only while the fiber's group
   is alive) schedules the continuation. A killed group drops resumptions,
   so the fiber disappears at its suspension point without unwinding —
   matching fail-silent crash semantics. *)
let spawn t ?group ?(name = "fiber") f =
  let g = match group with None -> t.root | Some g -> g in
  let body () =
    current_group := g;
    f ()
  in
  let handler () =
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
                    let sid = t.suspend_id in
                    t.suspend_id <- t.suspend_id + 1;
                    let daemon = t.next_suspend_daemon in
                    t.next_suspend_daemon <- false;
                    Hashtbl.replace t.suspended_tbl sid (name, fg, daemon);
                    let fired = ref false in
                    let resume (r : (a, exn) result) =
                      if not fg.alive then Hashtbl.remove t.suspended_tbl sid
                      else if not !fired then begin
                        fired := true;
                        t.suspended <- t.suspended - 1;
                        Hashtbl.remove t.suspended_tbl sid;
                        push t ~delay:0.0 (fun () ->
                            if fg.alive then begin
                              current_group := fg;
                              match r with
                              | Ok v -> continue k v
                              | Error e -> discontinue k e
                            end)
                      end
                    in
                    register resume)
            | _ -> None);
      }
  in
  if g.alive then push t ~delay:0.0 (fun () -> if g.alive then handler ())

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
           push t ~daemon:true ~delay:dt (fun () -> resume (Ok ())) ))

let yield t = sleep t 0.0

let timeout t dt register =
  let g = !current_group in
  match
    Effect.perform
      (Suspend
         ( g,
           fun resume ->
             (* The guard timer counts as pending work only while the
                operation is unsettled: once either side fires, the timer
                is demoted so a drain-mode [run] can reach quiescence
                without chasing every armed-but-moot guard to its expiry.
                A guard for an operation that never settles (request
                dropped by a link fault) stays counted and WILL fire — the
                suspended caller's only wakeup. Popping releases the same
                count through the same flag, so the demotion is exactly
                once whichever comes first. *)
             let settled = ref false in
             let demote = ref (fun () -> ()) in
             let fire r =
               if not !settled then begin
                 settled := true;
                 !demote ();
                 resume r
               end
             in
             let ev =
               push_ev t ~delay:dt (fun () -> fire (Error Timed_out))
             in
             (demote := fun () -> release_count t ev);
             register fire ))
  with
  | v -> Ok v
  | exception Timed_out -> Error Timed_out

let set_detect_deadlock t flag = t.detect_deadlock <- flag

let run ?(until = infinity) ?(max_steps = max_int) t =
  let drain = until = infinity in
  let rec loop steps =
    if steps >= max_steps then ()
    else if drain && t.nondaemon_queued = 0 then
      (* Quiescence: only daemon wakeups (idle periodic fibers) remain.
         Leave them queued and parked — a later [run ~until] resumes them;
         a world with no daemons hits this exactly when the queue empties,
         so daemon-free runs are unchanged. *)
      (if
         t.detect_deadlock && Heap.peek t.queue = None && t.suspended > 0
       then
         raise
           (Deadlock
              (Printf.sprintf "%d fiber(s) suspended with empty queue"
                 t.suspended)))
    else
      match Heap.peek t.queue with
      | None ->
          if t.detect_deadlock && t.suspended > 0 then
            raise
              (Deadlock
                 (Printf.sprintf "%d fiber(s) suspended with empty queue"
                    t.suspended))
      | Some e when e.time > until -> ()
      | Some _ -> (
          match Heap.pop t.queue with
          | None -> ()
          | Some e ->
              release_count t e;
              t.clock <- (if e.time > t.clock then e.time else t.clock);
              t.processed <- t.processed + 1;
              e.thunk ();
              (match t.fiber_error with
              | Some err ->
                  t.fiber_error <- None;
                  raise err
              | None -> ());
              loop (steps + 1))
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
  let dead =
    Hashtbl.fold
      (fun sid (_, fg, _) acc -> if fg.alive then acc else sid :: acc)
      t.suspended_tbl []
  in
  List.iter (Hashtbl.remove t.suspended_tbl) dead;
  Hashtbl.fold
    (fun _ (nm, _, daemon) acc -> if daemon then acc else nm :: acc)
    t.suspended_tbl []
  |> List.sort String.compare
