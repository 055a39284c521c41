type t = {
  mutable permits : int;
  mutable waiters : unit Engine.resumer list; (* newest first *)
}

let create n =
  if n < 0 then invalid_arg "Semaphore.create: negative capacity";
  { permits = n; waiters = [] }

let rec acquire eng s =
  if s.permits > 0 then s.permits <- s.permits - 1
  else begin
    Engine.suspend eng (fun resume -> s.waiters <- resume :: s.waiters);
    acquire eng s
  end

let try_acquire s =
  if s.permits > 0 then begin
    s.permits <- s.permits - 1;
    true
  end
  else false

let release s =
  s.permits <- s.permits + 1;
  (* Waiters are woken with a "check again" token rather than handed the
     permit: a waiter may be stale (its fiber timed out or its group was
     killed), and the engine drops such a resumption, so a permit handed
     to it would be lost. Waking every waiter and letting each re-check
     the count avoids lost wakeups; the thundering herd it costs is
     negligible at simulation scale. *)
  let waiters = List.rev s.waiters in
  s.waiters <- [];
  List.iter (fun resume -> resume (Ok ())) waiters

let available s = s.permits

let with_permit eng s f =
  acquire eng s;
  match f () with
  | v ->
      release s;
      v
  | exception e ->
      release s;
      raise e
