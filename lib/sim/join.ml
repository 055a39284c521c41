(* Structured scatter-gather over fibers.

   Every combinator spawns its tasks into the *caller's* group, so a node
   crash that kills the scattering fiber also kills the workers — no fan-out
   survives its initiator. Single-task scatters run inline (no spawn), which
   keeps one-element fan-outs event-for-event identical to the sequential
   code they replaced: worlds with |St| = |Sv| = 1 are byte-for-byte
   unaffected by the scatter-gather rewiring. *)

type 'a task = unit -> 'a

let all eng tasks =
  match tasks with
  | [] -> []
  | [ f ] -> [ f () ]
  | f0 :: rest ->
      let n = 1 + List.length rest in
      let results = Array.make n None in
      let remaining = ref n in
      let iv = Ivar.create () in
      let settle i r =
        results.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Ivar.fill iv ()
      in
      (* The caller's fiber runs task 0 itself and only tasks 1..n-1 get
         worker fibers: [all] waits for every task anyway, and under full
         spawning task 0's leading segment would execute first regardless
         (workers start in spawn order when the caller suspends), so the
         event trajectory is the same while one fiber per scatter is
         saved. Note this means an exception from task 0 propagates in
         the calling fiber. *)
      let group = Engine.self_group eng in
      List.iteri
        (fun i f ->
          Engine.spawn eng ~group
            ~name:("join.worker." ^ string_of_int (i + 1))
            (fun () -> settle (i + 1) (f ())))
        rest;
      settle 0 (f0 ());
      if !remaining > 0 then Ivar.read eng iv;
      Array.to_list results
      |> List.map (function Some r -> r | None -> assert false)

(* Hedged first-some over option-returning tasks: task 0 starts now, task
   [i] is held back [i * delay] and skipped entirely if an earlier task
   already produced [Some]. The first [Some] wins; [None] settles only
   once every task that was actually launched settled with [None] and no
   launch remains pending. Losers are not torn down — they run to
   completion in the caller's group and their results are discarded — the
   cooperative-cancellation discipline duplicate-safe protocols allow.
   Single-task hedges run inline, like {!all}'s fast path. *)
let hedged eng ~delay tasks =
  match tasks with
  | [] -> None
  | [ f ] -> f ()
  | tasks ->
      let n = List.length tasks in
      let iv = Ivar.create () in
      let launched = ref 0 in
      let outstanding = ref 0 in
      let group = Engine.self_group eng in
      let settle r =
        match r with
        | Some _ -> ignore (Ivar.try_fill iv r)
        | None ->
            decr outstanding;
            if !outstanding = 0 && !launched = n then
              ignore (Ivar.try_fill iv None)
      in
      List.iteri
        (fun i f ->
          Engine.schedule eng ~delay:(float_of_int i *. delay) (fun () ->
              incr launched;
              (* An earlier task answering cancels this launch — the hedge
                 that never fires costs nothing. *)
              if not (Ivar.is_filled iv) then begin
                incr outstanding;
                Engine.spawn eng ~group
                  ~name:("join.hedged." ^ string_of_int i)
                  (fun () -> settle (f ()))
              end))
        tasks;
      Ivar.read eng iv
