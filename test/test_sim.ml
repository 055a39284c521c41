(* Tests for the simulation kernel: heap, rng, engine, ivar,
   semaphore, trace, metrics. *)

open Sim

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Heap *)

(* The heap is the engine's event queue: events keyed by time, ties broken
   by push order. Its clock starts at 0, so a delay pushed before any pop
   is the event's time; each event's thunk reports that time. [pop_time]
   pops and runs the earliest event, and [drain_times] pops everything. *)
let last_time = ref nan
let push_at h time = Heap.push h ~delay:time ~daemon:false (fun () -> last_time := time)

let pop_time h =
  (Heap.pop h) ();
  !last_time

let drain_times h =
  let rec go acc = if Heap.is_empty h then List.rev acc else go (pop_time h :: acc) in
  go []

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun t -> ignore (push_at h t)) [ 5.; 1.; 4.; 1.; 3.; 9.; 2. ];
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.; 1.; 2.; 3.; 4.; 5.; 9. ] (drain_times h)

let test_heap_empty () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  (match Heap.due h ~until:infinity with
  | _ -> Alcotest.fail "top of an empty queue"
  | exception Invalid_argument _ -> ());
  match (Heap.pop h : unit -> unit) with
  | _ -> Alcotest.fail "pop of an empty queue"
  | exception Invalid_argument _ -> ()

(* Queries about the earliest event leave it in place; popping it runs
   nothing, moves the clock to its time and hands back its thunk. *)
let test_heap_peek_stable () =
  let h = Heap.create () in
  let popped = ref "" in
  Heap.push h ~delay:3.0 ~daemon:false (fun () -> popped := "late");
  Heap.push h ~delay:1.0 ~daemon:true (fun () -> popped := "early");
  for _ = 1 to 2 do
    check_bool "due by 1" true (Heap.due h ~until:1.0);
    check_bool "not due before 1" false (Heap.due h ~until:0.5);
    check_int "one pending" 1 (Heap.pending h);
    (* the top is (1.0, seq 1) *)
    check_bool "before a later seq" true (Heap.before h ~base:0.5 ~delay:0.5 ~seq:2);
    check_bool "after an earlier seq" false (Heap.before h ~base:1.0 ~delay:0.0 ~seq:0)
  done;
  let thunk = Heap.pop h in
  check_float "clock at the top's time" 1.0 (Heap.now h);
  check_bool "not run by pop" true (!popped = "");
  thunk ();
  check_bool "top's thunk" true (!popped = "early");
  check_int "the daemon wakeup was not pending" 1 (Heap.pending h);
  (Heap.pop h) ();
  check_float "other left" 3.0 (Heap.now h);
  check_int "none pending" 0 (Heap.pending h);
  check_bool "drained" true (Heap.is_empty h)

let test_heap_large () =
  let h = Heap.create () in
  let rng = Rng.create 42L in
  for _ = 1 to 10_000 do
    ignore (push_at h (float_of_int (Rng.int rng 1_000_000)))
  done;
  let rec drain prev n =
    if Heap.is_empty h then n
    else
      let time = pop_time h in
      if time < prev || Heap.now h <> time then Alcotest.fail "heap order violated";
      drain time (n + 1)
  in
  check_int "all popped" 10_000 (drain neg_infinity 0)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let child = Rng.split a in
  check_bool "different streams" true (Rng.int64 a <> Rng.int64 child)

let test_rng_int_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bool_extremes () =
  let rng = Rng.create 3L in
  check_bool "p=0" false (Rng.bool rng 0.0);
  check_bool "p=1" true (Rng.bool rng 1.0)

let test_rng_pick () =
  let rng = Rng.create 3L in
  let xs = [ "a"; "b"; "c" ] in
  for _ = 1 to 50 do
    check_bool "member" true (List.mem (Rng.pick rng xs) xs)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3L in
  let xs = [ 1; 2; 3; 4; 5; 6 ] in
  let ys = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

(* The first draws of a fixed seed, recorded from the boxed-state
   generator the unboxed one replaced: the stream must stay bit-identical,
   or every seeded experiment would move. *)
let test_rng_stream_pinned () =
  let draws f = let r = Rng.create 20260517L in List.init 8 (fun _ -> f r) in
  Alcotest.(check (list int64)) "int64"
    [ 4575549421988790757L; 1031250359864946218L; 2827596962581378985L;
      1770510012810282063L; -6887769693541876095L; -6597715850032917959L;
      -7400548412653973762L; -4692148899943427683L ]
    (draws Rng.int64);
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.fbfcefa7ef16p-3; 0x1.c9f797a1c7cdp-5; 0x1.39ed23a655178p-3;
      0x1.8921d79e0d44p-4; 0x1.40d373e9d3787p-1; 0x1.48e068c7fba5ap-1;
      0x1.3297f0db615b9p-1; 0x1.7dc446df0343ap-1 ]
    (draws (fun r -> Rng.float r 1.0));
  Alcotest.(check (list int)) "int"
    [ 197689; 236554; 344746; 570515; 918880; 158414; 894463; 530983 ]
    (draws (fun r -> Rng.int r 1_000_000));
  let child = Rng.split (Rng.create 20260517L) in
  Alcotest.(check (list int64)) "split"
    [ 8204939365776924436L; -8809960848269883254L; -1311850132914217107L ]
    (List.init 3 (fun _ -> Rng.int64 child))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_clock_advances () =
  let eng = Engine.create () in
  let seen = ref [] in
  Engine.spawn eng (fun () ->
      Engine.sleep eng 5.0;
      seen := Engine.now eng :: !seen;
      Engine.sleep eng 2.5;
      seen := Engine.now eng :: !seen);
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "times" [ 7.5; 5.0 ] !seen

let test_engine_ordering_fifo_at_same_time () =
  let eng = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.spawn eng (fun () -> order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 5; 4; 3; 2; 1 ] !order

let test_engine_schedule_callback () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.schedule eng ~delay:3.0 (fun () -> fired := true);
  Engine.run ~until:2.0 eng;
  check_bool "not yet" false !fired;
  Engine.run eng;
  check_bool "fired" true !fired

let test_engine_kill_group_stops_fiber () =
  let eng = Engine.create () in
  let g = Engine.new_group eng in
  let progress = ref 0 in
  Engine.spawn eng ~group:g (fun () ->
      incr progress;
      Engine.sleep eng 10.0;
      incr progress);
  Engine.schedule eng ~delay:5.0 (fun () -> Engine.kill_group eng g);
  Engine.run eng;
  check_int "killed at suspension" 1 !progress

let test_engine_kill_before_start () =
  let eng = Engine.create () in
  let g = Engine.new_group eng in
  let progress = ref 0 in
  Engine.kill_group eng g;
  Engine.spawn eng ~group:g (fun () -> incr progress);
  Engine.run eng;
  check_int "never started" 0 !progress

let test_engine_timeout_fires () =
  let eng = Engine.create () in
  let outcome = ref "none" in
  Engine.spawn eng (fun () ->
      match Engine.timeout eng 1.0 (fun _resume -> ()) with
      | Ok () -> outcome := "ok"
      | Error Engine.Timed_out -> outcome := "timeout"
      | Error _ -> outcome := "other");
  Engine.run eng;
  Alcotest.(check string) "timed out" "timeout" !outcome;
  check_float "time advanced" 1.0 (Engine.now eng)

let test_engine_timeout_beaten_by_result () =
  let eng = Engine.create () in
  let outcome = ref "none" in
  let resumed_at = ref nan in
  Engine.spawn eng (fun () ->
      let r =
        Engine.timeout eng 10.0 (fun resume ->
            Engine.schedule eng ~delay:2.0 (fun () -> Engine.resume resume (Ok 42)))
      in
      resumed_at := Engine.now eng;
      match r with
      | Ok v -> outcome := string_of_int v
      | Error _ -> outcome := "timeout");
  Engine.run eng;
  Alcotest.(check string) "result wins" "42" !outcome;
  check_float "resumed early" 2.0 !resumed_at;
  (* An error the operation settles with is handed back, not raised. *)
  let failed = ref (Ok ()) in
  Engine.spawn eng (fun () ->
      failed := Engine.timeout eng 10.0 (fun resume -> Engine.resume resume (Error Exit)));
  Engine.run eng;
  check_bool "error returned" true (!failed = Error Exit)

let test_engine_fiber_exception_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"boom" (fun () -> failwith "kaboom");
  match Engine.run eng with
  | () -> Alcotest.fail "expected exception"
  | exception Failure msg ->
      check_bool "mentions fiber" true
        (String.length msg > 0 && String.sub msg 0 5 = "fiber")

let test_engine_deadlock_detection () =
  let eng = Engine.create () in
  Engine.set_detect_deadlock eng true;
  let iv = Ivar.create () in
  Engine.spawn eng (fun () -> ignore (Ivar.read eng iv : int));
  match Engine.run eng with
  | () -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock _ -> ()

(* The leak audit names a live fiber parked on an ivar nobody fills, drops
   one whose group was killed, and forgets both once they are resumed. *)
let test_engine_leaked_fibers () =
  let eng = Engine.create () in
  let g = Engine.new_group eng in
  let iv = Ivar.create () in
  Engine.spawn eng ~name:"stuck" (fun () -> ignore (Ivar.read eng iv : int));
  Engine.spawn eng ~group:g ~name:"doomed" (fun () -> ignore (Ivar.read eng iv : int));
  Engine.spawn eng ~name:"done" (fun () -> Engine.sleep eng 1.0);
  Engine.run eng;
  Alcotest.(check (list string)) "both parked" [ "doomed"; "stuck" ]
    (Engine.leaked_fibers eng);
  Engine.kill_group eng g;
  Alcotest.(check (list string)) "killed group dropped" [ "stuck" ]
    (Engine.leaked_fibers eng);
  Ivar.fill iv 1;
  Engine.run eng;
  Alcotest.(check (list string)) "resumed" [] (Engine.leaked_fibers eng)

let test_engine_yield_interleaves () =
  let eng = Engine.create () in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      order := "a1" :: !order;
      Engine.yield eng;
      order := "a2" :: !order);
  Engine.spawn eng (fun () ->
      order := "b1" :: !order;
      Engine.yield eng;
      order := "b2" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "interleaved"
    [ "b2"; "a2"; "b1"; "a1" ] !order

let test_engine_until_bound () =
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.spawn eng (fun () ->
      let rec tick () =
        incr count;
        Engine.sleep eng 1.0;
        tick ()
      in
      tick ());
  Engine.run ~until:10.5 eng;
  check_int "bounded ticks" 11 !count

(* A drain bounded in time: a fiber that re-arms forever stops at the
   bound and reports work left; a world that settles first ends as a
   plain drain does, daemon wakeups left parked. *)
let test_engine_run_to_quiescence () =
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.spawn eng (fun () ->
      let rec tick () =
        incr count;
        Engine.sleep eng 1.0;
        tick ()
      in
      tick ());
  check_bool "busy at the bound" false (Engine.run_to_quiescence eng ~by:10.5);
  check_int "bounded ticks" 11 !count;
  let eng = Engine.create () in
  let steps = ref 0 in
  Engine.spawn eng (fun () ->
      Engine.sleep eng 3.0;
      incr steps;
      Engine.daemon_sleep eng 1.0;
      incr steps);
  check_bool "quiesced" true (Engine.run_to_quiescence eng ~by:100.0);
  check_int "daemon left parked" 1 !steps;
  check_float "clock at the last event" 3.0 (Engine.now eng)

(* The now-queue: plain events due at the current instant skip the heap.
   These pin its bookkeeping against the heap's. *)

(* [processed_events] and [max_steps] count now-queue events; the e2e
   benchmark slices its runs on that count. The second batch wraps round the
   ring and makes it grow while it holds events. *)
let test_engine_now_queue_counted () =
  let eng = Engine.create () in
  let ran = ref [] in
  let spawn_range a b =
    for i = a to b do
      Engine.spawn eng (fun () -> ran := i :: !ran)
    done
  in
  spawn_range 1 10;
  Engine.run ~max_steps:6 eng;
  check_int "six counted" 6 (Engine.processed_events eng);
  spawn_range 11 40;
  Engine.run ~max_steps:20 eng;
  check_int "twenty-six counted" 26 (Engine.processed_events eng);
  Engine.run eng;
  Alcotest.(check (list int)) "push order" (List.init 40 (fun i -> i + 1)) (List.rev !ran);
  check_int "all counted" 40 (Engine.processed_events eng)

(* A bound below the clock runs nothing, even with events due now. *)
let test_engine_until_below_clock () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.schedule eng ~delay:2.0 (fun () ->
      Engine.schedule eng ~delay:0.0 (fun () -> fired := true));
  Engine.run ~max_steps:1 eng;
  check_float "at 2" 2.0 (Engine.now eng);
  Engine.run ~until:1.0 eng;
  check_bool "not run" false !fired;
  check_int "one counted" 1 (Engine.processed_events eng);
  Engine.run ~until:2.0 eng;
  check_bool "run at the bound" true !fired

(* With only now-queue events left the queue is not empty, so a parked
   fiber is not a deadlock. *)
let test_engine_no_deadlock_on_now_queue () =
  let eng = Engine.create () in
  Engine.set_detect_deadlock eng true;
  let iv = Ivar.create () and got = ref 0 in
  Engine.spawn eng (fun () -> got := Ivar.read eng iv);
  Engine.spawn eng (fun () -> Ivar.fill iv 3);
  Engine.run ~max_steps:1 eng;
  Engine.run ~until:0.0 eng;
  check_int "woken" 3 !got;
  Alcotest.(check (list string)) "none parked" [] (Engine.leaked_fibers eng)

(* A daemon wakeup due now is a heap event and still not work: a
   drain-mode run stops before it, a bounded run fires it. *)
let test_engine_daemon_sleep_zero () =
  let eng = Engine.create () in
  let steps = ref 0 in
  Engine.spawn eng (fun () ->
      incr steps;
      Engine.daemon_sleep eng 0.0;
      incr steps);
  Engine.run eng;
  check_int "parked" 1 !steps;
  Alcotest.(check (list string)) "not a leak" [] (Engine.leaked_fibers eng);
  Engine.run ~until:0.0 eng;
  check_int "woken" 2 !steps

(* A guard due at once still waits in its lane: an operation that settles
   first takes it out, so it never pops. One settles inside [register];
   the other is settled by an event queued before the guard. *)
let test_engine_timeout_guard_due_now () =
  let eng = Engine.create () in
  let results = ref [] in
  Engine.spawn eng (fun () ->
      let r = Engine.timeout eng 0.0 (fun resume -> Engine.resume resume (Ok 1)) in
      results := r :: !results);
  Engine.spawn eng (fun () ->
      let iv = Ivar.create () in
      Engine.schedule eng ~delay:0.0 (fun () -> Ivar.fill iv 2);
      let r = Ivar.read_timeout eng (-1.0) iv in
      results := r :: !results);
  Engine.run eng;
  check_bool "both settled" true
    (match !results with [ Ok 2; Ok 1 ] -> true | _ -> false);
  (* two starts, one fill, two resumes: no guard popped *)
  check_int "no guard fired" 5 (Engine.processed_events eng);
  (* A guard due now goes before a settling event queued after it. *)
  let late = ref None in
  Engine.spawn eng (fun () ->
      late :=
        Some
          (Engine.timeout eng 0.0 (fun resume ->
               Engine.schedule eng ~delay:0.0 (fun () -> Engine.resume resume (Ok ())))));
  Engine.run eng;
  check_bool "guard first" true (!late = Some (Error Engine.Timed_out))

let no_op () = ()

(* The handler is the engine's and the running fiber's name a global, so a
   start that never suspends builds nothing of its own but what
   [Effect.Deep.match_with] allocates. *)
let test_engine_start_alloc () =
  let eng = Engine.create () in
  let group = Engine.root_group eng in
  Engine.start eng ~group ~from:"test" ~name:"warm" no_op;
  let words =
    Test_util.minor_words (fun () ->
        for _ = 1 to 1000 do
          Engine.start eng ~group ~from:"test" ~name:"f" no_op
        done)
    /. 1000.0
  in
  check_bool (Printf.sprintf "%.1f words per start" words) true (words <= 8.0)

(* The words one of 1,000 waits allocates, run in a fiber after a warm-up
   of 10. *)
let words_per_wait wait =
  let eng = Engine.create () in
  let loop n () =
    for _ = 1 to n do
      wait eng
    done
  in
  Engine.spawn eng (loop 10);
  Engine.run eng;
  Engine.spawn eng (loop 1000);
  Test_util.minor_words (fun () -> Engine.run eng) /. 1000.0

let check_words what words bound =
  check_bool (Printf.sprintf "%.2f words per %s" words what) true (words <= bound)

(* A [timeout]-guarded suspension settled at once, by a [register] that
   captures one variable as real callers do: the guard is queued in its
   lane and unlinked, and the fiber parks and resumes through the
   now-queue. The parked record is the resumer and the guard, so a wait
   allocates that record, the continuation and the registrant. *)
let test_engine_timeout_alloc () =
  let settled = ref 0 in
  let words =
    words_per_wait (fun eng ->
        ignore
          (Sys.opaque_identity
             (Engine.timeout eng 10.0 (fun r ->
                  incr settled;
                  Engine.resume r (Ok ())))))
  in
  check_int "settled" 1010 !settled;
  check_words "guarded suspension" words 16.5

(* A plain suspension settled inside [register] costs what a guarded one
   does, and a [sleep] has no registrant to build but a heap event's
   thunk, plus the clock boxed when its pop moves it. *)
let test_engine_suspend_alloc () =
  let settled = ref 0 in
  let words =
    words_per_wait (fun eng ->
        Sys.opaque_identity
          (Engine.suspend eng (fun r ->
               incr settled;
               Engine.resume r (Ok ()))))
  in
  check_int "settled" 1010 !settled;
  check_words "plain suspension" words 16.5;
  check_words "sleep" (words_per_wait (fun eng -> Engine.sleep eng 1.0)) 18.5

(* Guards in three lanes, each settled before it is due, in and out of
   queue order: none of them pops, so a drain ends at the last real event
   with no guard counted or waited for, and nothing is left parked. One
   guard that is never settled fires at its due time. *)
let test_engine_settled_guards_leave () =
  let eng = Engine.create () in
  Engine.set_detect_deadlock eng true;
  let outcomes = ref [] in
  let guarded name dt settle =
    Engine.spawn eng ~name (fun () ->
        let r =
          Engine.timeout eng dt (fun r ->
              match settle with
              | Some d -> Engine.schedule eng ~delay:d (fun () -> Engine.resume r (Ok ()))
              | None -> ())
        in
        outcomes := (name, Engine.now eng, r = Ok ()) :: !outcomes)
  in
  guarded "a" 5.0 (Some 3.0);
  guarded "b" 5.0 (Some 1.0);
  guarded "c" 5.0 (Some 2.0);
  guarded "d" 10.0 (Some 4.0);
  guarded "e" 20.0 (Some 4.5);
  check_bool "quiesced" true (Engine.run_to_quiescence eng ~by:100.0);
  check_float "clock at the last settlement" 4.5 (Engine.now eng);
  (* five starts, five settlements, five resumptions *)
  check_int "no guard fired" 15 (Engine.processed_events eng);
  Alcotest.(check (list string)) "none parked" [] (Engine.leaked_fibers eng);
  check_bool "all settled" true (List.for_all (fun (_, _, ok) -> ok) !outcomes);
  guarded "f" 5.0 None;
  guarded "g" 5.0 (Some 1.0);
  Alcotest.(check (list string)) "f and g parked" [ "f"; "g" ]
    (Engine.run ~max_steps:2 eng; Engine.leaked_fibers eng);
  Engine.run eng;
  check_float "f's guard fired" 9.5 (Engine.now eng);
  check_bool "f timed out" true (List.mem ("f", 9.5, false) !outcomes);
  (* two starts, g's settlement, f's guard, two resumptions *)
  check_int "one guard fired" 21 (Engine.processed_events eng)

(* Model test of the guard lanes: fibers wait on guards of a few delays,
   some settled by an event after a random delay, others never. A guard
   settled strictly before it is due never fires: the fiber resumes at the
   settlement, and the guard neither counts as an event nor moves the
   clock. A settlement at the guard's own time comes after the guard,
   which took its sequence number first. *)
let prop_guard_lanes =
  QCheck.Test.make ~name:"guard lanes: a settled guard never fires" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 12)
        (pair (oneofl [ -1.0; 0.0; 1.0; 2.5; 4.0 ])
           (option (oneofl [ 0.0; 0.5; 1.0; 2.5; 3.0 ]))))
    (fun waits ->
      let eng = Engine.create () in
      let got = ref [] in
      List.iteri
        (fun i (dt, settle) ->
          Engine.spawn eng (fun () ->
              let r =
                Engine.timeout eng dt (fun r ->
                    match settle with
                    | Some d ->
                        Engine.schedule eng ~delay:d (fun () -> Engine.resume r (Ok i))
                    | None -> ())
              in
              got := (i, Engine.now eng, r = Ok i) :: !got))
        waits;
      let want =
        List.mapi
          (fun i (dt, settle) ->
            let due = Float.max dt 0.0 in
            match settle with
            | Some d when d < due -> (i, d, true)
            | _ -> (i, due, false))
          waits
      in
      let fired = List.length (List.filter (fun (_, _, ok) -> not ok) want) in
      let settlements = List.length (List.filter (fun (_, s) -> s <> None) waits) in
      let last =
        List.fold_left
          (fun acc (dt, settle) ->
            let due = Float.max dt 0.0 in
            match settle with
            | Some d -> Float.max acc (if d < due then d else Float.max d due)
            | None -> Float.max acc due)
          0.0 waits
      in
      Engine.run eng;
      List.sort compare !got = List.sort compare want
      && Engine.processed_events eng
         = (2 * List.length waits) + settlements + fired
      && Engine.now eng = last
      && Engine.leaked_fibers eng = [])


(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_fill_then_read () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 99;
  let got = ref 0 in
  Engine.spawn eng (fun () -> got := Ivar.read eng iv);
  Engine.run eng;
  check_int "value" 99 !got

let test_ivar_read_then_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Engine.spawn eng (fun () -> got := Ivar.read eng iv);
  Engine.schedule eng ~delay:4.0 (fun () -> Ivar.fill iv 7);
  Engine.run eng;
  check_int "value" 7 !got

let test_ivar_multiple_readers () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let total = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn eng (fun () -> total := !total + Ivar.read eng iv)
  done;
  Engine.schedule eng ~delay:1.0 (fun () -> Ivar.fill iv 10);
  Engine.run eng;
  check_int "all woken" 50 !total

let test_ivar_double_fill_raises () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  check_bool "try_fill fails" false (Ivar.try_fill iv 2);
  match Ivar.fill iv 2 with
  | () -> Alcotest.fail "expected Already_filled"
  | exception Ivar.Already_filled -> ()

let test_ivar_read_timeout () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let outcome = ref "none" in
  Engine.spawn eng (fun () ->
      match Ivar.read_timeout eng 2.0 iv with
      | Ok (_ : int) -> outcome := "ok"
      | Error Engine.Timed_out -> outcome := "timeout"
      | Error _ -> outcome := "other");
  Engine.run eng;
  Alcotest.(check string) "timeout" "timeout" !outcome

(* ------------------------------------------------------------------ *)
(* Semaphore *)

let test_semaphore_limits_concurrency () =
  let eng = Engine.create () in
  let sem = Semaphore.create 2 in
  let active = ref 0 and peak = ref 0 in
  for _ = 1 to 6 do
    Engine.spawn eng (fun () ->
        Semaphore.with_permit eng sem (fun () ->
            incr active;
            if !active > !peak then peak := !active;
            Engine.sleep eng 1.0;
            decr active))
  done;
  Engine.run eng;
  check_int "peak bounded" 2 !peak

let test_semaphore_try_acquire () =
  let sem = Semaphore.create 1 in
  check_bool "first" true (Semaphore.try_acquire sem);
  check_bool "second" false (Semaphore.try_acquire sem);
  Semaphore.release sem;
  check_bool "after release" true (Semaphore.try_acquire sem)

let test_semaphore_no_lost_permit_on_killed_waiter () =
  let eng = Engine.create () in
  let sem = Semaphore.create 0 in
  let g = Engine.new_group eng in
  let got = ref "none" in
  (* A doomed waiter queues first, then is killed; the healthy waiter
     must still get the released permit. *)
  Engine.spawn eng ~group:g (fun () ->
      Semaphore.acquire eng sem;
      got := "doomed");
  Engine.schedule eng ~delay:1.0 (fun () -> Engine.kill_group eng g);
  Engine.schedule eng ~delay:2.0 (fun () ->
      Engine.spawn eng (fun () ->
          Semaphore.acquire eng sem;
          got := "healthy"));
  Engine.schedule eng ~delay:3.0 (fun () -> Semaphore.release sem);
  Engine.run eng;
  Alcotest.(check string) "healthy waiter got it" "healthy" !got;
  check_int "permit taken" 0 (Semaphore.available sem)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_record_and_query () =
  let tr = Trace.create () in
  Trace.set_enabled tr true;
  Trace.record tr ~now:1.0 ~tag:"rpc" "call a";
  Trace.record tr ~now:2.0 ~tag:"gvd" "exclude n3";
  Trace.record tr ~now:3.0 ~tag:"rpc" "call b";
  check_int "rpc count" 2 (Trace.count tr ~tag:"rpc");
  check_int "find" 1 (List.length (Trace.find tr ~tag:"gvd" ~substring:"n3"));
  match Trace.entries tr with
  | { Trace.at; _ } :: _ -> check_float "order" 1.0 at
  | [] -> Alcotest.fail "no entries"

let test_trace_disabled_drops () =
  let tr = Trace.create () in
  Trace.record tr ~now:1.0 ~tag:"x" "y";
  check_int "a new trace records nothing" 0 (List.length (Trace.entries tr));
  Trace.set_enabled tr true;
  Trace.set_enabled tr false;
  Trace.record tr ~now:1.0 ~tag:"x" "y";
  Trace.recordf tr ~now:1.0 ~tag:"x" "%d" 42;
  check_int "empty" 0 (List.length (Trace.entries tr))

let test_trace_disabled_no_alloc () =
  let tr = Trace.create () in
  Trace.set_enabled tr false;
  (* Warm the path once, then check the amortised per-call allocation stays
     far below one formatted-string's worth: the disabled branch must not
     render its arguments. *)
  Trace.recordf tr ~now:0.0 ~tag:"x" "warm %d %s" 0 "payload";
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    Trace.recordf tr ~now:(float_of_int i) ~tag:"x" "value=%d %s" i
      "a-reasonably-long-payload-string-that-would-cost-to-render"
  done;
  let per_call = (Gc.minor_words () -. before) /. 1000.0 in
  check_bool
    (Printf.sprintf "allocation bounded (%.1f words/call)" per_call)
    true (per_call < 100.0);
  check_int "still empty" 0 (List.length (Trace.entries tr))

let test_trace_recordf () =
  let tr = Trace.create () in
  Trace.set_enabled tr true;
  Trace.recordf tr ~now:1.0 ~tag:"x" "value=%d" 42;
  check_int "formatted" 1
    (List.length (Trace.find tr ~tag:"x" ~substring:"value=42"))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m ~by:4 "a";
  check_int "sum" 5 (Metrics.counter m "a");
  check_int "absent" 0 (Metrics.counter m "zzz")

(* [find_counter] uses [Hashtbl.find], so bumping a counter that exists
   boxes nothing. *)
let test_metrics_incr_no_alloc () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  let words =
    Test_util.minor_words (fun () ->
        for _ = 1 to 1000 do
          Metrics.incr m "c"
        done)
  in
  check_float "words for 1,000 incrs" 0.0 words;
  check_int "counted" 1001 (Metrics.counter m "c")

let test_metrics_samples () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "lat") [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Metrics.mean m "lat");
  check_float "max" 4.0 (Metrics.max_sample m "lat");
  check_int "count" 4 (Metrics.sample_count m "lat");
  check_float "p50" 2.0 (Metrics.percentile m "lat" 50.0);
  check_float "p100" 4.0 (Metrics.percentile m "lat" 100.0)

let test_metrics_percentile_edges () =
  let m = Metrics.create () in
  check_bool "empty is nan" true (Float.is_nan (Metrics.percentile m "none" 50.0));
  Metrics.observe m "one" 7.5;
  check_float "single p0" 7.5 (Metrics.percentile m "one" 0.0);
  check_float "single p50" 7.5 (Metrics.percentile m "one" 50.0);
  check_float "single p100" 7.5 (Metrics.percentile m "one" 100.0);
  List.iter (Metrics.observe m "d") [ 3.0; 1.0; 2.0 ];
  check_float "p0 is min" 1.0 (Metrics.percentile m "d" 0.0);
  check_float "p100 is max" 3.0 (Metrics.percentile m "d" 100.0);
  (* Nearest-rank clamps out-of-range percentiles instead of raising. *)
  check_float "clamp low" 1.0 (Metrics.percentile m "d" (-5.0));
  check_float "clamp high" 3.0 (Metrics.percentile m "d" 200.0)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "c";
  Metrics.incr b ~by:2 "c";
  Metrics.observe a "s" 1.0;
  Metrics.observe b "s" 3.0;
  Metrics.merge_into ~dst:a b;
  check_int "merged counter" 3 (Metrics.counter a "c");
  check_int "merged samples" 2 (Metrics.sample_count a "s")

(* Samples are stored unboxed: a series costs its array's words, and the
   array at most doubles its length. *)
let test_metrics_samples_unboxed () =
  let m = Metrics.create () in
  for i = 1 to 10_000 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  let words = Obj.reachable_words (Obj.repr m) in
  check_bool
    (Printf.sprintf "%d words for 10,000 samples" words)
    true
    (float_of_int words <= 2.5 *. 10_000.0)

(* 37 samples force the series to grow. The readers must give what the
   list-based registry gave, bit for bit, and read samples oldest first. *)
let test_metrics_growth_matches_list () =
  let m = Metrics.create () in
  let xs =
    List.init 37 (function
      | 5 -> -0.0
      | 9 -> 0.0
      | i -> float_of_int (i * 7919 mod 23) /. 3.0)
  in
  List.iter (Metrics.observe m "s") xs;
  let list_mean = List.fold_left ( +. ) 0.0 xs /. 37.0 in
  let list_percentile p =
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    arr.(max 0 (min 36 (int_of_float (ceil (p /. 100.0 *. 37.0)) - 1)))
  in
  let list_max = List.fold_left Float.max (List.hd xs) (List.tl xs) in
  let same name a b =
    check_bool name true (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  same "mean" list_mean (Metrics.mean m "s");
  same "p50" (list_percentile 50.0) (Metrics.percentile m "s" 50.0);
  same "p99" (list_percentile 99.0) (Metrics.percentile m "s" 99.0);
  same "max" list_max (Metrics.max_sample m "s");
  check_bool "samples oldest first" true (Metrics.samples m "s" = xs);
  let dst = Metrics.create () in
  Metrics.observe dst "s" 100.0;
  Metrics.merge_into ~dst m;
  check_bool "merge appends in order" true (Metrics.samples dst "s" = 100.0 :: xs)

(* ------------------------------------------------------------------ *)
(* Property tests *)

(* Each event's thunk logs its sequence number and daemon flag:
   everything comes out in (time, seq) order, and only a plain event's pop
   lowers the pending count. *)
let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (int_range 0 20))
    (fun xs ->
      let h = Heap.create () in
      let ran = ref (-1, false) in
      let pushed =
        List.mapi
          (fun seq x ->
            let daemon = x mod 3 = 0 in
            Heap.push h ~delay:(float_of_int x) ~daemon (fun () -> ran := (seq, daemon));
            (float_of_int x, seq, daemon))
          xs
      in
      let flags_agree = ref true in
      let rec drain acc =
        if Heap.is_empty h then List.rev acc
        else
          let pending = Heap.pending h in
          (Heap.pop h) ();
          let seq, daemon = !ran in
          flags_agree :=
            !flags_agree && Heap.pending h = pending - if daemon then 0 else 1;
          drain ((Heap.now h, seq, daemon) :: acc)
      in
      drain [] = List.sort compare pushed && !flags_agree)

(* Merge-order model test. Random fiber programs of [schedule], [spawn],
   [yield], [sleep], [timeout] (settled or not) and [daemon_sleep 0.0] run
   on the engine in random [~max_steps] slices, with and without
   [~until], then drain. A reference model with one list of events and no
   now-queue replays them, running each event in (time, seq) order. Both
   logs — which step ran, at what time, and where each slice stopped —
   must agree, as must the final event count and clock. Delays include
   one that rounds to zero at any clock from 0.5 up, and guards due at
   once ([dt] of -1 or 0), so heap events land at the current instant
   after now-queue pushes. Guards of four positive delays fill as many
   lanes, whose heads interleave with heap events of equal time. *)
type eop =
  | Sleep of float
  | Yield
  | Timeout of float * float option (* guard delay, settle delay *)
  | Daemon_sleep0
  | Spawn of (int * eop) list
  | Schedule of float

let tiny = 1e-17 (* positive, yet [c +. tiny = c] for any c >= 0.5 *)

let rec show_eop = function
  | Sleep d -> Printf.sprintf "sleep %g" d
  | Yield -> "yield"
  | Timeout (dt, s) ->
      Printf.sprintf "timeout %g%s" dt
        (match s with None -> "" | Some d -> Printf.sprintf " settle %g" d)
  | Daemon_sleep0 -> "daemon_sleep 0"
  | Spawn ops -> "spawn " ^ show_script ops
  | Schedule d -> Printf.sprintf "schedule %g" d

and show_script ops =
  let step (id, op) = Printf.sprintf "%d:%s" id (show_eop op) in
  "[" ^ String.concat "; " (List.map step ops) ^ "]"

let gen_engine_prog =
  let open QCheck.Gen in
  let delay = oneofl [ 0.0; tiny; 0.5; 1.0 ] in
  let rec op depth =
    frequency
      ([
         (3, map (fun d -> Sleep d) delay);
         (2, return Yield);
         (3, map2 (fun dt s -> Timeout (dt, s))
               (oneofl [ -1.0; 0.0; tiny; 0.5; 1.0; 1.5 ])
               (opt delay));
         (1, return Daemon_sleep0);
         (2, map (fun d -> Schedule d) delay);
       ]
      @ if depth > 0 then [ (2, map (fun ops -> Spawn ops) (script (depth - 1))) ]
        else [])
  and script depth =
    map (List.map (fun o -> (0, o))) (list_size (int_range 0 5) (op depth))
  in
  (* Number every step once, so a log entry names it. *)
  let number fibers =
    let next = ref 0 in
    let rec go ops =
      List.map
        (fun (_, o) ->
          incr next;
          let id = !next in
          (id, match o with Spawn sub -> Spawn (go sub) | o -> o))
        ops
    in
    List.map go fibers
  in
  let slice = pair (int_range 1 6) (opt (oneofl [ -1.0; 0.0; 0.5; 1.0 ])) in
  map2
    (fun fibers slices -> (number fibers, slices))
    (list_size (int_range 1 4) (script 2))
    (list_size (int_range 0 8) slice)

let show_engine_prog (fibers, slices) =
  String.concat "\n" (List.map show_script fibers)
  ^ "\nslices: "
  ^ String.concat " "
      (List.map
         (fun (n, u) ->
           Printf.sprintf "%d/%s" n
             (match u with None -> "-" | Some u -> Printf.sprintf "%g" u))
         slices)

(* The reference: every event in one list, run by least (time, seq). *)
module Ref_engine = struct
  type ev = {
    time : float;
    seq : int;
    daemon : bool;
    mutable live : bool;
    run : unit -> unit;
  }

  type t = {
    mutable clock : float;
    mutable seq : int;
    mutable evs : ev list;
    mutable processed : int;
  }

  let create () = { clock = 0.0; seq = 0; evs = []; processed = 0 }

  let push m ~daemon delay run =
    let time = if m.clock +. delay <= m.clock then m.clock else m.clock +. delay in
    let e = { time; seq = m.seq; daemon; live = true; run } in
    m.seq <- m.seq + 1;
    m.evs <- e :: m.evs;
    e

  let run ?(until = infinity) ?(max_steps = max_int) m =
    let drain = until = infinity in
    let rec loop steps =
      m.evs <- List.filter (fun e -> e.live) m.evs;
      let idle = m.evs = [] || (drain && List.for_all (fun e -> e.daemon) m.evs) in
      if steps < max_steps && not idle then begin
        let e =
          List.fold_left
            (fun a b -> if (b.time, b.seq) < (a.time, a.seq) then b else a)
            (List.hd m.evs) m.evs
        in
        if e.time <= until then begin
          e.live <- false;
          if e.time > m.clock then m.clock <- e.time;
          m.processed <- m.processed + 1;
          e.run ();
          loop (steps + 1)
        end
      end
    in
    loop 0

  (* A fiber is its remaining steps; suspending hands [register] a resumer
     that, once, queues the rest of the fiber at the current instant. *)
  let rec fiber m log = function
    | [] -> ()
    | (id, op) :: rest -> (
        log ('f', id, m.clock);
        let suspend register =
          let fired = ref false in
          register (fun () ->
              if not !fired then begin
                fired := true;
                ignore (push m ~daemon:false 0.0 (fun () -> fiber m log rest))
              end)
        in
        match op with
        | Sleep d -> suspend (fun resume -> ignore (push m ~daemon:false d resume))
        | Yield -> suspend (fun resume -> ignore (push m ~daemon:false 0.0 resume))
        | Daemon_sleep0 ->
            suspend (fun resume -> ignore (push m ~daemon:true 0.0 resume))
        | Timeout (dt, settle) ->
            suspend (fun resume ->
                let guard = push m ~daemon:false dt resume in
                match settle with
                | None -> ()
                | Some d ->
                    ignore
                      (push m ~daemon:false d (fun () ->
                           if guard.live then begin
                             guard.live <- false;
                             resume ()
                           end)))
        | Spawn ops ->
            ignore
              (push m ~daemon:false 0.0 (fun () ->
                   log ('b', id, m.clock);
                   fiber m log ops));
            fiber m log rest
        | Schedule d ->
            ignore (push m ~daemon:false d (fun () -> log ('s', id, m.clock)));
            fiber m log rest)
end

let rec engine_fiber eng log ops =
  List.iter
    (fun (id, op) ->
      log ('f', id, Engine.now eng);
      match op with
      | Sleep d -> Engine.sleep eng d
      | Yield -> Engine.yield eng
      | Daemon_sleep0 -> Engine.daemon_sleep eng 0.0
      | Timeout (dt, settle) ->
          ignore
            (Engine.timeout eng dt (fun resume ->
                 match settle with
                 | None -> ()
                 | Some d -> Engine.schedule eng ~delay:d (fun () -> Engine.resume resume (Ok ())))
              : (unit, exn) result)
      | Spawn sub ->
          Engine.spawn eng (fun () ->
              log ('b', id, Engine.now eng);
              engine_fiber eng log sub)
      | Schedule d ->
          Engine.schedule eng ~delay:d (fun () -> log ('s', id, Engine.now eng)))
    ops

let prop_engine_merge_order =
  QCheck.Test.make ~name:"now-queue and heap run in (time, seq) order" ~count:500
    (QCheck.make ~print:show_engine_prog gen_engine_prog)
    (fun (fibers, slices) ->
      let eng = Engine.create () and m = Ref_engine.create () in
      let got = ref [] and want = ref [] in
      let log_got e = got := e :: !got and log_want e = want := e :: !want in
      (* Start every fiber at 0.5, so [tiny] rounds to zero from the first
         step on. *)
      List.iter
        (fun ops ->
          Engine.schedule eng ~delay:0.5 (fun () ->
              Engine.spawn eng (fun () -> engine_fiber eng log_got ops));
          let start () = Ref_engine.fiber m log_want ops in
          ignore
            (Ref_engine.push m ~daemon:false 0.5 (fun () ->
                 ignore (Ref_engine.push m ~daemon:false 0.0 start))))
        fibers;
      List.iter
        (fun (max_steps, until) ->
          (match until with
          | None ->
              Engine.run ~max_steps eng;
              Ref_engine.run ~max_steps m
          | Some u ->
              let until = Engine.now eng +. u in
              Engine.run ~until ~max_steps eng;
              Ref_engine.run ~until ~max_steps m);
          (* Each slice ends after the same count, at the same time. *)
          log_got ('|', Engine.processed_events eng, Engine.now eng);
          log_want ('|', m.Ref_engine.processed, m.Ref_engine.clock))
        slices;
      Engine.run eng;
      Ref_engine.run m;
      let show log =
        String.concat " "
          (List.rev_map (fun (c, id, t) -> Printf.sprintf "%c%d@%g" c id t) log)
      in
      if !got <> !want then
        QCheck.Test.fail_reportf "engine ran %s\nmodel ran  %s" (show !got) (show !want);
      Engine.processed_events eng = m.Ref_engine.processed
      && Engine.now eng = m.Ref_engine.clock)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair int64 (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_metrics_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Metrics.create () in
      List.iter (Metrics.observe m "d") xs;
      let p25 = Metrics.percentile m "d" 25.0
      and p75 = Metrics.percentile m "d" 75.0 in
      p25 <= p75)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "sim.heap",
      [
        tc "order" `Quick test_heap_order;
        tc "empty" `Quick test_heap_empty;
        tc "peek stable" `Quick test_heap_peek_stable;
        tc "large" `Quick test_heap_large;
        Test_util.qcheck prop_heap_sorts;
      ] );
    ( "sim.rng",
      [
        tc "deterministic" `Quick test_rng_deterministic;
        tc "split independent" `Quick test_rng_split_independent;
        tc "int bounds" `Quick test_rng_int_bounds;
        tc "float bounds" `Quick test_rng_float_bounds;
        tc "bool extremes" `Quick test_rng_bool_extremes;
        tc "pick" `Quick test_rng_pick;
        tc "shuffle permutation" `Quick test_rng_shuffle_permutation;
        tc "stream pinned" `Quick test_rng_stream_pinned;
        Test_util.qcheck prop_rng_int_in_bounds;
      ] );
    ( "sim.engine",
      [
        tc "clock advances" `Quick test_engine_clock_advances;
        tc "fifo at same time" `Quick test_engine_ordering_fifo_at_same_time;
        tc "schedule callback" `Quick test_engine_schedule_callback;
        tc "kill group stops fiber" `Quick test_engine_kill_group_stops_fiber;
        tc "kill before start" `Quick test_engine_kill_before_start;
        tc "timeout fires" `Quick test_engine_timeout_fires;
        tc "timeout beaten by result" `Quick test_engine_timeout_beaten_by_result;
        tc "fiber exception propagates" `Quick test_engine_fiber_exception_propagates;
        tc "deadlock detection" `Quick test_engine_deadlock_detection;
        tc "leaked fibers" `Quick test_engine_leaked_fibers;
        tc "yield interleaves" `Quick test_engine_yield_interleaves;
        tc "until bound" `Quick test_engine_until_bound;
        tc "now-queue events counted" `Quick test_engine_now_queue_counted;
        tc "until below clock runs nothing" `Quick test_engine_until_below_clock;
        tc "no deadlock with now-queue events" `Quick
          test_engine_no_deadlock_on_now_queue;
        tc "daemon sleep 0 drains" `Quick test_engine_daemon_sleep_zero;
        tc "run to quiescence is bounded" `Quick test_engine_run_to_quiescence;
        tc "timeout guard due now" `Quick test_engine_timeout_guard_due_now;
        tc "start allocation" `Quick test_engine_start_alloc;
        tc "timeout allocation" `Quick test_engine_timeout_alloc;
        Test_util.qcheck prop_engine_merge_order;
        tc "suspension allocation" `Quick test_engine_suspend_alloc;
        tc "settled guards leave their lanes" `Quick test_engine_settled_guards_leave;
        Test_util.qcheck prop_guard_lanes;
      ] );
    ( "sim.ivar",
      [
        tc "fill then read" `Quick test_ivar_fill_then_read;
        tc "read then fill" `Quick test_ivar_read_then_fill;
        tc "multiple readers" `Quick test_ivar_multiple_readers;
        tc "double fill raises" `Quick test_ivar_double_fill_raises;
        tc "read timeout" `Quick test_ivar_read_timeout;
      ] );
    ( "sim.semaphore",
      [
        tc "limits concurrency" `Quick test_semaphore_limits_concurrency;
        tc "try acquire" `Quick test_semaphore_try_acquire;
        tc "no lost permit on killed waiter" `Quick
          test_semaphore_no_lost_permit_on_killed_waiter;
      ] );
    ( "sim.trace",
      [
        tc "record and query" `Quick test_trace_record_and_query;
        tc "disabled drops" `Quick test_trace_disabled_drops;
        tc "disabled does not allocate" `Quick test_trace_disabled_no_alloc;
        tc "recordf" `Quick test_trace_recordf;
      ] );
    ( "sim.metrics",
      [
        tc "counters" `Quick test_metrics_counters;
        tc "incr allocates nothing" `Quick test_metrics_incr_no_alloc;
        tc "samples" `Quick test_metrics_samples;
        tc "percentile edges" `Quick test_metrics_percentile_edges;
        tc "merge" `Quick test_metrics_merge;
        tc "samples unboxed" `Quick test_metrics_samples_unboxed;
        tc "growth matches list" `Quick test_metrics_growth_matches_list;
        Test_util.qcheck prop_metrics_percentile_monotone;
      ] );
  ]
