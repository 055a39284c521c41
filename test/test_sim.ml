(* Tests for the simulation kernel: heap, rng, engine, ivar, mailbox,
   semaphore, trace, metrics. *)

open Sim

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Heap *)

(* The heap is the engine's event queue: events keyed by time, ties broken
   by push order. [drain_times] pops everything and returns the times. *)
let push_at h time = Heap.push h ~time ~daemon:false ignore

let drain_times h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc else go ((Heap.pop h).Heap.time :: acc)
  in
  go []

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun t -> ignore (push_at h t)) [ 5.; 1.; 4.; 1.; 3.; 9.; 2. ];
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.; 1.; 2.; 3.; 4.; 5.; 9. ] (drain_times h)

let test_heap_empty () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  (match Heap.top h with
  | _ -> Alcotest.fail "top of an empty queue"
  | exception Invalid_argument _ -> ());
  match Heap.pop h with
  | _ -> Alcotest.fail "pop of an empty queue"
  | exception Invalid_argument _ -> ()

let test_heap_peek_stable () =
  let h = Heap.create () in
  ignore (push_at h 3.0);
  let e = push_at h 1.0 in
  check_bool "top" true (Heap.top h == e);
  check_int "length unchanged" 2 (Heap.length h);
  check_bool "still queued" true (Heap.queued e)

let test_heap_clear () =
  let h = Heap.create () in
  let es = List.map (push_at h) [ 1.; 2.; 3. ] in
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h);
  check_bool "none queued" false (List.exists Heap.queued es)

let test_heap_large () =
  let h = Heap.create () in
  let rng = Rng.create 42L in
  for _ = 1 to 10_000 do
    ignore (push_at h (float_of_int (Rng.int rng 1_000_000)))
  done;
  let rec drain prev n =
    if Heap.is_empty h then n
    else
      let e = Heap.pop h in
      if e.Heap.time < prev then Alcotest.fail "heap order violated";
      drain e.Heap.time (n + 1)
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
            Engine.schedule eng ~delay:2.0 (fun () -> resume (Ok 42)))
      in
      resumed_at := Engine.now eng;
      match r with
      | Ok v -> outcome := string_of_int v
      | Error _ -> outcome := "timeout");
  Engine.run eng;
  Alcotest.(check string) "result wins" "42" !outcome;
  check_float "resumed early" 2.0 !resumed_at

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
(* Mailbox *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv eng mb :: !got
      done);
  Engine.spawn eng (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Engine.run eng;
  Alcotest.(check (list int)) "fifo order" [ 3; 2; 1 ] !got

let test_mailbox_blocking_recv () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let at = ref 0.0 in
  Engine.spawn eng (fun () ->
      ignore (Mailbox.recv eng mb : int);
      at := Engine.now eng);
  Engine.schedule eng ~delay:6.0 (fun () -> Mailbox.send mb 1);
  Engine.run eng;
  check_float "woke at send" 6.0 !at

let test_mailbox_recv_timeout () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let outcome = ref "none" in
  Engine.spawn eng (fun () ->
      match Mailbox.recv_timeout eng 3.0 mb with
      | Ok _ -> outcome := "ok"
      | Error Engine.Timed_out -> outcome := "timeout"
      | Error _ -> outcome := "other");
  Engine.run eng;
  Alcotest.(check string) "timeout" "timeout" !outcome

let test_mailbox_no_lost_message_on_killed_waiter () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let g = Engine.new_group eng in
  let got = ref 0 in
  (* A doomed waiter queues first, then is killed; a healthy waiter must
     still receive the message. *)
  Engine.spawn eng ~group:g (fun () -> got := Mailbox.recv eng mb);
  Engine.schedule eng ~delay:1.0 (fun () -> Engine.kill_group eng g);
  Engine.schedule eng ~delay:2.0 (fun () ->
      Engine.spawn eng (fun () -> got := Mailbox.recv eng mb));
  Engine.schedule eng ~delay:3.0 (fun () -> Mailbox.send mb 42);
  Engine.run eng;
  check_int "healthy waiter got it" 42 !got

let test_mailbox_try_recv () =
  let mb = Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Mailbox.try_recv mb);
  Mailbox.send mb 5;
  Alcotest.(check (option int)) "value" (Some 5) (Mailbox.try_recv mb);
  Alcotest.(check int) "drained" 0 (Mailbox.length mb)

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

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_record_and_query () =
  let tr = Trace.create () in
  Trace.record tr ~now:1.0 ~tag:"rpc" "call a";
  Trace.record tr ~now:2.0 ~tag:"gvd" "exclude n3";
  Trace.record tr ~now:3.0 ~tag:"rpc" "call b";
  check_int "rpc count" 2 (Trace.count tr ~tag:"rpc");
  check_int "find" 1 (List.length (Trace.find tr ~tag:"gvd" ~substring:"n3"));
  match Trace.entries tr with
  | { Trace.at; _ } :: _ -> check_float "order" 1.0 at
  | [] -> Alcotest.fail "no entries"

let test_trace_disabled_drops () =
  let tr = Trace.create ~enabled:false () in
  Trace.record tr ~now:1.0 ~tag:"x" "y";
  Trace.recordf tr ~now:1.0 ~tag:"x" "%d" 42;
  check_int "empty" 0 (List.length (Trace.entries tr))

let test_trace_disabled_no_alloc () =
  let tr = Trace.create ~enabled:false () in
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

(* ------------------------------------------------------------------ *)
(* Property tests *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (int_range 0 20))
    (fun xs ->
      let h = Heap.create () in
      let es = List.map (fun x -> push_at h (float_of_int x)) xs in
      let key (e : Heap.event) = (e.time, e.seq) in
      let rec drain acc =
        if Heap.is_empty h then List.rev acc else drain (key (Heap.pop h) :: acc)
      in
      drain [] = List.sort compare (List.map key es))

(* Model test of the queue: a random program of pushes, removals of a
   random queued-or-not event, and pops, checked against a sorted list.
   Each event's thunk logs its id; popping runs it. A removed event must
   never come out, and everything pops in (time, seq) order. *)
let prop_queue_model =
  QCheck.Test.make ~name:"queue model: push, remove, pop" ~count:300
    QCheck.(list (pair (int_range 0 2) (int_range 0 15)))
    (fun prog ->
      let h = Heap.create () in
      let ran = ref None in
      let pushed = ref [] (* newest first *) in
      let model = ref [] (* (time, seq) of the queued events *) in
      let removed = ref [] in
      let ok = ref true in
      let pop () =
        match List.sort compare !model with
        | [] -> ok := !ok && Heap.is_empty h
        | (time, seq) :: rest ->
            let e = Heap.pop h in
            ran := None;
            e.Heap.thunk ();
            ok :=
              !ok && e.Heap.time = time && !ran = Some seq
              && not (List.mem seq !removed);
            model := rest
      in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
              let seq = List.length !pushed in
              let e =
                Heap.push h ~time:(float_of_int x) ~daemon:false (fun () ->
                    ran := Some seq)
              in
              ok := !ok && e.Heap.seq = seq;
              pushed := e :: !pushed;
              model := (float_of_int x, seq) :: !model
          | 1 when !pushed <> [] ->
              let e = List.nth !pushed (x mod List.length !pushed) in
              Heap.remove h e;
              removed := e.Heap.seq :: !removed;
              model := List.filter (fun (_, s) -> s <> e.Heap.seq) !model;
              ok := !ok && not (Heap.queued e)
          | _ -> pop ())
        prog;
      while !model <> [] do
        pop ()
      done;
      !ok && Heap.is_empty h)

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
        tc "clear" `Quick test_heap_clear;
        tc "large" `Quick test_heap_large;
        Test_util.qcheck prop_heap_sorts;
        Test_util.qcheck prop_queue_model;
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
      ] );
    ( "sim.ivar",
      [
        tc "fill then read" `Quick test_ivar_fill_then_read;
        tc "read then fill" `Quick test_ivar_read_then_fill;
        tc "multiple readers" `Quick test_ivar_multiple_readers;
        tc "double fill raises" `Quick test_ivar_double_fill_raises;
        tc "read timeout" `Quick test_ivar_read_timeout;
      ] );
    ( "sim.mailbox",
      [
        tc "fifo" `Quick test_mailbox_fifo;
        tc "blocking recv" `Quick test_mailbox_blocking_recv;
        tc "recv timeout" `Quick test_mailbox_recv_timeout;
        tc "no lost message on killed waiter" `Quick
          test_mailbox_no_lost_message_on_killed_waiter;
        tc "try recv" `Quick test_mailbox_try_recv;
      ] );
    ( "sim.semaphore",
      [
        tc "limits concurrency" `Quick test_semaphore_limits_concurrency;
        tc "try acquire" `Quick test_semaphore_try_acquire;
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
        tc "samples" `Quick test_metrics_samples;
        tc "percentile edges" `Quick test_metrics_percentile_edges;
        tc "merge" `Quick test_metrics_merge;
        Test_util.qcheck prop_metrics_percentile_monotone;
      ] );
  ]
