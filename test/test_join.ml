(* Tests for the structured scatter-gather combinators (Sim.Join). *)

open Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* Run [f eng] inside a fiber of a fresh engine and return its result
   together with the virtual time at which the fan-out completed. *)
let in_fiber ?(seed = 1L) f =
  let eng = Engine.create ~seed () in
  let out = ref None in
  Engine.spawn eng (fun () ->
      let r = f eng in
      out := Some (r, Engine.now eng));
  Engine.run eng;
  match !out with
  | Some r -> r
  | None -> Alcotest.fail "fiber did not complete"

(* ------------------------------------------------------------------ *)
(* all *)

let test_all_task_order () =
  (* Completion order is the reverse of task order; results must still
     come back in task order. *)
  let delays = [ 5.0; 3.0; 1.0 ] in
  let r, t =
    in_fiber (fun eng ->
        Join.all eng
          (List.mapi
             (fun i d () ->
               Engine.sleep eng d;
               i)
             delays))
  in
  Alcotest.(check (list int)) "task order" [ 0; 1; 2 ] r;
  check_float "joins at slowest task" 5.0 t

let test_all_empty () =
  let r, t = in_fiber (fun eng -> Join.all eng []) in
  check_int "no results" 0 (List.length r);
  check_float "no time passes" 0.0 t

let test_all_single_inline () =
  (* A one-element scatter runs inline: same fiber, no extra suspension. *)
  let r, t =
    in_fiber (fun eng ->
        Join.all eng
          [
            (fun () ->
              Engine.sleep eng 2.0;
              "only");
          ])
  in
  Alcotest.(check (list string)) "result" [ "only" ] r;
  check_float "slept exactly the task's time" 2.0 t

let test_all_parallel_elapsed () =
  (* N concurrent sleeps cost max, not sum. *)
  let _, t =
    in_fiber (fun eng ->
        Join.all eng (List.init 8 (fun _ () -> Engine.sleep eng 3.0)))
  in
  check_float "max not sum" 3.0 t

let test_all_deterministic () =
  (* Same seed => identical results and identical virtual trajectory,
     even though every task draws a random latency. *)
  let run seed =
    in_fiber ~seed (fun eng ->
        let rng = Rng.split (Engine.rng eng) in
        Join.all eng
          (List.init 6 (fun i () ->
               Engine.sleep eng (Rng.float rng 10.0);
               (i, Engine.now eng))))
  in
  let r1, t1 = run 99L and r2, t2 = run 99L in
  check_bool "same results" true (r1 = r2);
  check_float "same elapsed" t1 t2;
  let r3, _ = run 100L in
  check_bool "different seed, different draws" true (r1 <> r3)

(* ------------------------------------------------------------------ *)
(* crash fate *)

let test_workers_share_caller_group () =
  (* Killing the caller's group mid-scatter silences the workers too:
     structured concurrency means no orphaned side effects. *)
  let eng = Engine.create () in
  let g = Engine.new_group eng in
  let late_effects = ref 0 in
  Engine.spawn eng ~group:g (fun () ->
      ignore
        (Join.all eng
           (List.init 3 (fun _ () ->
                Engine.sleep eng 10.0;
                incr late_effects))));
  Engine.schedule eng ~delay:5.0 (fun () -> Engine.kill_group eng g);
  Engine.run eng;
  check_int "no worker survived the crash" 0 !late_effects

let suite =
  [
    ( "join",
      [
        Alcotest.test_case "all: results in task order" `Quick
          test_all_task_order;
        Alcotest.test_case "all: empty scatter" `Quick test_all_empty;
        Alcotest.test_case "all: single task runs inline" `Quick
          test_all_single_inline;
        Alcotest.test_case "all: elapsed is max not sum" `Quick
          test_all_parallel_elapsed;
        Alcotest.test_case "all: deterministic under seed" `Quick
          test_all_deterministic;
        Alcotest.test_case "workers share caller's crash fate" `Quick
          test_workers_share_caller_group;
      ] );
  ]
