(* Tests for the experiment harness: every table regenerates, and the
   qualitative shapes the paper claims actually hold in the output. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Table rendering *)

let test_table_renders_aligned () =
  let t =
    Workload.Table.make ~title:"demo" ~columns:[ "a"; "long-column" ]
      ~notes:[ "a note" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let s = Format.asprintf "%a" Workload.Table.pp t in
  check_bool "title" true (String.length s > 0);
  check_bool "note included" true
    (String.length s >= 6
    && Astring.String.is_infix ~affix:"a note" s)

let test_table_cells () =
  Alcotest.(check string) "float" "12.35" (Workload.Table.cell_f 12.345);
  Alcotest.(check string) "nan" "-" (Workload.Table.cell_f nan);
  Alcotest.(check string) "pct" "97.5%" (Workload.Table.cell_pct 0.975);
  Alcotest.(check string) "int" "42" (Workload.Table.cell_i 42)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_complete () =
  let ids = Workload.Registry.ids () in
  check_int "twenty-three experiments" 23 (List.length ids);
  List.iter
    (fun id ->
      check_bool (id ^ " found") true (Workload.Registry.find id <> None))
    [
      "fig1-divergence"; "fig5-general"; "tab-schemes"; "tab-hybrid";
      "tab-shard-scaling"; "tab-chaos"; "tab-brownout";
    ];
  check_bool "unknown rejected" true (Workload.Registry.find "nope" = None)

(* ------------------------------------------------------------------ *)
(* Experiment shapes *)

let nth_cell row i = List.nth row i

let test_fig1_shape () =
  let t = Workload.Exp_fig1.run ~trials:120 () in
  match t.Workload.Table.rows with
  | [ unreliable; atomic ] ->
      let div_unreliable = int_of_string (nth_cell unreliable 4) in
      let div_atomic = int_of_string (nth_cell atomic 4) in
      check_bool "unreliable diverges sometimes" true (div_unreliable > 0);
      check_int "atomic never diverges" 0 div_atomic
  | _ -> Alcotest.fail "unexpected row count"

let availability_of (o : Workload.Exp_availability.outcome) =
  Workload.Exp_availability.availability o

let test_fig3_shape_more_stores_more_availability () =
  let run n_st =
    Workload.Exp_availability.run_config ~actions:60 ~n_sv:1 ~n_st
      ~policy:Replica.Policy.Single_copy_passive
      ~store_churn:{ Workload.Exp_availability.mttf = 80.0; mttr = 25.0 } ()
  in
  let a1 = availability_of (run 1) in
  let a3 = availability_of (run 3) in
  check_bool "replication helps" true (a3 > a1)

let test_fig4_shape_more_servers_more_availability () =
  let run k policy =
    Workload.Exp_availability.run_config ~actions:60 ~n_sv:k ~n_st:1 ~policy
      ~server_churn:{ Workload.Exp_availability.mttf = 80.0; mttr = 25.0 } ()
  in
  let a1 = availability_of (run 1 (Replica.Policy.Active 1)) in
  let a3 = availability_of (run 3 (Replica.Policy.Active 3)) in
  let c3 = availability_of (run 3 (Replica.Policy.Coordinator_cohort 3)) in
  check_bool "active replication helps" true (a3 > a1);
  check_bool "coordinator-cohort helps" true (c3 > a1)

let test_schemes_shape () =
  let std = Workload.Exp_schemes.run_scheme Naming.Scheme.Standard in
  let ind = Workload.Exp_schemes.run_scheme Naming.Scheme.Independent in
  let ntl = Workload.Exp_schemes.run_scheme Naming.Scheme.Nested_toplevel in
  (* Scheme A: futile binds, static Sv. *)
  check_bool "standard pays futile binds" true
    (std.Workload.Exp_schemes.r_futile > 0);
  check_int "standard never removes" 0 std.Workload.Exp_schemes.r_removed_dead;
  (* Schemes B/C: fresh Sv, more database traffic, cleanup work. *)
  check_bool "independent prunes the dead server" true
    (ind.Workload.Exp_schemes.r_removed_dead > 0);
  check_bool "independent avoids futile binds" true
    (ind.Workload.Exp_schemes.r_futile < std.Workload.Exp_schemes.r_futile);
  check_bool "independent costs more db ops" true
    (ind.Workload.Exp_schemes.r_db_ops > std.Workload.Exp_schemes.r_db_ops);
  check_bool "independent cleans the crashed client's counters" true
    (ind.Workload.Exp_schemes.r_orphans > 0);
  (* B and C are behaviourally identical. *)
  check_int "B and C same db ops" ind.Workload.Exp_schemes.r_db_ops
    ntl.Workload.Exp_schemes.r_db_ops;
  check_int "B and C same commits" ind.Workload.Exp_schemes.r_commits
    ntl.Workload.Exp_schemes.r_commits

let test_exclock_shape () =
  let t = Workload.Exp_exclock.run () in
  List.iteri
    (fun i row ->
      let readers = int_of_string (nth_cell row 0) in
      ignore i;
      Alcotest.(check string)
        (Printf.sprintf "exclude-write commits with %d readers" readers)
        "commit" (nth_cell row 1);
      if readers > 0 then
        Alcotest.(check string)
          (Printf.sprintf "plain write aborts with %d readers" readers)
          "ABORT" (nth_cell row 2))
    t.Workload.Table.rows

let test_readopt_shape () =
  let t = Workload.Exp_readopt.run () in
  let first = List.hd t.Workload.Table.rows in
  let last = List.nth t.Workload.Table.rows (List.length t.Workload.Table.rows - 1) in
  (* All-writes: no skips; all-reads: no state copies. *)
  check_int "no skips when all write" 0 (int_of_string (nth_cell first 2));
  check_int "no copies when all read" 0 (int_of_string (nth_cell last 3))

let test_hybrid_shape () =
  let t = Workload.Exp_hybrid.run () in
  match t.Workload.Table.rows with
  | [ atomic; hybrid ] ->
      check_bool "atomic variant does sv ops" true
        (int_of_string (nth_cell atomic 3) > 0);
      check_int "hybrid does none" 0 (int_of_string (nth_cell hybrid 3));
      Alcotest.(check string) "atomic invariant" "holds" (nth_cell atomic 5);
      Alcotest.(check string) "hybrid invariant" "holds" (nth_cell hybrid 5)
  | _ -> Alcotest.fail "unexpected row count"

let test_checkpoint_shape () =
  let t = Workload.Exp_checkpoint.run () in
  match t.Workload.Table.rows with
  | [ eager; lazy_ ] ->
      let cell r i = int_of_string (List.nth r i) in
      check_bool "eager commits everything" true (cell eager 2 = cell eager 1);
      check_int "eager never loses staging" 0 (cell eager 3);
      check_bool "eager rides out injected crashes" true (cell eager 7 > 0);
      check_bool "lazy loses some mid-action failovers" true (cell lazy_ 3 > 0);
      check_bool "lazy has injected crashes" true (cell lazy_ 7 > 0);
      check_bool "lazy loses at least every injected crash" true
        (cell lazy_ 3 >= cell lazy_ 7);
      check_bool "lazy sends far fewer checkpoints" true
        (cell lazy_ 5 * 2 < cell eager 5)
  | _ -> Alcotest.fail "unexpected row count"

let test_ns_outage_shape () =
  let t = Workload.Exp_ns_outage.run () in
  match t.Workload.Table.rows with
  | [ before; during; after ] ->
      let cell r i = int_of_string (List.nth r i) in
      check_bool "commits before" true (cell before 1 > 0);
      check_int "nothing commits during the outage" 0 (cell during 1);
      check_bool "binds fail during the outage" true (cell during 2 > 0);
      check_bool "workload resumes after recovery" true (cell after 1 > 0);
      check_int "no aborts after recovery" 0 (cell after 2);
      check_bool "invariant note present" true
        (List.exists
           (fun n -> Astring.String.is_infix ~affix:"holds" n)
           t.Workload.Table.notes)
  | _ -> Alcotest.fail "unexpected row count"

(* The flagship end-to-end property: exactly-once accounting and mutual
   consistency under randomized schemes, policies and churn. *)
let prop_accounting_exact =
  QCheck.Test.make ~name:"accounting exact under churn" ~count:30
    QCheck.(int_range 1 100_000)
    (fun seed ->
      Workload.Audit.exact
        (Workload.Audit.counter_stress ~seed:(Int64.of_int seed) ()))

let prop_accounting_exact_single_copy =
  QCheck.Test.make ~name:"accounting exact (single-copy passive)" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      Workload.Audit.exact
        (Workload.Audit.counter_stress ~seed:(Int64.of_int seed)
           ~policy:Replica.Policy.Single_copy_passive ()))

let prop_accounting_exact_cc =
  QCheck.Test.make ~name:"accounting exact (coordinator-cohort)" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      Workload.Audit.exact
        (Workload.Audit.counter_stress ~seed:(Int64.of_int seed)
           ~policy:(Replica.Policy.Coordinator_cohort 2) ()))

let test_scaling_shape () =
  let t = Workload.Exp_scaling.run () in
  List.iter
    (fun row ->
      let attempts = int_of_string (List.nth row 1) in
      let commits = int_of_string (List.nth row 2) in
      check_bool (List.nth row 0 ^ " keeps committing") true
        (attempts > 0 && commits > 0))
    t.Workload.Table.rows;
  check_bool "invariant holds" true
    (List.exists (fun n -> Astring.String.is_infix ~affix:"holds" n)
       t.Workload.Table.notes)

let test_partition_shape () =
  let t = Workload.Exp_partition.run () in
  let cell client phase i =
    let row =
      List.find
        (fun r -> List.nth r 0 = client && List.nth r 1 = phase)
        t.Workload.Table.rows
    in
    int_of_string (List.nth row i)
  in
  check_bool "near unaffected during cut" true (cell "near" "cut" 2 > 0);
  check_int "far commits nothing during cut" 0 (cell "far" "cut" 2);
  check_bool "far aborts during cut" true (cell "far" "cut" 3 > 0);
  check_bool "far resumes after healing" true (cell "far" "post" 2 > 0);
  check_bool "invariant holds" true
    (List.exists (fun n -> Astring.String.is_infix ~affix:"holds" n)
       t.Workload.Table.notes)

let test_ns_failover_shape () =
  let t = Workload.Exp_ns_failover.run () in
  let cell variant phase i =
    let row =
      List.find
        (fun r -> List.nth r 0 = variant && List.nth r 1 = phase)
        t.Workload.Table.rows
    in
    int_of_string (List.nth row i)
  in
  check_int "single commits nothing during outage" 0
    (cell "single durable" "during outage" 2);
  check_bool "pair keeps committing" true
    (cell "mirrored pair" "during outage" 2 > 0);
  check_bool "pair resumes" true (cell "mirrored pair" "after recovery" 2 > 0);
  check_bool "both invariants hold" true
    (List.exists
       (fun n -> Astring.String.is_infix ~affix:"single=holds, pair=holds" n)
       t.Workload.Table.notes)

let test_contention_shape () =
  let t = Workload.Exp_contention.run () in
  let cell clients scheme i =
    let row =
      List.find
        (fun r -> List.nth r 0 = string_of_int clients && List.nth r 1 = scheme)
        t.Workload.Table.rows
    in
    float_of_string (List.nth row i)
  in
  let latency clients scheme = cell clients scheme 2 in
  let rounds clients scheme = cell clients scheme 3 in
  let waits clients scheme = int_of_float (cell clients scheme 4) in
  (* Scheme A's shared reads stay flat, as before. *)
  check_bool "standard flat" true
    (latency 8 "standard" < 2.0 *. latency 1 "standard");
  (* Snapshot reads + Delta-mode Increment: binds in B no longer
     serialise behind the write lock, so the curve stays flat instead of
     climbing, the database records no lock waits, and the batched bind
     stays within 1.5x of scheme A even at 32 clients. *)
  check_bool "independent flat" true
    (latency 8 "independent" < 1.5 *. latency 1 "independent");
  check_bool "independent within 1.5x of standard at 8" true
    (latency 8 "independent" < 1.5 *. latency 8 "standard");
  check_bool "independent within 1.5x of standard at 32" true
    (latency 32 "independent" < 1.5 *. latency 32 "standard");
  check_bool "independent waits collapsed" true (waits 8 "independent" <= 22);
  (* Round budget: every scheme's bind is one RPC round. *)
  check_bool "batched bind is one round" true
    (abs_float (rounds 8 "independent" -. 1.0) < 0.01);
  check_bool "standard is one round" true
    (abs_float (rounds 8 "standard" -. 1.0) < 0.01)

let test_all_experiments_produce_tables () =
  (* Every registered experiment runs to completion and yields rows. This
     is the harness's own end-to-end test (and it regenerates the full
     EXPERIMENTS.md content). *)
  List.iter
    (fun e ->
      let t = e.Workload.Registry.runner () in
      check_bool (e.Workload.Registry.id ^ " has rows") true
        (List.length t.Workload.Table.rows > 0))
    Workload.Registry.all

let suite =
  let tc = Alcotest.test_case in
  [
    ( "workload.table",
      [
        tc "renders aligned" `Quick test_table_renders_aligned;
        tc "cells" `Quick test_table_cells;
      ] );
    ("workload.registry", [ tc "complete" `Quick test_registry_complete ]);
    ( "workload.shapes",
      [
        tc "fig1 divergence" `Quick test_fig1_shape;
        tc "fig3 replicated state helps" `Quick
          test_fig3_shape_more_stores_more_availability;
        tc "fig4 replicated servers help" `Quick
          test_fig4_shape_more_servers_more_availability;
        tc "schemes trade-offs" `Quick test_schemes_shape;
        tc "exclude lock ablation" `Quick test_exclock_shape;
        tc "read optimisation" `Quick test_readopt_shape;
        tc "hybrid sheds sv actions" `Quick test_hybrid_shape;
        tc "checkpoint policy ablation" `Quick test_checkpoint_shape;
        tc "naming service outage" `Quick test_ns_outage_shape;
        tc "scaling under load" `Quick test_scaling_shape;
        tc "partition" `Quick test_partition_shape;
        tc "naming service replication" `Quick test_ns_failover_shape;
        tc "contention scaling" `Quick test_contention_shape;
        tc "all experiments produce tables" `Slow
          test_all_experiments_produce_tables;
      ] );
    ( "workload.audit",
      [
        Test_util.qcheck prop_accounting_exact;
        Test_util.qcheck prop_accounting_exact_single_copy;
        Test_util.qcheck prop_accounting_exact_cc;
      ] );
  ]
