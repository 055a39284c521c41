(* Tests for the lock manager: compatibility matrix, blocking acquisition,
   promotion (the paper's try-semantics), exclude-write sharing, transfer
   to parent actions. *)

open Lockmgr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mode = Alcotest.testable Mode.pp Mode.equal

(* ------------------------------------------------------------------ *)
(* Mode *)

let test_mode_matrix () =
  let open Mode in
  check_bool "r/r" true (compatible Read Read);
  check_bool "r/xw" true (compatible Read Exclude_write);
  check_bool "xw/r" true (compatible Exclude_write Read);
  check_bool "xw/xw" false (compatible Exclude_write Exclude_write);
  check_bool "r/w" false (compatible Read Write);
  check_bool "w/r" false (compatible Write Read);
  check_bool "w/w" false (compatible Write Write);
  check_bool "w/xw" false (compatible Write Exclude_write);
  check_bool "xw/w" false (compatible Exclude_write Write)

let test_mode_strength_and_covers () =
  let open Mode in
  Alcotest.check mode "strongest" Write (strongest Read Write);
  Alcotest.check mode "strongest xw" Exclude_write (strongest Read Exclude_write);
  check_bool "write covers read" true (covers Write Read);
  check_bool "xw covers read" true (covers Exclude_write Read);
  check_bool "read does not cover write" false (covers Read Write)

(* ------------------------------------------------------------------ *)
(* Manager *)

let with_engine f =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  f eng mgr;
  Sim.Engine.run eng

let test_try_acquire_shared_reads () =
  with_engine (fun _eng mgr ->
      check_bool "r1" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Read "k");
      check_bool "r2" true (Manager.try_acquire mgr ~owner:"a2" ~mode:Mode.Read "k");
      check_bool "w refused" false
        (Manager.try_acquire mgr ~owner:"a3" ~mode:Mode.Write "k");
      check_int "two holders" 2 (List.length (Manager.holders mgr "k")))

let test_write_excludes_all () =
  with_engine (fun _eng mgr ->
      check_bool "w" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
      check_bool "r refused" false
        (Manager.try_acquire mgr ~owner:"a2" ~mode:Mode.Read "k");
      check_bool "xw refused" false
        (Manager.try_acquire mgr ~owner:"a2" ~mode:Mode.Exclude_write "k"))

let test_exclude_write_shares_with_readers () =
  with_engine (fun _eng mgr ->
      check_bool "r1" true (Manager.try_acquire mgr ~owner:"r1" ~mode:Mode.Read "k");
      check_bool "r2" true (Manager.try_acquire mgr ~owner:"r2" ~mode:Mode.Read "k");
      check_bool "xw shares" true
        (Manager.try_acquire mgr ~owner:"w1" ~mode:Mode.Exclude_write "k");
      check_bool "second xw refused" false
        (Manager.try_acquire mgr ~owner:"w2" ~mode:Mode.Exclude_write "k");
      check_bool "new reader still ok" true
        (Manager.try_acquire mgr ~owner:"r3" ~mode:Mode.Read "k"))

let test_reentrant_acquire () =
  with_engine (fun _eng mgr ->
      check_bool "w" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k");
      check_bool "r under own w" true
        (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Read "k");
      Alcotest.(check (option mode))
        "still write" (Some Mode.Write)
        (Manager.holds mgr ~owner:"a" "k"))

let test_blocking_acquire_waits_for_release () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  let granted_at = ref nan in
  check_bool "w first" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
  Sim.Engine.spawn eng (fun () ->
      match Manager.acquire mgr ~owner:"a2" ~mode:Mode.Read "k" with
      | Ok () -> granted_at := Sim.Engine.now eng
      | Error `Timeout -> Alcotest.fail "unexpected timeout");
  Sim.Engine.schedule eng ~delay:5.0 (fun () -> Manager.release mgr ~owner:"a1" "k");
  Sim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "granted at release" 5.0 !granted_at

let test_acquire_timeout () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
  let outcome = ref (Ok ()) in
  Sim.Engine.spawn eng (fun () ->
      outcome := Manager.acquire mgr ~owner:"a2" ~mode:Mode.Read ~timeout:3.0 "k");
  Sim.Engine.run eng;
  check_bool "timed out" true (!outcome = Error `Timeout)

let test_queue_fairness_no_writer_starvation () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  let order = ref [] in
  (* r1 holds; writer queues; later reader must NOT overtake the writer. *)
  check_bool "r1" true (Manager.try_acquire mgr ~owner:"r1" ~mode:Mode.Read "k");
  Sim.Engine.spawn eng (fun () ->
      match Manager.acquire mgr ~owner:"w" ~mode:Mode.Write "k" with
      | Ok () -> order := "w" :: !order
      | Error _ -> ());
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.sleep eng 1.0;
      match Manager.acquire mgr ~owner:"r2" ~mode:Mode.Read "k" with
      | Ok () -> order := "r2" :: !order
      | Error _ -> ());
  Sim.Engine.schedule eng ~delay:2.0 (fun () -> Manager.release mgr ~owner:"r1" "k");
  Sim.Engine.schedule eng ~delay:3.0 (fun () -> Manager.release mgr ~owner:"w" "k");
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "writer first" [ "r2"; "w" ] !order

let test_promote_read_to_write_sole_holder () =
  with_engine (fun _eng mgr ->
      check_bool "r" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Read "k");
      check_bool "promote" true (Manager.promote mgr ~owner:"a" ~to_mode:Mode.Write "k");
      Alcotest.(check (option mode))
        "now write" (Some Mode.Write)
        (Manager.holds mgr ~owner:"a" "k"))

let test_promote_refused_with_other_readers () =
  with_engine (fun _eng mgr ->
      check_bool "r1" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Read "k");
      check_bool "r2" true (Manager.try_acquire mgr ~owner:"b" ~mode:Mode.Read "k");
      check_bool "write promotion refused" false
        (Manager.promote mgr ~owner:"a" ~to_mode:Mode.Write "k");
      (* The paper's fix: exclude-write promotion shares with readers. *)
      check_bool "exclude-write promotion succeeds" true
        (Manager.promote mgr ~owner:"a" ~to_mode:Mode.Exclude_write "k"))

let test_promote_without_lock_fails () =
  with_engine (fun _eng mgr ->
      check_bool "no lock" false
        (Manager.promote mgr ~owner:"ghost" ~to_mode:Mode.Write "k"))

let test_release_all_and_waking () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w k1" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k1");
  check_bool "w k2" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k2");
  let got = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      (match Manager.acquire mgr ~owner:"b" ~mode:Mode.Read "k1" with
      | Ok () -> incr got
      | Error _ -> ());
      match Manager.acquire mgr ~owner:"b" ~mode:Mode.Read "k2" with
      | Ok () -> incr got
      | Error _ -> ());
  Sim.Engine.schedule eng ~delay:1.0 (fun () -> Manager.release_all mgr ~owner:"a");
  Sim.Engine.run eng;
  check_int "both granted" 2 !got;
  Alcotest.(check (list string)) "a holds nothing" [] (Manager.locked_keys mgr ~owner:"a")

let test_transfer_to_parent () =
  with_engine (fun _eng mgr ->
      check_bool "child r" true
        (Manager.try_acquire mgr ~owner:"parent.1" ~mode:Mode.Read "k1");
      check_bool "child w" true
        (Manager.try_acquire mgr ~owner:"parent.1" ~mode:Mode.Write "k2");
      (* Parent already reads k2: transfer must merge to the strongest. *)
      check_bool "parent r" false
        (Manager.try_acquire mgr ~owner:"parent" ~mode:Mode.Read "k2");
      Manager.transfer_all mgr ~from_owner:"parent.1" ~to_owner:"parent";
      Alcotest.(check (option mode))
        "k1 read at parent" (Some Mode.Read)
        (Manager.holds mgr ~owner:"parent" "k1");
      Alcotest.(check (option mode))
        "k2 write at parent" (Some Mode.Write)
        (Manager.holds mgr ~owner:"parent" "k2");
      Alcotest.(check (option mode))
        "child gone" None
        (Manager.holds mgr ~owner:"parent.1" "k1"))

let test_waiting_count () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k");
  for i = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        ignore (Manager.acquire mgr ~owner:(Printf.sprintf "b%d" i) ~mode:Mode.Read "k"))
  done;
  Sim.Engine.run ~until:1.0 eng;
  check_int "three waiting" 3 (Manager.waiting mgr "k");
  Manager.release mgr ~owner:"a" "k";
  Sim.Engine.run eng;
  check_int "none waiting" 0 (Manager.waiting mgr "k")

(* A waiter that times out after its entry was dropped holds a stale entry;
   its clean-up must not delete the live entry a later holder created. *)
let test_stale_waiter_keeps_live_entry () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "a writes" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k");
  let b_outcome = ref None in
  Sim.Engine.spawn eng (fun () ->
      b_outcome := Some (Manager.acquire mgr ~owner:"b" ~mode:Mode.Write ~timeout:5.0 "k"));
  Sim.Engine.schedule eng ~delay:1.0 (fun () ->
      Manager.release_all mgr ~owner:"b";
      Manager.release_all mgr ~owner:"a");
  Sim.Engine.schedule eng ~delay:2.0 (fun () ->
      check_bool "c writes" true (Manager.try_acquire mgr ~owner:"c" ~mode:Mode.Write "k"));
  Sim.Engine.run eng;
  check_bool "b timed out" true (!b_outcome = Some (Error `Timeout));
  Alcotest.(check (list (pair string mode)))
    "c still holds" [ ("c", Mode.Write) ] (Manager.holders mgr "k");
  check_bool "second writer refused" false
    (Manager.try_acquire mgr ~owner:"d" ~mode:Mode.Write "k")

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_mode = QCheck.oneofl [ Mode.Read; Mode.Write; Mode.Exclude_write ]

let prop_compat_symmetric =
  QCheck.Test.make ~name:"compatibility is symmetric" ~count:100
    QCheck.(pair arb_mode arb_mode)
    (fun (a, b) -> Mode.compatible a b = Mode.compatible b a)

let prop_holders_pairwise_compatible =
  (* Whatever sequence of try_acquires is issued, the resulting holder set
     is pairwise compatible (ignoring same-owner merges). *)
  QCheck.Test.make ~name:"holders always pairwise compatible" ~count:200
    QCheck.(small_list (pair (int_range 0 4) arb_mode))
    (fun requests ->
      let eng = Sim.Engine.create () in
      let mgr = Manager.create eng in
      List.iter
        (fun (o, m) ->
          ignore
            (Manager.try_acquire mgr ~owner:(Printf.sprintf "a%d" o) ~mode:m "k"))
        requests;
      let holders = Manager.holders mgr "k" in
      List.for_all
        (fun (o1, m1) ->
          List.for_all
            (fun (o2, m2) -> String.equal o1 o2 || Mode.compatible m1 m2)
            holders)
        holders)

(* Model-based check of the manager against a reference model that keeps
   no index: every whole-table step scans all keys in key order, and a
   waiter leaves its queue as soon as it is cancelled. Owners "p.1" and
   "q.1" are children of "p" and "q", so lock inheritance and
   [transfer_all] are exercised. Every acquire runs in its own fiber with a
   timeout ending at a distinct half-unit instant, while operations happen
   at whole units, so no grant races a timeout. *)

let owners = [| "p"; "p.1"; "q"; "q.1" |]
let keys = List.init 6 (Printf.sprintf "k%d")
let all_modes = [ Mode.Read; Mode.Delta; Mode.Write; Mode.Exclude_write ]

type op =
  | Try of int * Mode.t * int
  | Acquire of int * Mode.t * int * int
  | Release of int * int
  | Release_all of int
  | Transfer of int
  | Promote of int * Mode.t * int
  | Step of int

let key i = List.nth keys i

let pp_op ppf = function
  | Try (o, m, k) -> Format.fprintf ppf "try %s %a %s" owners.(o) Mode.pp m (key k)
  | Acquire (o, m, k, d) ->
      Format.fprintf ppf "acquire %s %a %s +%d" owners.(o) Mode.pp m (key k) d
  | Release (o, k) -> Format.fprintf ppf "release %s %s" owners.(o) (key k)
  | Release_all o -> Format.fprintf ppf "release_all %s" owners.(o)
  | Transfer c -> Format.fprintf ppf "transfer %s" owners.((2 * c) + 1)
  | Promote (o, m, k) -> Format.fprintf ppf "promote %s %a %s" owners.(o) Mode.pp m (key k)
  | Step n -> Format.fprintf ppf "step %d" n

let gen_op =
  let open QCheck.Gen in
  let o = int_bound 3 and k = int_bound 5 and m = oneofl all_modes in
  frequency
    [
      (3, map3 (fun o m k -> Try (o, m, k)) o m k);
      (4, map3 (fun (o, m) k d -> Acquire (o, m, k, d)) (pair o m) k (int_bound 3));
      (2, map2 (fun o k -> Release (o, k)) o k);
      (2, map (fun o -> Release_all o) o);
      (1, map (fun c -> Transfer c) (int_bound 1));
      (1, map3 (fun o m k -> Promote (o, m, k)) o m k);
      (2, map (fun n -> Step n) (int_range 1 3));
    ]

module Model = struct
  type waiter = { id : int; owner : string; mode : Mode.t; deadline : float }

  type t = {
    mutable now : float;
    held : (string, (string * Mode.t) list) Hashtbl.t;
    queues : (string, waiter list) Hashtbl.t; (* live waiters, oldest first *)
    mutable pending : waiter list; (* no outcome yet, cancelled or not *)
    outcomes : (int, bool * float) Hashtbl.t;
  }

  let create () =
    {
      now = 0.0;
      held = Hashtbl.create 8;
      queues = Hashtbl.create 8;
      pending = [];
      outcomes = Hashtbl.create 8;
    }

  let held t k = Option.value ~default:[] (Hashtbl.find_opt t.held k)
  let queue t k = Option.value ~default:[] (Hashtbl.find_opt t.queues k)

  let is_descendant ~ancestor o =
    String.starts_with ~prefix:(ancestor ^ ".") o

  let grantable t k ~owner ~mode =
    List.for_all
      (fun (o, m) ->
        String.equal o owner || is_descendant ~ancestor:o owner || Mode.compatible m mode)
      (held t k)

  let install t k ~owner ~mode =
    let h = held t k in
    let mode =
      match List.assoc_opt owner h with Some old -> Mode.strongest old mode | None -> mode
    in
    Hashtbl.replace t.held k ((owner, mode) :: List.remove_assoc owner h)

  let decide t w granted =
    Hashtbl.replace t.outcomes w.id (granted, t.now);
    t.pending <- List.filter (fun p -> p.id <> w.id) t.pending

  let rec service t k =
    match queue t k with
    | w :: rest when grantable t k ~owner:w.owner ~mode:w.mode ->
        Hashtbl.replace t.queues k rest;
        install t k ~owner:w.owner ~mode:w.mode;
        decide t w true;
        service t k
    | _ -> ()

  let try_acquire t ~owner ~mode k =
    match List.assoc_opt owner (held t k) with
    | Some h when Mode.covers h mode -> true
    | _ ->
        queue t k = [] && grantable t k ~owner ~mode
        && (install t k ~owner ~mode;
            true)

  let acquire t ~id ~owner ~mode ~timeout k =
    let w = { id; owner; mode; deadline = t.now +. timeout } in
    match List.assoc_opt owner (held t k) with
    | Some h when Mode.covers h mode -> decide t w true
    | Some _ ->
        let ok = grantable t k ~owner ~mode in
        if ok then install t k ~owner ~mode;
        decide t w ok
    | None ->
        if queue t k = [] && grantable t k ~owner ~mode then begin
          install t k ~owner ~mode;
          decide t w true
        end
        else begin
          Hashtbl.replace t.queues k (queue t k @ [ w ]);
          t.pending <- w :: t.pending
        end

  let promote t ~owner ~mode k =
    match List.assoc_opt owner (held t k) with
    | None -> false
    | Some h when Mode.covers h mode -> true
    | Some _ ->
        grantable t k ~owner ~mode
        && (install t k ~owner ~mode;
            true)

  let drop_hold t k owner =
    Hashtbl.replace t.held k (List.remove_assoc owner (held t k))

  let release t ~owner k =
    if List.mem_assoc owner (held t k) then begin
      drop_hold t k owner;
      service t k
    end

  let release_all t ~owner =
    List.iter
      (fun k ->
        Hashtbl.replace t.queues k
          (List.filter (fun w -> not (String.equal w.owner owner)) (queue t k));
        drop_hold t k owner;
        service t k)
      keys

  let transfer_all t ~from_owner ~to_owner =
    List.iter
      (fun k ->
        (match List.assoc_opt from_owner (held t k) with
        | Some m ->
            drop_hold t k from_owner;
            install t k ~owner:to_owner ~mode:m
        | None -> ());
        service t k)
      keys

  (* Advance to [until], timing out each pending waiter at its deadline. *)
  let rec step t until =
    match
      List.sort (fun a b -> Float.compare a.deadline b.deadline) t.pending
    with
    | w :: _ when w.deadline <= until ->
        t.now <- w.deadline;
        decide t w false;
        List.iter
          (fun k ->
            if List.exists (fun q -> q.id = w.id) (queue t k) then begin
              Hashtbl.replace t.queues k (List.filter (fun q -> q.id <> w.id) (queue t k));
              service t k
            end)
          keys;
        step t until
    | _ -> t.now <- until
end

let run_against_model ops =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  let model = Model.create () in
  let outcomes = Hashtbl.create 8 in
  let advance until =
    Sim.Engine.schedule eng ~delay:(until -. Sim.Engine.now eng) ignore;
    Sim.Engine.run ~until eng
  in
  let fail fmt = Format.kasprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let compare_tables () =
    let sorted l = List.sort compare l in
    List.iter
      (fun k ->
        if Manager.holders mgr k <> sorted (Model.held model k) then fail "holders of %s" k;
        if Manager.waiting mgr k <> List.length (Model.queue model k) then
          fail "waiting on %s" k)
      keys;
    let live = List.filter (fun k -> Model.held model k <> [] || Model.queue model k <> []) keys in
    if Manager.tracked_keys mgr <> live then fail "tracked keys";
    Array.iter
      (fun owner ->
        let model_keys = List.filter (fun k -> List.mem_assoc owner (Model.held model k)) keys in
        if Manager.locked_keys mgr ~owner <> model_keys then fail "locked keys of %s" owner)
      owners;
    let impl = Hashtbl.fold (fun id o acc -> (id, o) :: acc) outcomes [] |> sorted in
    let expected = Hashtbl.fold (fun id o acc -> (id, o) :: acc) model.outcomes [] |> sorted in
    if impl <> expected then fail "acquire outcomes"
  in
  let same what a b = if a <> b then fail "%s: manager %b, model %b" what a b in
  List.iteri
    (fun id op ->
      (match op with
      | Try (o, mode, k) ->
          let owner = owners.(o) and k = key k in
          same "try_acquire" (Manager.try_acquire mgr ~owner ~mode k)
            (Model.try_acquire model ~owner ~mode k)
      | Acquire (o, mode, k, d) ->
          let owner = owners.(o) and k = key k in
          let timeout = float_of_int d +. 0.5 +. (float_of_int id /. 1000.0) in
          Sim.Engine.start eng ~group:(Sim.Engine.root_group eng) ~name:"acquirer" (fun () ->
              let r = Manager.acquire mgr ~owner ~mode ~timeout k in
              Hashtbl.replace outcomes id (r = Ok (), Sim.Engine.now eng));
          Model.acquire model ~id ~owner ~mode ~timeout k
      | Release (o, k) ->
          Manager.release mgr ~owner:owners.(o) (key k);
          Model.release model ~owner:owners.(o) (key k)
      | Release_all o ->
          Manager.release_all mgr ~owner:owners.(o);
          Model.release_all model ~owner:owners.(o)
      | Transfer c ->
          let from_owner = owners.((2 * c) + 1) and to_owner = owners.(2 * c) in
          Manager.transfer_all mgr ~from_owner ~to_owner;
          Model.transfer_all model ~from_owner ~to_owner
      | Promote (o, mode, k) ->
          let owner = owners.(o) and k = key k in
          same "promote" (Manager.promote mgr ~owner ~to_mode:mode k)
            (Model.promote model ~owner ~mode k)
      | Step n ->
          let until = model.now +. float_of_int n in
          advance until;
          Model.step model until);
      (* Let woken fibers record their grants. *)
      Sim.Engine.run ~until:model.now eng;
      compare_tables ())
    ops;
  let until = model.now +. 10.0 in
  advance until;
  Model.step model until;
  compare_tables ();
  true

let prop_matches_model =
  QCheck.Test.make ~name:"manager matches a whole-table reference model" ~count:300
    (QCheck.make
       ~print:(Format.asprintf "%a" (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_op))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    run_against_model

let suite =
  let tc = Alcotest.test_case in
  [
    ( "lockmgr.mode",
      [
        tc "matrix" `Quick test_mode_matrix;
        tc "strength and covers" `Quick test_mode_strength_and_covers;
        Test_util.qcheck prop_compat_symmetric;
      ] );
    ( "lockmgr.manager",
      [
        tc "shared reads" `Quick test_try_acquire_shared_reads;
        tc "write excludes all" `Quick test_write_excludes_all;
        tc "exclude-write shares with readers" `Quick
          test_exclude_write_shares_with_readers;
        tc "reentrant" `Quick test_reentrant_acquire;
        tc "blocking acquire" `Quick test_blocking_acquire_waits_for_release;
        tc "acquire timeout" `Quick test_acquire_timeout;
        tc "queue fairness" `Quick test_queue_fairness_no_writer_starvation;
        tc "promote sole holder" `Quick test_promote_read_to_write_sole_holder;
        tc "promote refused with readers" `Quick test_promote_refused_with_other_readers;
        tc "promote without lock" `Quick test_promote_without_lock_fails;
        tc "release all wakes" `Quick test_release_all_and_waking;
        tc "transfer to parent" `Quick test_transfer_to_parent;
        tc "waiting count" `Quick test_waiting_count;
        tc "stale waiter keeps live entry" `Quick test_stale_waiter_keeps_live_entry;
        Test_util.qcheck prop_holders_pairwise_compatible;
        Test_util.qcheck prop_matches_model;
      ] );
  ]
