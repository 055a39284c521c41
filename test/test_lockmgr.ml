(* Tests for the lock manager: compatibility matrix, blocking acquisition,
   promotion (the paper's try-semantics), exclude-write sharing, transfer
   to parent actions, and the per-key release and transfer. *)

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

(* A wait ends in [`Timeout] after exactly [wait_bound]. *)
let test_acquire_timeout () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "w" true (Manager.try_acquire mgr ~owner:"a1" ~mode:Mode.Write "k");
  let outcome = ref (Ok ()) and ended = ref nan in
  Sim.Engine.spawn eng (fun () ->
      outcome := Manager.acquire mgr ~owner:"a2" ~mode:Mode.Read "k";
      ended := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_bool "timed out" true (!outcome = Error `Timeout);
  Alcotest.(check (float 1e-9)) "after the wait bound" Manager.wait_bound !ended

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
  (* The owner's end: each of its keys in key order. *)
  Sim.Engine.schedule eng ~delay:1.0 (fun () ->
      List.iter (Manager.release mgr ~owner:"a") [ "k1"; "k2" ]);
  Sim.Engine.run eng;
  check_int "both granted" 2 !got;
  Alcotest.(check (list (option mode))) "a holds nothing" [ None; None ]
    (List.map (Manager.holds mgr ~owner:"a") [ "k1"; "k2" ])

let test_transfer_to_parent () =
  with_engine (fun _eng mgr ->
      check_bool "child r" true
        (Manager.try_acquire mgr ~owner:"parent.1" ~mode:Mode.Read "k1");
      check_bool "child w" true
        (Manager.try_acquire mgr ~owner:"parent.1" ~mode:Mode.Write "k2");
      (* Parent already reads k2: transfer must merge to the strongest. *)
      check_bool "parent r" false
        (Manager.try_acquire mgr ~owner:"parent" ~mode:Mode.Read "k2");
      List.iter (Manager.transfer mgr ~from_owner:"parent.1" ~to_owner:"parent") [ "k1"; "k2" ];
      Alcotest.(check (option mode))
        "k1 read at parent" (Some Mode.Read)
        (Manager.holds mgr ~owner:"parent" "k1");
      Alcotest.(check (option mode))
        "k2 write at parent" (Some Mode.Write)
        (Manager.holds mgr ~owner:"parent" "k2");
      Alcotest.(check (option mode))
        "child gone" None
        (Manager.holds mgr ~owner:"parent.1" "k1"))

(* [release] ends an owner on one key: its waiter there is cancelled (the
   fiber times out, never granted) and its hold dropped, while its lock on
   another key and other owners' waiters on the same key stay. *)
let test_release_is_per_key () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "a writes k1" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k1");
  check_bool "b writes k2" true (Manager.try_acquire mgr ~owner:"b" ~mode:Mode.Write "k2");
  check_bool "b reads k3" true (Manager.try_acquire mgr ~owner:"b" ~mode:Mode.Read "k3");
  let outcome owner key =
    let r = ref None in
    Sim.Engine.spawn eng (fun () ->
        r := Some (Manager.acquire mgr ~owner ~mode:Mode.Write key));
    r
  in
  let b_on_k1 = outcome "b" "k1" and c_on_k1 = outcome "c" "k1" in
  Sim.Engine.run ~until:1.0 eng;
  check_int "two waiting on k1" 2 (Manager.waiting mgr "k1");
  Manager.release mgr ~owner:"b" "k1";
  check_int "b's waiter cancelled" 1 (Manager.waiting mgr "k1");
  let b_holds () = List.map (Manager.holds mgr ~owner:"b") [ "k1"; "k2"; "k3" ] in
  Alcotest.(check (list (option mode))) "b keeps k2 and k3"
    [ None; Some Mode.Write; Some Mode.Read ] (b_holds ());
  Manager.release mgr ~owner:"b" "k3";
  Alcotest.(check (list (option mode))) "b keeps k2 alone"
    [ None; Some Mode.Write; None ] (b_holds ());
  Alcotest.(check (list string)) "k3 untracked" [ "k1"; "k2" ]
    (Manager.tracked_keys mgr);
  Manager.release mgr ~owner:"a" "k1";
  Sim.Engine.run eng;
  check_bool "c granted once a left" true (!c_on_k1 = Some (Ok ()));
  check_bool "b never granted k1" true (!b_on_k1 = Some (Error `Timeout));
  Alcotest.(check (list (pair string mode)))
    "k1 held by c" [ ("c", Mode.Write) ] (Manager.holders mgr "k1")

(* [transfer] moves a child's lock on one key to its parent and grants a
   queued descendant of the parent that now inherits it; the child's lock
   on another key stays its own. *)
let test_transfer_services_descendants () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "child writes k1" true
    (Manager.try_acquire mgr ~owner:"p.1" ~mode:Mode.Write "k1");
  check_bool "child writes k2" true
    (Manager.try_acquire mgr ~owner:"p.1" ~mode:Mode.Write "k2");
  let sibling = ref None in
  Sim.Engine.spawn eng (fun () ->
      sibling := Some (Manager.acquire mgr ~owner:"p.2" ~mode:Mode.Write "k1"));
  Sim.Engine.run ~until:1.0 eng;
  check_int "sibling queued" 1 (Manager.waiting mgr "k1");
  Manager.transfer mgr ~from_owner:"p.1" ~to_owner:"p" "k1";
  Sim.Engine.run eng;
  check_bool "sibling granted under the parent's lock" true (!sibling = Some (Ok ()));
  Alcotest.(check (list (pair string mode)))
    "k1 holders" [ ("p", Mode.Write); ("p.2", Mode.Write) ] (Manager.holders mgr "k1");
  Alcotest.(check (list (pair string mode)))
    "child keeps k2" [ ("p.1", Mode.Write) ] (Manager.holders mgr "k2")

(* Ending an owner on a key it asked for but never obtained changes
   nothing: its request timed out, so the holder keeps the key and the
   waiter queued behind it stays queued. *)
let test_release_of_refused_key_is_noop () =
  let eng = Sim.Engine.create () in
  let mgr = Manager.create eng in
  check_bool "a writes" true (Manager.try_acquire mgr ~owner:"a" ~mode:Mode.Write "k");
  let b = ref None in
  Sim.Engine.spawn eng (fun () -> b := Some (Manager.acquire mgr ~owner:"b" ~mode:Mode.Write "k"));
  Sim.Engine.run eng;
  check_bool "b refused" true (!b = Some (Error `Timeout));
  let c = ref None in
  Sim.Engine.spawn eng (fun () -> c := Some (Manager.acquire mgr ~owner:"c" ~mode:Mode.Read "k"));
  Sim.Engine.run ~until:(Sim.Engine.now eng +. 1.0) eng;
  Manager.release mgr ~owner:"b" "k";
  Sim.Engine.run ~until:(Sim.Engine.now eng +. 1.0) eng;
  Alcotest.(check (list (pair string mode))) "a still holds" [ ("a", Mode.Write) ]
    (Manager.holders mgr "k");
  check_int "c still queued" 1 (Manager.waiting mgr "k");
  check_bool "c not granted" true (!c = None)

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
      b_outcome := Some (Manager.acquire mgr ~owner:"b" ~mode:Mode.Write "k"));
  Sim.Engine.schedule eng ~delay:1.0 (fun () ->
      Manager.release mgr ~owner:"b" "k";
      Manager.release mgr ~owner:"a" "k");
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
   plain per-key lists: a timeout scans all keys in key order, and a
   waiter leaves its queue as soon as it is cancelled. Owners "p.1" and
   "q.1" are children of "p" and "q", so lock inheritance and [transfer]
   are exercised. Every acquire runs in its own fiber and
   times out after [wait_bound]. An acquire first moves the clock on by
   its own fraction of a unit, [(id + 1) / 1024]: forty of them sum to
   less than one unit, so no two waits end at the same instant, and a
   step (ten to thirty units) lets waits end mid-run. An operation at the
   instant a wait ends runs after it, in the manager ([run ~until]
   processes the timeout first) as in the model ([step]). *)

let owners = [| "p"; "p.1"; "q"; "q.1" |]
let keys = List.init 6 (Printf.sprintf "k%d")
let all_modes = [ Mode.Read; Mode.Delta; Mode.Write; Mode.Exclude_write ]

type op =
  | Try of int * Mode.t * int
  | Acquire of int * Mode.t * int
  | Release of int * int
  | Transfer of int * int
  | Promote of int * Mode.t * int
  | Step of int

let key i = List.nth keys i

let pp_op ppf = function
  | Try (o, m, k) -> Format.fprintf ppf "try %s %a %s" owners.(o) Mode.pp m (key k)
  | Acquire (o, m, k) -> Format.fprintf ppf "acquire %s %a %s" owners.(o) Mode.pp m (key k)
  | Release (o, k) -> Format.fprintf ppf "release %s %s" owners.(o) (key k)
  | Transfer (c, k) -> Format.fprintf ppf "transfer %s %s" owners.((2 * c) + 1) (key k)
  | Promote (o, m, k) -> Format.fprintf ppf "promote %s %a %s" owners.(o) Mode.pp m (key k)
  | Step n -> Format.fprintf ppf "step %d" (10 * n)

let gen_op =
  let open QCheck.Gen in
  let o = int_bound 3 and k = int_bound 5 and m = oneofl all_modes in
  frequency
    [
      (3, map3 (fun o m k -> Try (o, m, k)) o m k);
      (4, map3 (fun o m k -> Acquire (o, m, k)) o m k);
      (4, map2 (fun o k -> Release (o, k)) o k);
      (2, map2 (fun c k -> Transfer (c, k)) (int_bound 1) k);
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

  let acquire t ~id ~owner ~mode k =
    let w = { id; owner; mode; deadline = t.now +. Manager.wait_bound } in
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
    Hashtbl.replace t.queues k
      (List.filter (fun w -> not (String.equal w.owner owner)) (queue t k));
    drop_hold t k owner;
    service t k

  let transfer t ~from_owner ~to_owner k =
    (match List.assoc_opt from_owner (held t k) with
    | Some m ->
        drop_hold t k from_owner;
        install t k ~owner:to_owner ~mode:m
    | None -> ());
    service t k

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
      | Acquire (o, mode, k) ->
          let owner = owners.(o) and k = key k in
          let until = model.now +. (float_of_int (id + 1) /. 1024.0) in
          advance until;
          Model.step model until;
          Sim.Engine.start eng ~group:(Sim.Engine.root_group eng) ~from:"test"
            ~name:"acquirer" (fun () ->
              let r = Manager.acquire mgr ~owner ~mode k in
              Hashtbl.replace outcomes id (r = Ok (), Sim.Engine.now eng));
          Model.acquire model ~id ~owner ~mode k
      | Release (o, k) ->
          Manager.release mgr ~owner:owners.(o) (key k);
          Model.release model ~owner:owners.(o) (key k)
      | Transfer (c, k) ->
          let from_owner = owners.((2 * c) + 1) and to_owner = owners.(2 * c) in
          Manager.transfer mgr ~from_owner ~to_owner (key k);
          Model.transfer model ~from_owner ~to_owner (key k)
      | Promote (o, mode, k) ->
          let owner = owners.(o) and k = key k in
          same "promote" (Manager.promote mgr ~owner ~to_mode:mode k)
            (Model.promote model ~owner ~mode k)
      | Step n ->
          let until = model.now +. float_of_int (10 * n) in
          advance until;
          Model.step model until);
      (* Let woken fibers record their grants. *)
      Sim.Engine.run ~until:model.now eng;
      compare_tables ())
    ops;
  let until = model.now +. Manager.wait_bound +. 1.0 in
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
        tc "release is per key" `Quick test_release_is_per_key;
        tc "transfer services descendants" `Quick test_transfer_services_descendants;
        tc "release of a refused key is a no-op" `Quick test_release_of_refused_key_is_noop;
        tc "waiting count" `Quick test_waiting_count;
        tc "stale waiter keeps live entry" `Quick test_stale_waiter_keeps_live_entry;
        Test_util.qcheck prop_holders_pairwise_compatible;
        Test_util.qcheck prop_matches_model;
      ] );
  ]
