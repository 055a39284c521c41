(* Tests for the naming-and-binding service: the group view database and
   its operations (§4.1, §4.2), the three access schemes (figures 6-8),
   exclusion, reintegration, use-list cleanup, and the §5 hybrid. *)

open Naming

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let slist = Alcotest.(list string)

let topo ~servers ~stores ~clients =
  {
    Service.gvd_node = "ns";
    gvd_nodes = [];
    server_nodes = servers;
    store_nodes = stores;
    client_nodes = clients;
  }

let small_world ?seed ?use_exclude_write ?cleanup_period () =
  Service.create ?seed ?use_exclude_write ?cleanup_period
    (topo ~servers:[ "alpha"; "alpha2" ] ~stores:[ "beta1"; "beta2" ]
       ~clients:[ "c1"; "c2" ])

let counter_object ?(sv = [ "alpha" ]) ?(st = [ "beta1"; "beta2" ]) w name =
  Service.create_object w ~name ~impl:"counter" ~sv ~st ()

let store_payload w node uid =
  match
    Store.Object_store.read
      (Action.Store_host.objects (Service.store_host w) node)
      uid
  with
  | Some s -> Some s.Store.Object_state.payload
  | None -> None

(* ------------------------------------------------------------------ *)
(* Use lists *)

let test_use_list_basics () =
  let ul = Use_list.empty in
  check_bool "empty" true (Use_list.is_empty ul);
  let ul = Use_list.increment ul ~client:"c1" in
  let ul = Use_list.increment ul ~client:"c1" in
  let ul = Use_list.increment ul ~client:"c2" in
  check_int "c1 twice" 2 (Use_list.count ul ~client:"c1");
  check_int "total" 3 (Use_list.total ul);
  let ul = Use_list.decrement ul ~client:"c1" in
  check_int "c1 once" 1 (Use_list.count ul ~client:"c1");
  let ul = Use_list.decrement ul ~client:"c1" in
  check_int "c1 gone" 0 (Use_list.count ul ~client:"c1");
  let ul = Use_list.decrement ul ~client:"ghost" in
  check_int "ghost noop" 1 (Use_list.total ul);
  let ul = Use_list.drop_client ul ~client:"c2" in
  check_bool "empty again" true (Use_list.is_empty ul)

let prop_use_list_counts_match =
  QCheck.Test.make ~name:"use list counters track increments" ~count:200
    QCheck.(small_list (pair (int_range 0 3) bool))
    (fun ops ->
      let expected = Hashtbl.create 4 in
      let ul =
        List.fold_left
          (fun ul (c, up) ->
            let client = Printf.sprintf "c%d" c in
            let cur =
              match Hashtbl.find_opt expected client with Some n -> n | None -> 0
            in
            if up then begin
              Hashtbl.replace expected client (cur + 1);
              Use_list.increment ul ~client
            end
            else begin
              Hashtbl.replace expected client (max 0 (cur - 1));
              Use_list.decrement ul ~client
            end)
          Use_list.empty ops
      in
      Hashtbl.fold
        (fun client n acc -> acc && Use_list.count ul ~client = n)
        expected true)

(* ------------------------------------------------------------------ *)
(* GVD basics *)

let test_register_and_lookup () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let found = ref None in
  Service.spawn_client w "c1" (fun () -> found := Service.lookup w ~from:"c1" "ctr");
  Service.run w;
  match !found with
  | Some u -> check_bool "same uid" true (Store.Uid.equal u uid)
  | None -> Alcotest.fail "lookup failed"

let test_get_server_and_view () =
  let w = small_world () in
  let uid =
    Service.create_object w ~name:"ctr" ~impl:"counter"
      ~sv:[ "alpha"; "alpha2" ] ~st:[ "beta1" ] ()
  in
  let sv = ref [] and st = ref [] in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (match Gvd.get_server (Service.gvd w) ~act uid with
             | Ok (Gvd.Granted view) -> sv := view.Gvd.v_servers
             | _ -> Alcotest.fail "get_server");
             match Gvd.get_view (Service.gvd w) ~act uid with
             | Ok (Gvd.Granted v) -> st := v.Gvd.v_stores
             | _ -> Alcotest.fail "get_view")));
  Service.run w;
  Alcotest.check slist "sv" [ "alpha"; "alpha2" ] !sv;
  Alcotest.check slist "st" [ "beta1" ] !st

let test_insert_remove_include_exclude () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (match Gvd.update (Service.gvd w) ~act uid (Gvd.Insert "alpha2") with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "insert");
             (match Gvd.update (Service.gvd w) ~act uid (Gvd.Remove "alpha") with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "remove");
             (match Gvd.update (Service.gvd w) ~act uid (Gvd.Exclude [ "beta2" ]) with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "exclude");
             match Gvd.update (Service.gvd w) ~act uid (Gvd.Include "beta2") with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "include")));
  Service.run w;
  Alcotest.check slist "sv mutated" [ "alpha2" ] (Gvd.current_sv (Service.gvd w) uid);
  Alcotest.check slist "st roundtrip" [ "beta1"; "beta2" ]
    (List.sort String.compare (Gvd.current_st (Service.gvd w) uid))

let test_abort_restores_image () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (match Gvd.update (Service.gvd w) ~act uid (Gvd.Remove "alpha") with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "remove");
             (match Gvd.update (Service.gvd w) ~act uid (Gvd.Exclude [ "beta1" ]) with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "exclude");
             raise (Action.Atomic.Abort "roll it back"))));
  Service.run w;
  Alcotest.check slist "sv restored" [ "alpha" ] (Gvd.current_sv (Service.gvd w) uid);
  Alcotest.check slist "st restored" [ "beta1"; "beta2" ]
    (List.sort String.compare (Gvd.current_st (Service.gvd w) uid))

let test_nested_action_transfer () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun parent ->
             ignore
               (Action.Atomic.atomically_nested parent (fun child ->
                    match Gvd.update (Service.gvd w) ~act:child uid (Gvd.Remove "alpha") with
                    | Ok (Gvd.Granted _) -> ()
                    | _ -> Alcotest.fail "remove in child"));
             (* Child committed into parent; aborting the parent must undo
                the child's database change. *)
             raise (Action.Atomic.Abort "parent aborts"))));
  Service.run w;
  Alcotest.check slist "restored through nesting" [ "alpha" ]
    (Gvd.current_sv (Service.gvd w) uid)

let test_insert_busy_when_in_use () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let got = ref "" in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (* Simulate a scheme-B user: bump the use list in this action
                and hold it open while another action tries Insert. *)
             (match
                Gvd.update (Service.gvd w) ~act
                  uid (Gvd.Increment { client = "c1"; servers = [ "alpha" ] })
              with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "increment"))));
  Service.run w;
  check_bool "not quiescent" false (Gvd.quiescent (Service.gvd w) uid);
  Service.spawn_client w "c2" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
             match Gvd.update (Service.gvd w) ~act uid (Gvd.Insert "alpha2") with
             | Ok (Gvd.Busy _) -> got := "busy"
             | Ok (Gvd.Granted _) -> got := "granted"
             | _ -> got := "other")));
  Service.run w;
  check_string "busy" "busy" !got

(* ------------------------------------------------------------------ *)
(* The typed update, op by op *)

(* One row per op: the half and lock mode it must take, the counter it
   bumps, and what a commit must leave behind. Every row starts from
   Sv=[alpha], St=[beta1; beta2] and the initial version fence; the
   Decrement and Zero rows start with c2 holding one use of alpha. *)
let noted = Store.Version.next Store.Version.initial ~committed_by:"c1:0"

let update_rows =
  let sv w uid = Gvd.current_sv (Service.gvd w) uid in
  let st w uid = List.sort String.compare (Gvd.current_st (Service.gvd w) uid) in
  let uses w uid =
    List.map (fun (n, ul) -> (n, Use_list.total ul)) (Gvd.current_uses (Service.gvd w) uid)
  in
  let uses_t = Alcotest.(list (pair string int)) in
  let ex = Lockmgr.Mode.Exclude_write and wr = Lockmgr.Mode.Write in
  [
    ("insert", Gvd.Insert "alpha2", "sv", wr, Some "gvd.inserts", fun w uid ->
      Alcotest.check slist "Sv grew" [ "alpha"; "alpha2" ] (sv w uid));
    ("remove", Gvd.Remove "alpha", "sv", wr, Some "gvd.removes", fun w uid ->
      Alcotest.check slist "Sv shrank" [] (sv w uid));
    ("increment", Gvd.Increment { client = "c2"; servers = [ "alpha" ] }, "sv",
      Lockmgr.Mode.Delta, Some "gvd.increments", fun w uid ->
      Alcotest.check uses_t "count up" [ ("alpha", 1) ] (uses w uid));
    ("decrement", Gvd.Decrement { client = "c2"; servers = [ "alpha" ] }, "sv",
      Lockmgr.Mode.Delta, Some "gvd.decrements", fun w uid ->
      Alcotest.check uses_t "count down" [ ("alpha", 0) ] (uses w uid));
    ("zero", Gvd.Zero "c2", "sv", wr, Some "gvd.zeroes", fun w uid ->
      Alcotest.check uses_t "client dropped" [ ("alpha", 0) ] (uses w uid));
    ("retire sv", Gvd.Retire_sv "alpha", "sv", wr, Some "gvd.server_retirements",
      fun w uid -> Alcotest.check slist "Sv retired" [] (sv w uid));
    ("include", Gvd.Include "beta3", "st", wr, Some "gvd.includes", fun w uid ->
      Alcotest.check slist "St grew" [ "beta1"; "beta2"; "beta3" ] (st w uid));
    ("exclude", Gvd.Exclude [ "beta2" ], "st", ex, Some "gvd.exclusions", fun w uid ->
      Alcotest.check slist "St shrank" [ "beta1" ] (st w uid));
    ("retire st", Gvd.Retire_st "beta2", "st", wr, Some "gvd.store_retirements",
      fun w uid -> Alcotest.check slist "St retired" [ "beta1" ] (st w uid));
    ("note version", Gvd.Note_version noted, "st", ex, None, fun w uid ->
      check_bool "fence advanced" true
        (Store.Version.equal noted (Gvd.committed_version (Service.gvd w) uid)));
  ]

let run_update_row ~commit (name, op, half, mode, counter, applied) =
  let w =
    Service.create ~seed:3L
      (topo ~servers:[ "alpha"; "alpha2" ] ~stores:[ "beta1"; "beta2"; "beta3" ]
         ~clients:[ "c1"; "c2" ])
  in
  let uid = counter_object w "ctr" in
  let gvd = Service.gvd w and m = Service.metrics w in
  let state () =
    ( Gvd.current_sv gvd uid,
      List.sort String.compare (Gvd.current_st gvd uid),
      List.map (fun (n, ul) -> (n, Use_list.total ul)) (Gvd.current_uses gvd uid),
      Store.Version.to_string (Gvd.committed_version gvd uid) )
  in
  (match op with
  | Gvd.Decrement _ | Gvd.Zero _ ->
      Service.spawn_client w "c1" (fun () ->
          ignore
            (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
                 ignore
                   (Gvd.update gvd ~act
                      uid (Gvd.Increment { client = "c2"; servers = [ "alpha" ] })))))
  | _ -> ());
  Service.run w;
  let before = state () in
  let count () = Option.fold ~none:0 ~some:(Sim.Metrics.counter m) counter in
  let counted = count () in
  let key = half ^ ":" ^ Store.Uid.to_string uid in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (match Gvd.update gvd ~act uid op with
             | Ok (Gvd.Granted o) -> check_bool (name ^ " applied") true o.Gvd.o_applied
             | _ -> Alcotest.fail (name ^ " not granted"));
             let held = Option.value ~default:[] (List.assoc_opt key (Gvd.residual_locks gvd)) in
             check_bool (name ^ " lock mode on " ^ key) true
               (List.exists
                  (fun (owner, m) -> owner = Action.Atomic.owner act && Lockmgr.Mode.equal m mode)
                  held);
             if not commit then raise (Action.Atomic.Abort "roll back"))));
  Service.run w;
  check_int (name ^ " counted") (if counter = None then 0 else 1) (count () - counted);
  if commit then applied w uid
  else
    check_bool (name ^ " abort leaves the pre-image") true (state () = before);
  Alcotest.(check (list string)) (name ^ " nothing staged") [] (Gvd.residual_actions gvd)

let test_update_ops_commit () = List.iter (run_update_row ~commit:true) update_rows
let test_update_ops_abort () = List.iter (run_update_row ~commit:false) update_rows

(* A moved St revision: the update is not applied, but the fence it took
   stays with the action, so a membership change cannot slip in before
   the caller's retry. *)
let test_update_if_rev_keeps_fence () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let gvd = Service.gvd w and eng = Service.engine w in
  let outcome = ref None and included = ref "none" in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             let rev =
               match Gvd.read gvd ~act uid Gvd.Committed with
               | Ok (Gvd.Granted v) -> v.Gvd.v_rev
               | _ -> Alcotest.fail "committed read"
             in
             (* A membership change commits behind the snapshot. *)
             ignore
               (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun other ->
                    ignore (Gvd.update gvd ~act:other uid (Gvd.Exclude [ "beta2" ]))));
             (* Let its phase 2 reach the database. *)
             Sim.Engine.sleep eng 5.0;
             (match Gvd.update gvd ~act ~if_rev:rev uid (Gvd.Note_version noted) with
             | Ok (Gvd.Granted o) -> outcome := Some o.Gvd.o_applied
             | _ -> Alcotest.fail "validate refused");
             Sim.Engine.sleep eng 60.0)));
  Service.spawn_client w "c2" (fun () ->
      Sim.Engine.sleep eng 15.0;
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
             match Gvd.update gvd ~act uid (Gvd.Include "beta2") with
             | Ok (Gvd.Granted _) -> included := "granted"
             | Ok (Gvd.Refused _) -> included := "refused"
             | _ -> included := "other")));
  Service.run w;
  Alcotest.(check (option bool)) "not applied" (Some false) !outcome;
  check_string "include refused behind the kept fence" "refused" !included;
  check_bool "fence not advanced" true
    (Store.Version.equal Store.Version.initial (Gvd.committed_version gvd uid))

(* The last state holder is never excluded: an Exclude naming every St
   member is refused and leaves the image as it was, even when the
   action that asked goes on to commit. *)
let test_exclude_never_empties_st () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let gvd = Service.gvd w in
  let image () =
    ( List.sort String.compare (Gvd.current_st gvd uid),
      Store.Version.to_string (Gvd.committed_version gvd uid),
      Gvd.st_revision gvd uid )
  in
  let before = image () in
  let reply = ref "none" in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             match Gvd.update gvd ~act uid (Gvd.Exclude [ "beta1"; "beta2" ]) with
             | Ok (Gvd.Refused why) -> reply := "refused: " ^ why
             | Ok (Gvd.Granted _) -> reply := "granted"
             | _ -> reply := "other")));
  Service.run w;
  check_string "refused" "refused: would empty St" !reply;
  check_bool "image unchanged" true (image () = before);
  Alcotest.(check (list string)) "nothing staged" [] (Gvd.residual_actions gvd)

(* Use-list counter ops commute: one update is one op on one entry, and
   committed Increments and Decrements sum whatever order their actions
   commit in. Several clients run actions of random ops on one entry,
   each starting after a random delay and then committing or aborting.
   Every client first holds [base] uses of each server, more than all
   its Decrements together, so no Decrement meets an empty counter in any
   order. The final use lists must equal [base] plus the committed
   actions' ops, and the aborted ones must leave nothing behind. *)
let prop_delta_ops_commute =
  let servers = [| "alpha"; "alpha2" |] and clients = [| "c1"; "c2"; "c3" |] in
  let action =
    QCheck.(
      quad (int_range 0 2) (float_range 0.0 5.0)
        (list_of_size (Gen.int_range 1 3) (pair bool (int_range 0 1)))
        bool)
  in
  QCheck.Test.make ~name:"delta ops commute in any commit order" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 8) action)
    (fun actions ->
      let w =
        Service.create ~seed:5L
          (topo ~servers:(Array.to_list servers) ~stores:[ "beta1"; "beta2" ]
             ~clients:(Array.to_list clients))
      in
      let uid = counter_object w ~sv:(Array.to_list servers) "ctr" in
      let gvd = Service.gvd w and eng = Service.engine w in
      let expected = Hashtbl.create 8 in
      let add client server by =
        let now = Option.value ~default:0 (Hashtbl.find_opt expected (client, server)) in
        Hashtbl.replace expected (client, server) (now + by)
      in
      let run_action client ~commit ops =
        Action.Atomic.atomically (Service.atomic w) ~node:client (fun act ->
            List.iter
              (fun op ->
                match Gvd.update gvd ~act uid op with
                | Ok (Gvd.Granted _) -> ()
                | _ -> raise (Action.Atomic.Abort "update refused"))
              ops;
            if not commit then raise (Action.Atomic.Abort "roll back"))
      in
      let base = 3 * List.length actions in
      Array.iter
        (fun client ->
          Service.spawn_client w client (fun () ->
              let all = List.concat_map (fun s -> List.init base (fun _ -> s)) (Array.to_list servers) in
              match run_action client ~commit:true [ Gvd.Increment { client; servers = all } ] with
              | Ok () -> Array.iter (fun s -> add client s base) servers
              | Error _ -> ()))
        clients;
      Service.run w;
      let lost = ref 0 in
      List.iter
        (fun (c, delay, ops, commit) ->
          let client = clients.(c) in
          let op (up, s) =
            let servers = [ servers.(s) ] in
            if up then Gvd.Increment { client; servers } else Gvd.Decrement { client; servers }
          in
          Service.spawn_client w client (fun () ->
              Sim.Engine.sleep eng delay;
              match run_action client ~commit (List.map op ops) with
              | Ok () -> List.iter (fun (up, s) -> add client servers.(s) (if up then 1 else -1)) ops
              | Error _ -> if commit then incr lost))
        actions;
      Service.run w;
      let uses = Gvd.current_uses gvd uid in
      let count client server =
        Option.fold ~none:0 ~some:(Use_list.count ~client) (List.assoc_opt server uses)
      in
      !lost = 0
      && Hashtbl.length expected = Array.length clients * Array.length servers
      && Hashtbl.fold (fun (client, server) n ok -> ok && count client server = n) expected true
      && Gvd.residual_actions gvd = []
      && Gvd.residual_locks gvd = [])

(* ------------------------------------------------------------------ *)
(* Lock semantics across actions (figure 6 blocking behaviour) *)

let test_standard_read_lock_blocks_insert_until_commit () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let insert_done_at = ref nan in
  let commit_at = ref nan in
  let eng = Service.engine w in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             (match Gvd.get_server (Service.gvd w) ~act uid with
             | Ok (Gvd.Granted _) -> ()
             | _ -> Alcotest.fail "get_server");
             (* Hold the read lock for a while before committing. *)
             Sim.Engine.sleep eng 20.0));
      commit_at := Sim.Engine.now eng);
  Service.spawn_client w "c2" (fun () ->
      Sim.Engine.sleep eng 5.0;
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
             match Gvd.update (Service.gvd w) ~act uid (Gvd.Insert "alpha2") with
             | Ok (Gvd.Granted _) -> insert_done_at := Sim.Engine.now eng
             | Ok (Gvd.Busy _) -> Alcotest.fail "unexpected busy"
             | _ -> Alcotest.fail "insert refused")));
  Service.run w;
  (* The reader holds its read lock for 20 virtual-time units before its
     commit releases it; the insert's write lock cannot be granted before
     then. (The insert reply and the reader's post-commit bookkeeping race
     by a few message latencies, so compare against the hold time rather
     than the recorded commit instant.) *)
  check_bool "insert blocked until reader committed" true
    (!insert_done_at >= 20.0 && !commit_at >= 20.0)

let test_exclude_write_vs_plain_write_promotion () =
  (* With exclude-write enabled, a committing writer can exclude while
     another client still holds a read lock; with plain write promotion it
     is refused (§4.2.1). *)
  let attempt ~use_exclude_write =
    let w = small_world ~use_exclude_write () in
    let uid = counter_object w "ctr" in
    let eng = Service.engine w in
    let result = ref "none" in
    (* Reader holds a read lock on the st entry across the window. *)
    Service.spawn_client w "c2" (fun () ->
        ignore
          (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
               (match Gvd.get_view (Service.gvd w) ~act uid with
               | Ok (Gvd.Granted _) -> ()
               | _ -> Alcotest.fail "get_view");
               Sim.Engine.sleep eng 50.0)));
    Service.spawn_client w "c1" (fun () ->
        Sim.Engine.sleep eng 5.0;
        ignore
          (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
               (match Gvd.get_view (Service.gvd w) ~act uid with
               | Ok (Gvd.Granted _) -> ()
               | _ -> Alcotest.fail "get_view c1");
               match Gvd.update (Service.gvd w) ~act uid (Gvd.Exclude [ "beta2" ]) with
               | Ok (Gvd.Granted _) -> result := "granted"
               | Ok (Gvd.Refused _) -> result := "refused"
               | _ -> result := "other")));
    Service.run w;
    !result
  in
  check_string "exclude-write shares with reader" "granted"
    (attempt ~use_exclude_write:true);
  check_string "plain write promotion refused" "refused"
    (attempt ~use_exclude_write:false)

(* An action ends at a shard key by key in key order. It holds both
   halves of one entry, each with another action's writer queued behind
   it, the [sv:] writer first; ["st:"] sorts before ["sv:"], so the [St]
   writer is granted, and applies its op, first — whether the action
   commits or aborts. *)
let end_wakes_st_first ~commit =
  let w =
    Service.create ~seed:3L
      (topo ~servers:[ "alpha"; "alpha2" ] ~stores:[ "beta1"; "beta2"; "beta3" ]
         ~clients:[ "c1"; "c2" ])
  in
  let uid = counter_object w "ctr" in
  let gvd = Service.gvd w and eng = Service.engine w in
  Sim.Trace.set_enabled (Service.trace w) true;
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             List.iter
               (fun op ->
                 match Gvd.update gvd ~act uid op with
                 | Ok (Gvd.Granted _) -> ()
                 | _ -> Alcotest.fail "holder's update")
               [ Gvd.Insert "alpha2"; Gvd.Include "beta3" ];
             Sim.Engine.sleep eng 10.0;
             if not commit then raise (Action.Atomic.Abort "roll back"))));
  let queued_writer ~at op =
    Service.spawn_client w "c2" (fun () ->
        Sim.Engine.sleep eng at;
        ignore
          (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
               ignore (Gvd.update gvd ~act uid op))))
  in
  queued_writer ~at:2.0 (Gvd.Remove "alpha2");
  queued_writer ~at:3.0 (Gvd.Retire_st "beta3");
  Service.run w;
  let applied =
    List.filter_map
      (fun { Sim.Trace.detail; _ } ->
        if Astring.String.is_infix ~affix:"remove alpha2" detail then Some "sv"
        else if Astring.String.is_infix ~affix:"retire store beta3" detail then Some "st"
        else None)
      (Sim.Trace.with_tag (Service.trace w) "gvd")
  in
  Alcotest.check slist
    ((if commit then "commit" else "abort") ^ " wakes st: first")
    [ "st"; "sv" ] applied;
  check_bool "no lock left" true (Gvd.residual_locks gvd = [])

let test_commit_wakes_st_first () = end_wakes_st_first ~commit:true
let test_abort_wakes_st_first () = end_wakes_st_first ~commit:false

(* An action that ends at the shard while one of its lock requests is
   still queued there never holds that key: the end cancels the request
   with the action's other keys, so the writer ahead of it leaving grants
   it nothing and its wait runs out. *)
let test_end_cancels_queued_request () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let gvd = Service.gvd w and eng = Service.engine w in
  let st_key = "st:" ^ Store.Uid.to_string uid in
  let queued = ref "" and outcome = ref "none" in
  Service.spawn_client w "c1" (fun () ->
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
             ignore (Gvd.update gvd ~act uid (Gvd.Include "beta2"));
             Sim.Engine.sleep eng 20.0)));
  Service.spawn_client w "c2" (fun () ->
      Sim.Engine.sleep eng 2.0;
      ignore
        (Action.Atomic.atomically (Service.atomic w) ~node:"c2" (fun act ->
             queued := Action.Atomic.owner act;
             outcome :=
               match Gvd.update gvd ~act uid (Gvd.Include "beta1") with
               | Ok (Gvd.Granted _) -> "granted"
               | Ok (Gvd.Refused _) -> "refused"
               | _ -> "other")));
  (* The shard aborts the queued action, as termination does an orphan's. *)
  Sim.Engine.schedule eng ~delay:10.0 (fun () ->
      Action.Resource_host.abort_here
        (Action.Atomic.resource_host (Service.atomic w))
        ~node:"ns" ~kind:"gvd" ~scope:"" ~action:!queued);
  let holds_st () =
    List.exists
      (fun (key, holders) -> key = st_key && List.mem_assoc !queued holders)
      (Gvd.residual_locks gvd)
  in
  let held = ref false in
  List.iter
    (fun at -> Sim.Engine.schedule eng ~delay:at (fun () -> held := !held || holds_st ()))
    [ 25.0; 35.0; 60.0 ];
  Service.run w;
  check_bool "the ended action never held st:" false !held;
  check_string "its wait ran out" "refused" !outcome;
  check_bool "no lock left" true (Gvd.residual_locks gvd = [])

(* A nested action reads under a lock, and the transfer of its locks to
   its parent is lost: a one-way cut drops the request while the shard
   stays up. The child's lock then outlives it at the shard, and ends
   with the parent's end there, here its read-only vote. *)
let test_lost_transfer_ends_with_the_parent () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let gvd = Service.gvd w and eng = Service.engine w and net = Service.network w in
  let child_holds = ref false and outcome = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () ->
      outcome :=
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            let child = ref "" in
            ignore
              (Action.Atomic.atomically_nested act (fun c ->
                   child := Action.Atomic.owner c;
                   ignore (Gvd.get_server gvd ~act:c uid);
                   Net.Network.set_oneway_cut net ~src:"c1" ~dst:"ns" true;
                   Sim.Engine.schedule eng ~delay:5.0 (fun () ->
                       Net.Network.set_oneway_cut net ~src:"c1" ~dst:"ns" false)));
            Sim.Engine.sleep eng 10.0;
            child_holds :=
              List.exists
                (fun (_, holders) -> List.mem_assoc !child holders)
                (Gvd.residual_locks gvd)));
  Service.run w;
  check_bool "committed" true (!outcome = Ok ());
  check_bool "the child's lock outlived its transfer" true !child_holds;
  check_bool "no lock left" true (Gvd.residual_locks gvd = [])

(* ------------------------------------------------------------------ *)
(* End-to-end binding under each scheme *)

let bind_and_increment w ~client ~scheme uid =
  Service.with_bound w ~client ~scheme ~policy:Replica.Policy.Single_copy_passive
    ~uid (fun act group -> Service.invoke w group ~act "incr")

let test_scheme_end_to_end scheme () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let replies = ref [] in
  Service.spawn_client w "c1" (fun () ->
      (match bind_and_increment w ~client:"c1" ~scheme uid with
      | Ok r -> replies := r :: !replies
      | Error e -> Alcotest.fail ("first action: " ^ e));
      match bind_and_increment w ~client:"c1" ~scheme uid with
      | Ok r -> replies := r :: !replies
      | Error e -> Alcotest.fail ("second action: " ^ e));
  Service.run w;
  Alcotest.check slist "both increments committed" [ "2"; "1" ] !replies;
  Alcotest.(check (option string))
    "store beta1" (Some "2") (store_payload w "beta1" uid);
  Alcotest.(check (option string))
    "store beta2" (Some "2") (store_payload w "beta2" uid);
  (* Whatever the scheme, the object is quiescent at the end: locks
     released, use lists drained. *)
  check_bool "quiescent at end" true (Gvd.quiescent (Service.gvd w) uid)

let test_standard_futile_binds () =
  (* Scheme A never updates Sv: with the first-listed server dead, every
     bind tries it "the hard way" and falls through to the second. *)
  let w = small_world () in
  let uid =
    Service.create_object w ~name:"ctr" ~impl:"counter"
      ~sv:[ "alpha"; "alpha2" ] ~st:[ "beta1" ] ()
  in
  Service.run ~until:1.0 w;
  Net.Network.crash (Service.network w) "alpha";
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 3 do
        match
          Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
            ~policy:(Replica.Policy.Active 2) ~uid (fun act group ->
              Service.invoke w group ~act "incr")
        with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e
      done);
  Service.run w;
  check_int "three futile attempts" 3
    (Sim.Metrics.counter (Service.metrics w) "bind.futile");
  Alcotest.check slist "Sv untouched" [ "alpha"; "alpha2" ]
    (Gvd.current_sv (Service.gvd w) uid)

let test_independent_removes_dead_server () =
  (* Scheme B prunes dead servers at bind time, so Sv stays fresh and the
     next client pays no futile bind. *)
  let w = small_world () in
  let uid =
    Service.create_object w ~name:"ctr" ~impl:"counter"
      ~sv:[ "alpha"; "alpha2" ] ~st:[ "beta1" ] ()
  in
  Service.run ~until:1.0 w;
  Net.Network.crash (Service.network w) "alpha";
  Service.spawn_client w "c1" (fun () ->
      match
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Independent
          ~policy:(Replica.Policy.Active 2) ~uid (fun act group ->
            Service.invoke w group ~act "incr")
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  Service.run w;
  Alcotest.check slist "Sv pruned" [ "alpha2" ] (Gvd.current_sv (Service.gvd w) uid);
  check_int "no futile binds" 0
    (Sim.Metrics.counter (Service.metrics w) "bind.futile");
  check_int "one removal" 1
    (Sim.Metrics.counter (Service.metrics w) "bind.removed_dead")

let test_independent_use_lists_track_binding () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.run ~until:1.0 w;
  let during = ref [] in
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:Replica.Policy.Single_copy_passive
      with
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
      | Ok pb ->
          during := Gvd.current_uses (Service.gvd w) uid |> List.map (fun (n, ul) ->
              (n, Use_list.total ul));
          (* Run one action through the prebinding, then release. *)
          (match
             Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
                 match Binder.use_prebinding (Service.binder w) ~act pb with
                 | Error e ->
                     raise (Action.Atomic.Abort (Binder.bind_error_to_string e))
                 | Ok binding ->
                     Service.invoke w binding.Binder.bd_group ~act "incr")
           with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          Binder.release_independent (Service.binder w) pb);
  Service.run w;
  check_bool "alpha counted during" true (List.mem_assoc "alpha" !during);
  check_int "alpha count 1 during" 1 (List.assoc "alpha" !during);
  check_bool "quiescent after release" true (Gvd.quiescent (Service.gvd w) uid)

let test_second_client_joins_in_use_servers () =
  (* Under scheme B, if the object is already activated, a new client
     binds to the servers with non-zero counters. *)
  let w = small_world () in
  let uid =
    Service.create_object w ~name:"ctr" ~impl:"counter"
      ~sv:[ "alpha"; "alpha2" ] ~st:[ "beta1" ] ()
  in
  Service.run ~until:1.0 w;
  let second_servers = ref [] in
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:Replica.Policy.Single_copy_passive
      with
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
      | Ok pb ->
          (* While c1 is bound (to alpha, k=1), c2 binds: it must join
             alpha rather than pick alpha2. *)
          Net.Network.spawn_on (Service.network w) "c2" (fun () ->
              match
                Binder.bind_independent (Service.binder w) ~client:"c2" ~uid
                  ~policy:Replica.Policy.Single_copy_passive
              with
              | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
              | Ok pb2 ->
                  (match
                     Action.Atomic.atomically (Service.atomic w) ~node:"c2"
                       (fun act ->
                         match
                           Binder.use_prebinding (Service.binder w) ~act pb2
                         with
                         | Error e ->
                             raise
                               (Action.Atomic.Abort
                                  (Binder.bind_error_to_string e))
                         | Ok b -> b.Binder.bd_servers)
                   with
                  | Ok servers -> second_servers := servers
                  | Error e -> Alcotest.fail e);
                  Binder.release_independent (Service.binder w) pb2;
                  (* Only now does c1 release. *)
                  Binder.release_independent (Service.binder w) pb));
  Service.run w;
  Alcotest.check slist "joined the in-use server" [ "alpha" ] !second_servers

(* ------------------------------------------------------------------ *)
(* Single-round batched bind and use-list delta coalescing *)

let use_count w uid node =
  match List.assoc_opt node (Gvd.current_uses (Service.gvd w) uid) with
  | Some ul -> Use_list.total ul
  | None -> 0

let test_batched_bind_is_one_round () =
  (* The database half of a scheme-B bind is one RPC round: the batch
     endpoint subsumes GetServer, dead-server Remove, Increment and
     GetView (impl comes back in the reply, so no impl lookup either). *)
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.run ~until:1.0 w;
  let m = Service.metrics w in
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:Replica.Policy.Single_copy_passive
      with
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
      | Ok pb ->
          check_int "one bind round" 1
            (Sim.Metrics.counter m "rpc.op.gvd.bind");
          check_int "no GetServer or GetView round" 0
            (Sim.Metrics.counter m "rpc.op.gvd.read");
          check_int "no Increment round" 0
            (Sim.Metrics.counter m "rpc.op.gvd.update");
          check_int "no impl lookup round" 0
            (Sim.Metrics.counter m "rpc.op.gvd.info");
          check_int "counter incremented" 1 (use_count w uid "alpha");
          Binder.release_independent (Service.binder w) pb);
  Service.run w;
  check_bool "quiescent after flush" true (Gvd.quiescent (Service.gvd w) uid)

let test_standard_bind_is_one_round () =
  (* Scheme A's naming reads are one locked bind round as well: no
     GetServer, GetView or impl lookup round of their own. Its Read locks
     on sv: and st: pass to the client action on nested commit and are
     held until that action ends — Figure 6's exclusion fence. *)
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.run ~until:1.0 w;
  let m = Service.metrics w in
  let gvd = Service.gvd w in
  let read_locked_by owner half =
    let key = half ^ ":" ^ Store.Uid.to_string uid in
    List.exists
      (fun (o, mode) -> o = owner && Lockmgr.Mode.equal mode Lockmgr.Mode.Read)
      (Option.value ~default:[] (List.assoc_opt key (Gvd.residual_locks gvd)))
  in
  Service.spawn_client w "c1" (fun () ->
      match
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            match
              Binder.bind_standard (Service.binder w) ~act ~uid
                ~policy:Replica.Policy.Single_copy_passive
            with
            | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
            | Ok _ ->
                check_int "one bind round" 1 (Sim.Metrics.counter m "rpc.op.gvd.bind");
                check_int "no GetServer or GetView round" 0
                  (Sim.Metrics.counter m "rpc.op.gvd.read");
                check_int "no impl lookup round" 0 (Sim.Metrics.counter m "rpc.op.gvd.info");
                let owner = Action.Atomic.owner act in
                check_bool "sv read-locked by the client action" true (read_locked_by owner "sv");
                check_bool "st read-locked by the client action" true (read_locked_by owner "st"))
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
  Service.run w;
  Alcotest.(check (list string)) "no naming lock after the action" []
    (List.map fst (Gvd.residual_locks gvd))

let test_rebind_cancels_decrement () =
  (* A release inside the coalescing window buffers the Decrement as a
     client-local credit; a rebind before the flush piggybacks it on the
     batch, cancelling the Increment/Decrement pair in the same round —
     no separate Decrement action is ever sent for that pair. Only the
     final release reaches the database, as one merged flush. *)
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.run ~until:1.0 w;
  let m = Service.metrics w in
  let b = Service.binder w in
  let policy = Replica.Policy.Single_copy_passive in
  Service.spawn_client w "c1" (fun () ->
      (match Binder.bind_independent b ~client:"c1" ~uid ~policy with
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
      | Ok pb -> Binder.release_independent b pb);
      (* The Decrement is deferred: the database still shows the bind. *)
      check_int "decrement deferred" 1 (use_count w uid "alpha");
      check_int "no decrement round yet" 0
        (Sim.Metrics.counter m "rpc.op.gvd.update");
      match Binder.bind_independent b ~client:"c1" ~uid ~policy with
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
      | Ok pb2 ->
          (* +1 (rebind) and the buffered -1 cancelled in one round. *)
          check_int "net-zero after rebind" 1 (use_count w uid "alpha");
          check_int "credits piggybacked once" 1
            (Sim.Metrics.counter m "bind.coalesced_sends");
          check_int "still no decrement round" 0
            (Sim.Metrics.counter m "rpc.op.gvd.update");
          Binder.release_independent b pb2);
  Service.run w;
  (* The last release had no rebind to ride on: the deferred flush sent
     it as a single merged Decrement action after the window. *)
  check_bool "quiescent after flush" true (Gvd.quiescent (Service.gvd w) uid);
  check_int "one merged flush" 1 (Sim.Metrics.counter m "bind.flushes");
  check_int "one decrement round total" 1
    (Sim.Metrics.counter m "rpc.op.gvd.update")

let test_crashed_client_unflushed_delta_cleanup () =
  (* A client crash with a buffered (unflushed) Decrement leaves exactly
     the orphaned-counter state of §4.1.3: the flush fiber dies with the
     client node, and the cleanup daemon's dead-client sweep zeroes the
     counter. *)
  let w = small_world ~cleanup_period:20.0 () in
  let uid = counter_object w "ctr" in
  let eng = Service.engine w in
  Service.run ~until:1.0 w;
  let m = Service.metrics w in
  let count_at_crash = ref (-1) in
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:Replica.Policy.Single_copy_passive
      with
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
      | Ok pb -> Binder.release_independent (Service.binder w) pb);
  (* Watcher on the naming node: the moment the release buffers its
     credit — well inside the 5.0 coalescing window — crash the client,
     so the delta never flushes. *)
  Net.Network.spawn_on (Service.network w) "ns" ~name:"crash-watch" (fun () ->
      let rec wait () =
        if
          Use_delta.pending_uids (Binder.deltas (Service.binder w))
            ~client:"c1"
          <> []
        then begin
          Net.Network.crash (Service.network w) "c1";
          count_at_crash := use_count w uid "alpha"
        end
        else begin
          Sim.Engine.sleep eng 0.25;
          wait ()
        end
      in
      wait ());
  Service.run ~until:100.0 w;
  check_int "counter orphaned at crash" 1 !count_at_crash;
  check_int "flush died with the client" 0
    (Sim.Metrics.counter m "bind.flushes");
  check_bool "cleanup zeroed the orphan" true
    (Sim.Metrics.counter m "cleanup.orphans" >= 1);
  check_bool "quiescent after sweep" true (Gvd.quiescent (Service.gvd w) uid)

(* ------------------------------------------------------------------ *)
(* Use_delta: the client-side credit buffer on its own *)

let credits = Alcotest.(list (pair string int))

let delta_uids () =
  let sup = Store.Uid.supply () in
  let a = Store.Uid.fresh sup ~label:"a" in
  let b = Store.Uid.fresh sup ~label:"b" in
  let c = Store.Uid.fresh sup ~label:"c" in
  (a, b, c)

let uid_strings = List.map Store.Uid.to_string

let test_use_delta_credit_and_take () =
  let a, b, _ = delta_uids () in
  let d = Use_delta.create () in
  Use_delta.credit d ~client:"c1" ~uid:a ~node:"gamma" ~count:1;
  Use_delta.credit d ~client:"c1" ~uid:a ~node:"alpha" ~count:2;
  Use_delta.credit d ~client:"c1" ~uid:a ~node:"gamma" ~count:3;
  Use_delta.credit d ~client:"c1" ~uid:a ~node:"beta" ~count:0;
  Use_delta.credit d ~client:"c1" ~uid:a ~node:"beta" ~count:(-4);
  Use_delta.credit d ~client:"c1" ~uid:b ~node:"alpha" ~count:0;
  check_bool "a count <= 0 opens no bucket" true
    (Use_delta.clients_with d ~uid:b = []);
  Alcotest.check slist "b never pending" [ "a#0" ]
    (uid_strings (Use_delta.pending_uids d ~client:"c1"));
  Alcotest.check credits "merged, sorted by node"
    [ ("alpha", 2); ("gamma", 4) ]
    (Use_delta.take d ~client:"c1" ~uid:a);
  Alcotest.check credits "take empties the bucket" []
    (Use_delta.take d ~client:"c1" ~uid:a);
  Alcotest.check slist "nothing pending" []
    (uid_strings (Use_delta.pending_uids d ~client:"c1"));
  Use_delta.restore d ~client:"c1" ~uid:a [ ("gamma", 4); ("alpha", 2) ];
  Use_delta.credit d ~client:"c1" ~uid:a ~node:"alpha" ~count:1;
  Alcotest.check credits "restore puts credits back"
    [ ("alpha", 3); ("gamma", 4) ]
    (Use_delta.take d ~client:"c1" ~uid:a)

let test_use_delta_order_and_drop () =
  let a, b, c = delta_uids () in
  let d = Use_delta.create () in
  let credit client uid = Use_delta.credit d ~client ~uid ~node:"alpha" ~count:1 in
  credit "c1" b;
  credit "c2" a;
  credit "c1" c;
  credit "c1" a;
  credit "c3" a;
  credit "c1" b;
  Alcotest.check slist "c1 oldest first" [ "b#1"; "c#2"; "a#0" ]
    (uid_strings (Use_delta.pending_uids d ~client:"c1"));
  Alcotest.check slist "holders of a oldest first" [ "c2"; "c1"; "c3" ]
    (Use_delta.clients_with d ~uid:a);
  (* A taken bucket that is credited again goes to the back. *)
  ignore (Use_delta.take d ~client:"c1" ~uid:b);
  credit "c1" b;
  Alcotest.check slist "retaken bucket is newest" [ "c#2"; "a#0"; "b#1" ]
    (uid_strings (Use_delta.pending_uids d ~client:"c1"));
  Use_delta.set_flush_scheduled d ~client:"c1" true;
  Use_delta.set_flush_scheduled d ~client:"c2" true;
  Use_delta.drop_client d ~client:"c1";
  check_bool "dropped client's flag cleared" false
    (Use_delta.flush_scheduled d ~client:"c1");
  check_bool "other client's flag kept" true
    (Use_delta.flush_scheduled d ~client:"c2");
  Alcotest.check slist "dropped client holds nothing" []
    (uid_strings (Use_delta.pending_uids d ~client:"c1"));
  Alcotest.check credits "dropped credits are gone" []
    (Use_delta.take d ~client:"c1" ~uid:c);
  Alcotest.check slist "other clients kept, in order" [ "c2"; "c3" ]
    (Use_delta.clients_with d ~uid:a);
  Alcotest.check credits "other client's credits intact" [ ("alpha", 1) ]
    (Use_delta.take d ~client:"c2" ~uid:a);
  Use_delta.set_flush_scheduled d ~client:"c2" false;
  check_bool "flag cleared" false (Use_delta.flush_scheduled d ~client:"c2")

(* ------------------------------------------------------------------ *)
(* Commit-time exclusion end-to-end *)

let test_commit_exclusion_updates_gvd scheme () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  Service.spawn_client w "c1" (fun () ->
      match
        Service.with_bound w ~client:"c1" ~scheme
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
            let r = Service.invoke w group ~act "incr" in
            Net.Network.crash (Service.network w) "beta2";
            Sim.Engine.sleep eng 2.0;
            r)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  Service.run w;
  Alcotest.check slist "beta2 excluded" [ "beta1" ]
    (Gvd.current_st (Service.gvd w) uid);
  Alcotest.(check (option string))
    "beta1 has the commit" (Some "1") (store_payload w "beta1" uid)

let test_standard_exclusion_rolled_back_on_abort () =
  (* Under the standard scheme the Exclude happens inside the client
     action: if a later before-commit hook fails the commit, the exclusion
     must be undone with it. *)
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  Service.spawn_client w "c1" (fun () ->
      match
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
            let _ = Service.invoke w group ~act "incr" in
            Net.Network.crash (Service.network w) "beta2";
            Sim.Engine.sleep eng 2.0;
            (* Doom the action after the commit hook will have excluded. *)
            Action.Atomic.before_commit act (fun () -> Error "saboteur"))
      with
      | Ok _ -> Alcotest.fail "expected abort"
      | Error _ -> ());
  Service.run w;
  Alcotest.check slist "exclusion rolled back" [ "beta1"; "beta2" ]
    (List.sort String.compare (Gvd.current_st (Service.gvd w) uid))

(* ------------------------------------------------------------------ *)
(* Reintegration *)

let test_store_reintegration_after_exclusion () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  (* Crash beta2; commit a change (beta2 excluded); then recover beta2 and
     let reintegration bring it back with the fresh state. *)
  Net.Network.crash (Service.network w) "beta2";
  Service.spawn_client w "c1" (fun () ->
      match
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
            Service.invoke w group ~act "add 41")
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  Sim.Engine.schedule eng ~delay:60.0 (fun () ->
      Net.Network.recover (Service.network w) "beta2");
  Service.run w;
  Alcotest.check slist "beta2 re-included" [ "beta1"; "beta2" ]
    (List.sort String.compare (Gvd.current_st (Service.gvd w) uid));
  Alcotest.(check (option string))
    "state refreshed" (Some "41") (store_payload w "beta2" uid)

let test_server_reinsertion_waits_for_quiescence () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  (* Bounce the server node while a standard-scheme client holds its read
     lock: the recovery Insert must block (write lock) until the client
     commits. *)
  let client_done_at = ref nan in
  Service.spawn_client w "c1" (fun () ->
      match
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
            let r = Service.invoke w group ~act "incr" in
            Sim.Engine.sleep eng 100.0;
            ignore r)
      with
      | Ok _ -> client_done_at := Sim.Engine.now eng
      | Error _ ->
          (* The server bounce below aborts this action: also fine — note
             the completion time either way. *)
          client_done_at := Sim.Engine.now eng);
  Net.Fault.crash_for (Service.network w) ~at:20.0 ~duration:10.0 "alpha";
  Service.run w;
  let delays = Sim.Metrics.samples (Service.metrics w) "reintegrate.insert_delay" in
  check_int "one reinsertion" 1 (List.length delays);
  (* alpha recovered at t=30; the client held the sv read lock until its
     action ended, so the insert delay reflects that wait. *)
  check_bool "reinsertion waited for client" true
    (match delays with [ d ] -> 30.0 +. d >= !client_done_at -. 5.0 | _ -> false)

(* ------------------------------------------------------------------ *)
(* Cleanup of orphaned use counters *)

let test_cleanup_zeroes_crashed_client () =
  let w = small_world ~cleanup_period:10.0 () in
  let uid = counter_object w "ctr" in
  Service.run ~until:1.0 w;
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:Replica.Policy.Single_copy_passive
      with
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e)
      | Ok _pb ->
          (* c1 crashes while bound: never decrements. *)
          Net.Network.crash (Service.network w) "c1");
  Service.run ~until:100.0 w;
  check_bool "cleanup removed the orphan" true (Gvd.quiescent (Service.gvd w) uid);
  check_bool "orphans counted" true
    (Sim.Metrics.counter (Service.metrics w) "cleanup.orphans" >= 1)

(* ------------------------------------------------------------------ *)
(* Hybrid (§5) *)

let test_hybrid_bind_and_commit () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let hybrid = Hybrid.install (Service.binder w) ~node:"ns" in
  Hybrid.register hybrid ~from:"ns" ~uid ~sv:[ "alpha" ];
  Service.run ~until:1.0 w;
  Service.spawn_client w "c1" (fun () ->
      match
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            match
              Hybrid.bind hybrid ~act ~uid
                ~policy:Replica.Policy.Single_copy_passive
            with
            | Error e -> raise (Action.Atomic.Abort (Binder.bind_error_to_string e))
            | Ok binding -> Service.invoke w binding.Binder.bd_group ~act "incr")
      with
      | Ok r -> check_string "reply" "1" r
      | Error e -> Alcotest.fail e);
  Service.run w;
  Alcotest.(check (option string))
    "stores updated" (Some "1") (store_payload w "beta1" uid)

let test_hybrid_exclusion_still_atomic () =
  let w = small_world () in
  let uid = counter_object w "ctr" in
  let hybrid = Hybrid.install (Service.binder w) ~node:"ns" in
  Hybrid.register hybrid ~from:"ns" ~uid ~sv:[ "alpha" ];
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  Service.spawn_client w "c1" (fun () ->
      match
        Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
            match
              Hybrid.bind hybrid ~act ~uid
                ~policy:Replica.Policy.Single_copy_passive
            with
            | Error e -> raise (Action.Atomic.Abort (Binder.bind_error_to_string e))
            | Ok binding ->
                let r = Service.invoke w binding.Binder.bd_group ~act "incr" in
                Net.Network.crash (Service.network w) "beta2";
                Sim.Engine.sleep eng 2.0;
                r)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  Service.run w;
  Alcotest.check slist "excluded transactionally" [ "beta1" ]
    (Gvd.current_st (Service.gvd w) uid)

(* ------------------------------------------------------------------ *)
(* The paper's core invariant, under randomized fire *)

(* After any run: for every object, all stores listed in St hold
   byte-identical states, and that state carries the newest version found
   anywhere in st_home. *)
let check_invariant w uid =
  let g = Service.gvd w in
  let st = Gvd.current_st g uid in
  let states =
    List.filter_map
      (fun node ->
        Option.map (fun s -> (node, s))
          (Store.Object_store.read
             (Action.Store_host.objects (Service.store_host w) node)
             uid))
      st
  in
  (* Every St member must actually hold a state... *)
  if List.length states <> List.length st then false
  else
    match states with
    | [] -> true
    | (_, first) :: rest ->
        List.for_all (fun (_, s) -> Store.Object_state.equal s first) rest

let invariant_trial seed =
  let w =
    Service.create ~seed
      (topo
         ~servers:[ "alpha"; "alpha2" ]
         ~stores:[ "beta1"; "beta2"; "beta3" ]
         ~clients:[ "c1"; "c2"; "c3" ])
  in
  let uid =
    Service.create_object w ~name:"acct" ~impl:"account"
      ~sv:[ "alpha"; "alpha2" ] ~st:[ "beta1"; "beta2"; "beta3" ] ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let rng = Sim.Rng.create seed in
  (* Clients hammer the object with deposits under random schemes. *)
  List.iter
    (fun client ->
      Service.spawn_client w client (fun () ->
          for i = 1 to 5 do
            let scheme = Sim.Rng.pick rng Scheme.all in
            (match
               Service.with_bound w ~client ~scheme
                 ~policy:Replica.Policy.Single_copy_passive ~uid
                 (fun act group ->
                   Service.invoke w group ~act
                     (Printf.sprintf "deposit %d" (10 + i)))
             with
            | Ok _ -> ()
            | Error _ -> () (* aborts are fine; consistency is the point *));
            Sim.Engine.sleep eng (Sim.Rng.uniform rng 1.0 10.0)
          done))
    [ "c1"; "c2"; "c3" ];
  (* Random store-node churn while the clients run. *)
  List.iter
    (fun store ->
      if Sim.Rng.bool rng 0.7 then begin
        let at = Sim.Rng.uniform rng 5.0 120.0 in
        Net.Fault.crash_for (Service.network w) ~at ~duration:(Sim.Rng.uniform rng 10.0 40.0)
          store
      end)
    [ "beta2"; "beta3" ];
  Service.run ~until:2000.0 w;
  check_invariant w uid

let prop_mutual_consistency_under_churn =
  QCheck.Test.make ~name:"St members mutually consistent under churn" ~count:25
    QCheck.(int_range 1 10_000)
    (fun seed -> invariant_trial (Int64.of_int seed))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "naming.use_list",
      [
        tc "basics" `Quick test_use_list_basics;
        Test_util.qcheck prop_use_list_counts_match;
      ] );
    ( "naming.gvd",
      [
        tc "register and lookup" `Quick test_register_and_lookup;
        tc "get server and view" `Quick test_get_server_and_view;
        tc "insert remove include exclude" `Quick test_insert_remove_include_exclude;
        tc "abort restores image" `Quick test_abort_restores_image;
        tc "nested action transfer" `Quick test_nested_action_transfer;
        tc "insert busy when in use" `Quick test_insert_busy_when_in_use;
        tc "every update op commits" `Quick test_update_ops_commit;
        tc "every update op aborts" `Quick test_update_ops_abort;
        tc "if_rev mismatch keeps the fence" `Quick test_update_if_rev_keeps_fence;
        tc "exclude never empties St" `Quick test_exclude_never_empties_st;
        Test_util.qcheck prop_delta_ops_commute;
      ] );
    ( "naming.locks",
      [
        tc "standard read lock blocks insert" `Quick
          test_standard_read_lock_blocks_insert_until_commit;
        tc "exclude-write vs plain promotion" `Quick
          test_exclude_write_vs_plain_write_promotion;
        tc "commit wakes the st: waiter first" `Quick test_commit_wakes_st_first;
        tc "abort wakes the st: waiter first" `Quick test_abort_wakes_st_first;
        tc "an end cancels a queued request" `Quick test_end_cancels_queued_request;
        tc "a lost transfer ends with the parent" `Quick
          test_lost_transfer_ends_with_the_parent;
      ] );
    ( "naming.schemes",
      [
        tc "standard end to end" `Quick (test_scheme_end_to_end Scheme.Standard);
        tc "independent end to end" `Quick (test_scheme_end_to_end Scheme.Independent);
        tc "nested-toplevel end to end" `Quick
          (test_scheme_end_to_end Scheme.Nested_toplevel);
        tc "standard futile binds" `Quick test_standard_futile_binds;
        tc "independent removes dead server" `Quick test_independent_removes_dead_server;
        tc "independent use lists track binding" `Quick
          test_independent_use_lists_track_binding;
        tc "second client joins in-use servers" `Quick
          test_second_client_joins_in_use_servers;
      ] );
    ( "naming.use_delta",
      [
        tc "credit merge, take, restore" `Quick test_use_delta_credit_and_take;
        tc "oldest-first order, drop_client" `Quick test_use_delta_order_and_drop;
      ] );
    ( "naming.batch",
      [
        tc "batched bind is one round" `Quick test_batched_bind_is_one_round;
        tc "scheme-A bind is one locked round" `Quick test_standard_bind_is_one_round;
        tc "rebind cancels deferred decrement" `Quick
          test_rebind_cancels_decrement;
        tc "crashed client's unflushed delta swept" `Quick
          test_crashed_client_unflushed_delta_cleanup;
      ] );
    ( "naming.exclusion",
      [
        tc "standard commit exclusion" `Quick
          (test_commit_exclusion_updates_gvd Scheme.Standard);
        tc "nested-toplevel commit exclusion" `Quick
          (test_commit_exclusion_updates_gvd Scheme.Nested_toplevel);
        tc "standard exclusion rolled back on abort" `Quick
          test_standard_exclusion_rolled_back_on_abort;
      ] );
    ( "naming.reintegration",
      [
        tc "store reintegration after exclusion" `Quick
          test_store_reintegration_after_exclusion;
        tc "server reinsertion waits for quiescence" `Quick
          test_server_reinsertion_waits_for_quiescence;
      ] );
    ( "naming.cleanup",
      [ tc "zeroes crashed client" `Quick test_cleanup_zeroes_crashed_client ] );
    ( "naming.hybrid",
      [
        tc "bind and commit" `Quick test_hybrid_bind_and_commit;
        tc "exclusion still atomic" `Quick test_hybrid_exclusion_still_atomic;
      ] );
    ( "naming.invariant",
      [ Test_util.qcheck prop_mutual_consistency_under_churn ] );
  ]
