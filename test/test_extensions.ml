(* Tests for the extension features: administrative replication-degree
   changes, passivation and re-activation, the richer stock object
   implementations, and lazy-checkpoint failover semantics. *)

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

let store_payload w node uid =
  match
    Store.Object_store.read
      (Action.Store_host.objects (Service.store_host w) node)
      uid
  with
  | Some s -> Some s.Store.Object_state.payload
  | None -> None

(* ------------------------------------------------------------------ *)
(* Object implementations *)

let apply impl payload op = impl.Replica.Object_impl.apply payload op

let test_queue_impl () =
  let q = Replica.Object_impl.fifo_queue in
  let p, r = apply q "" "push a" in
  check_string "push" "ok" r;
  let p, _ = apply q p "push b" in
  let _, r = apply q p "peek" in
  check_string "peek" "a" r;
  let _, r = apply q p "length" in
  check_string "length" "2" r;
  let p, r = apply q p "pop" in
  check_string "pop a" "a" r;
  let p, r = apply q p "pop" in
  check_string "pop b" "b" r;
  let _, r = apply q p "pop" in
  check_string "empty" "empty" r

let test_set_impl () =
  let s = Replica.Object_impl.string_set in
  let p, r = apply s "" "add x" in
  check_string "added" "added" r;
  let p, r = apply s p "add x" in
  check_string "present" "present" r;
  let _, r = apply s p "mem x" in
  check_string "mem" "true" r;
  let p, r = apply s p "remove x" in
  check_string "removed" "removed" r;
  let _, r = apply s p "remove x" in
  check_string "absent" "absent" r

let test_set_sorted_canonical () =
  (* Canonical (sorted) payloads: the same set built in different orders
     is byte-identical — required for the mutual-consistency check. *)
  let s = Replica.Object_impl.string_set in
  let build ops = List.fold_left (fun p op -> fst (apply s p op)) "" ops in
  check_string "order independent"
    (build [ "add b"; "add a"; "add c" ])
    (build [ "add c"; "add a"; "add b" ])

let test_kvmap_impl () =
  let m = Replica.Object_impl.kv_map in
  let p, _ = apply m "" "put colour blue" in
  let p, _ = apply m p "put size large" in
  let _, r = apply m p "get colour" in
  check_string "get" "blue" r;
  let _, r = apply m p "get missing" in
  check_string "missing" "(none)" r;
  let p, _ = apply m p "put colour red" in
  let _, r = apply m p "get colour" in
  check_string "overwrite" "red" r;
  let p, _ = apply m p "del size" in
  let _, r = apply m p "size" in
  check_string "size" "1" r;
  ignore p

(* A put that would break the payload's form is refused: a [';'] in the
   value or a ['='] or [';'] in the key would read back as other
   entries. *)
let test_kvmap_refuses_separators () =
  let m = Replica.Object_impl.kv_map in
  let p, _ = apply m "" "put a 1" in
  List.iter
    (fun op ->
      let p', r = apply m p op in
      check_string (op ^ " replies") "invalid" r;
      check_string (op ^ " leaves the state") p p')
    [ "put k x;y"; "put k=a v"; "put k;a v"; "put k a;" ];
  check_string "size" "1" (snd (apply m p "size"));
  let p, r = apply m p "put k x y=z" in
  check_string "= and spaces in a value" "ok" r;
  check_string "read back" "x y=z" (snd (apply m p "get k"))

(* The kvmap as it was first written: parse every entry, edit the list,
   sort and re-render; and, as the kvmap does since, refuse a put whose
   key holds ['='] or [';'] or whose value holds [';']. It is the oracle
   for the one-pass [kv_map], which must agree with it byte for byte on
   every payload, canonical or not. *)
module Kvmap_oracle = struct
  let split_op op =
    match String.index_opt op ' ' with
    | None -> (op, "")
    | Some i ->
        (String.sub op 0 i, String.sub op (i + 1) (String.length op - i - 1))

  let parse payload =
    if String.equal payload "" then []
    else
      List.map
        (fun pair ->
          match String.index_opt pair '=' with
          | Some i ->
              ( String.sub pair 0 i,
                String.sub pair (i + 1) (String.length pair - i - 1) )
          | None -> (pair, ""))
        (String.split_on_char ';' payload)

  let render entries =
    entries
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
    |> String.concat ";"

  let apply payload op =
    let entries = parse payload in
    match split_op op with
    | "put", rest -> (
        match String.index_opt rest ' ' with
        | Some i ->
            let k = String.sub rest 0 i in
            let v = String.sub rest (i + 1) (String.length rest - i - 1) in
            if String.contains k '=' || String.contains k ';'
               || String.contains v ';'
            then (payload, "invalid")
            else (render ((k, v) :: List.remove_assoc k entries), "ok")
        | None -> (payload, "usage: put k v"))
    | "get", k -> (
        match List.assoc_opt k entries with
        | Some v -> (payload, v)
        | None -> (payload, "(none)"))
    | "del", k -> (render (List.remove_assoc k entries), "ok")
    | "size", _ -> (payload, string_of_int (List.length entries))
    | other, _ -> (payload, "unknown op: " ^ other)
end

(* A start payload and a run of ops. Short strings over an alphabet that
   holds the separators give non-canonical payloads (duplicate keys,
   entries with no ['='], empty keys, a trailing [';'], [""]) and keys or
   values with ['='], [';'] or spaces in them; puts of a few plain keys
   build canonical maps, where the in-place edits do the work. *)
let kvmap_case_gen =
  let open QCheck.Gen in
  let junk n =
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '='; ';'; ' ' ]) (int_range 0 n)
  in
  let key =
    frequency [ (4, oneofl [ "a"; "b"; "c"; "ab"; "k1"; "k2"; "" ]); (1, junk 3) ]
  in
  let value =
    frequency [ (3, map (Printf.sprintf "v%d") (int_range 0 99)); (1, junk 5) ]
  in
  let op =
    frequency
      [
        (4, map2 (Printf.sprintf "put %s %s") key value);
        (2, map (( ^ ) "get ") key);
        (2, map (( ^ ) "del ") key);
        (1, return "size");
        ( 1,
          map2 ( ^ )
            (oneofl [ "put"; "get"; "del"; "size"; "pop"; ""; "putx" ])
            (opt (map (( ^ ) " ") (junk 6)) >|= Option.value ~default:"") );
      ]
  in
  pair (frequency [ (1, return ""); (2, junk 16) ]) (list_size (int_range 1 12) op)

let prop_kvmap_matches_oracle =
  QCheck.Test.make ~name:"kvmap agrees with the parse/sort/render oracle"
    ~count:2000
    (QCheck.make
       ~print:QCheck.Print.(pair string (list string))
       kvmap_case_gen)
    (fun (payload, ops) ->
      let m = Replica.Object_impl.kv_map in
      let rec go p = function
        | [] -> true
        | op :: rest ->
            let expected = Kvmap_oracle.apply p op in
            apply m p op = expected && go (fst expected) rest
      in
      go payload ops)

(* The e2e benchmark's map: 40 entries of a 5-byte key and a 26-byte
   value, 1,319 bytes. *)
let kvmap_40 =
  String.concat ";" (List.init 40 (fun i -> Printf.sprintf "key%02d=%026d" i i))

let test_kvmap_alloc () =
  let m = Replica.Object_impl.kv_map in
  let payload_words = float_of_int (Obj.reachable_words (Obj.repr kvmap_40)) in
  let op = "put key17 " ^ String.make 26 'z' in
  let put = Test_util.minor_words (fun () -> apply m kvmap_40 op) in
  let get = Test_util.minor_words (fun () -> apply m kvmap_40 "get key33") in
  check_bool
    (Printf.sprintf "put allocates %.0f words, payload %.0f" put payload_words)
    true
    (put <= 2.0 *. payload_words);
  check_bool (Printf.sprintf "get allocates %.0f words" get) true (get <= 64.0)

let prop_queue_fifo =
  QCheck.Test.make ~name:"queue pops in push order" ~count:200
    QCheck.(small_list (int_range 0 999))
    (fun xs ->
      let q = Replica.Object_impl.fifo_queue in
      let items = List.map string_of_int xs in
      let payload =
        List.fold_left (fun p x -> fst (apply q p ("push " ^ x))) "" items
      in
      let rec drain p acc =
        let p', r = apply q p "pop" in
        if String.equal r "empty" then List.rev acc else drain p' (r :: acc)
      in
      drain payload [] = items)

(* ------------------------------------------------------------------ *)
(* Admin: changing the degree of replication *)

let admin_world () =
  let w =
    Service.create ~seed:11L
      (topo
         ~servers:[ "alpha"; "alpha2" ]
         ~stores:[ "beta1"; "beta2"; "beta3" ]
         ~clients:[ "c1"; "ops" ])
  in
  (* beta3 starts outside StA; alpha2 outside SvA. *)
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1"; "beta2" ] ()
  in
  (w, uid)

let test_admin_add_server () =
  let w, uid = admin_world () in
  Service.spawn_client w "ops" (fun () ->
      match Admin.add_server (Service.binder w) ~from:"ops" ~uid "alpha2" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
  Service.run w;
  Alcotest.check slist "sv grown" [ "alpha"; "alpha2" ]
    (Gvd.current_sv (Service.gvd w) uid)

let test_admin_add_server_busy_while_used () =
  let w, uid = admin_world () in
  let eng = Service.engine w in
  (* c1 keeps the use list non-empty via a scheme-B binding. *)
  Service.spawn_client w "c1" (fun () ->
      match
        Binder.bind_independent (Service.binder w) ~client:"c1" ~uid
          ~policy:Replica.Policy.Single_copy_passive
      with
      | Ok pb ->
          Sim.Engine.sleep eng 60.0;
          Binder.release_independent (Service.binder w) pb
      | Error e -> Alcotest.fail (Binder.bind_error_to_string e));
  let outcome = ref (Ok ()) in
  Sim.Engine.schedule eng ~delay:20.0 (fun () ->
      Net.Network.spawn_on (Service.network w) "ops" (fun () ->
          outcome := Admin.add_server (Service.binder w) ~from:"ops" ~uid "alpha2"));
  Service.run w;
  (match !outcome with
  | Error (Admin.Busy _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Admin.error_to_string e)
  | Ok () -> Alcotest.fail "expected Busy")

let test_admin_retire_server_gone_for_good () =
  let w, uid = admin_world () in
  let net = Service.network w in
  Service.spawn_client w "ops" (fun () ->
      (match Admin.retire_server (Service.binder w) ~from:"ops" ~uid "alpha" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
      (* A bounce of alpha must NOT re-insert it: it is out of sv_home. *)
      Net.Network.crash net "alpha";
      Sim.Engine.sleep (Service.engine w) 2.0;
      Net.Network.recover net "alpha");
  Service.run w;
  Alcotest.check slist "sv empty" [] (Gvd.current_sv (Service.gvd w) uid)

let test_admin_add_store_copies_latest () =
  let w, uid = admin_world () in
  (* Commit an update first so the copied state is non-initial. *)
  Service.spawn_client w "c1" (fun () ->
      (match
         Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
           ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
             Service.invoke w group ~act "add 9")
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      match
        Admin.add_store (Service.binder w) ~from:"c1" ~uid "beta3"
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
  Service.run w;
  Alcotest.check slist "st grown" [ "beta1"; "beta2"; "beta3" ]
    (List.sort String.compare (Gvd.current_st (Service.gvd w) uid));
  Alcotest.(check (option string))
    "state copied" (Some "9") (store_payload w "beta3" uid)

let test_admin_retire_store_not_reincluded () =
  let w, uid = admin_world () in
  let net = Service.network w in
  Service.spawn_client w "ops" (fun () ->
      (match Admin.retire_store (Service.binder w) ~from:"ops" ~uid "beta2" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
      (* A bounce of beta2 must not re-include it. *)
      Net.Network.crash net "beta2";
      Sim.Engine.sleep (Service.engine w) 2.0;
      Net.Network.recover net "beta2");
  Service.run w;
  Alcotest.check slist "st shrunk for good" [ "beta1" ]
    (Gvd.current_st (Service.gvd w) uid)

let test_admin_grown_store_used_by_next_commit () =
  let w, uid = admin_world () in
  Service.spawn_client w "c1" (fun () ->
      (match
         Admin.add_store (Service.binder w) ~from:"c1" ~uid "beta3"
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Admin.error_to_string e));
      match
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
            Service.invoke w group ~act "add 4")
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  Service.run w;
  Alcotest.(check (option string))
    "new store receives commits" (Some "4") (store_payload w "beta3" uid)

(* With every St home down there is no state to copy: the administrative
   action aborts with the error kind its body raised, not a refusal. *)
let test_admin_add_store_no_source_unavailable () =
  let w, uid = admin_world () in
  let net = Service.network w in
  List.iter (Net.Network.crash net) [ "beta1"; "beta2" ];
  let outcome = ref (Ok ()) in
  Service.spawn_client w "ops" (fun () ->
      outcome := Admin.add_store (Service.binder w) ~from:"ops" ~uid "beta3");
  Service.run w;
  match !outcome with
  | Error (Admin.Unavailable _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Admin.error_to_string e)
  | Ok () -> Alcotest.fail "expected Unavailable"

(* ------------------------------------------------------------------ *)
(* Passivation *)

let test_reactivation_after_passivation () =
  let w =
    Service.create ~seed:14L
      (topo ~servers:[ "alpha" ] ~stores:[ "beta1" ] ~clients:[ "c1" ])
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "beta1" ] ()
  in
  let run_incr () =
    Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
      ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
        Service.invoke w group ~act "incr")
  in
  let eng = Service.engine w in
  let second = ref (Ok "") in
  Service.spawn_client w "c1" (fun () ->
      ignore (run_incr ());
      (* Passivate, then use the object again: a fresh bind must
         re-activate from the store with the committed state. *)
      Sim.Engine.sleep eng 5.0;
      check_bool "passivated" true
        (Replica.Server.passivate (Service.server_runtime w) ~from:"c1"
           ~server:"alpha" ~uid
        = Ok true);
      second := run_incr ());
  Service.run w;
  check_bool "state survived passivation" true (!second = Ok "2")

(* ------------------------------------------------------------------ *)
(* Lazy checkpointing: failover semantics *)

let cc_failover_world ~eager =
  let w =
    Service.create ~seed:15L
      (topo ~servers:[ "k1"; "k2" ] ~stores:[ "t1" ] ~clients:[ "c1" ])
  in
  Replica.Server.set_eager_checkpoints (Service.server_runtime w) eager;
  let uid =
    Service.create_object w ~name:"obj" ~impl:"account" ~sv:[ "k1"; "k2" ]
      ~st:[ "t1" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  let outcome = ref (Error "never ran") in
  Service.spawn_client w "c1" (fun () ->
      outcome :=
        Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
          ~policy:(Replica.Policy.Coordinator_cohort 2) ~uid (fun act group ->
            ignore (Service.invoke w group ~act "deposit 30");
            Net.Network.crash net "k1";
            Sim.Engine.sleep eng 5.0;
            Service.invoke w group ~act "deposit 12"));
  Service.run w;
  (w, uid, !outcome)

let test_eager_checkpoint_failover_continues () =
  let w, uid, outcome = cc_failover_world ~eager:true in
  check_bool "continued" true (outcome = Ok "42");
  Alcotest.(check (option string)) "committed" (Some "42") (store_payload w "t1" uid)

let test_lazy_checkpoint_failover_aborts_loudly () =
  let w, uid, outcome = cc_failover_world ~eager:false in
  (match outcome with
  | Error reason ->
      check_bool "reported as staged-state loss" true
        (Astring.String.is_infix ~affix:"staged state lost" reason)
  | Ok r -> Alcotest.fail ("unexpected commit: " ^ r));
  (* Crucially: no silent data loss — the store still has the initial
     state, not a half-applied action. *)
  Alcotest.(check (option string)) "untouched" (Some "0") (store_payload w "t1" uid)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "ext.impls",
      [
        tc "queue" `Quick test_queue_impl;
        tc "set" `Quick test_set_impl;
        tc "set canonical" `Quick test_set_sorted_canonical;
        tc "kvmap" `Quick test_kvmap_impl;
        tc "kvmap allocation" `Quick test_kvmap_alloc;
        tc "kvmap refuses separators" `Quick test_kvmap_refuses_separators;
        Test_util.qcheck prop_kvmap_matches_oracle;
        Test_util.qcheck prop_queue_fifo;
      ] );
    ( "ext.admin",
      [
        tc "add server" `Quick test_admin_add_server;
        tc "add server busy while used" `Quick test_admin_add_server_busy_while_used;
        tc "retire server gone for good" `Quick test_admin_retire_server_gone_for_good;
        tc "add store copies latest" `Quick test_admin_add_store_copies_latest;
        tc "retire store not re-included" `Quick test_admin_retire_store_not_reincluded;
        tc "grown store used by next commit" `Quick
          test_admin_grown_store_used_by_next_commit;
        tc "add store with no source is unavailable" `Quick
          test_admin_add_store_no_source_unavailable;
      ] );
    ( "ext.passivator",
      [
        tc "reactivation after passivation" `Quick test_reactivation_after_passivation;
      ] );
    ( "ext.checkpointing",
      [
        tc "eager failover continues" `Quick test_eager_checkpoint_failover_continues;
        tc "lazy failover aborts loudly" `Quick
          test_lazy_checkpoint_failover_aborts_loudly;
      ] );
  ]
