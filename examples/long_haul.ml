(* Long haul: a soak of the whole system with every daemon running.

   Three clients hammer two objects under all three access schemes and all
   three replication policies for 2000 virtual time units while server and
   store nodes churn; the use-list cleanup daemon runs throughout. At the
   end the accounting must be exact: the committed value of each counter
   equals the sum of its acknowledged additions, and every StA member
   holds the identical state.

   Run with: dune exec examples/long_haul.exe *)

open Naming

let () =
  let servers = [ "s1"; "s2" ] and stores = [ "t1"; "t2"; "t3" ] in
  let clients = [ "c1"; "c2"; "c3" ] in
  let world =
    Service.create ~seed:42L ~cleanup_period:25.0
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = servers;
        store_nodes = stores;
        client_nodes = clients;
      }
  in
  let objects =
    List.map
      (fun name ->
        ( name,
          Service.create_object world ~name ~impl:"counter" ~sv:servers
            ~st:stores () ))
      [ "ledger-a"; "ledger-b" ]
  in
  Service.run ~until:1.0 world;
  let eng = Service.engine world in
  let net = Service.network world in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let horizon = 2000.0 in
  List.iter
    (fun n ->
      Net.Fault.churn net ~rng:(Sim.Rng.split rng) ~mttf:250.0 ~mttr:40.0
        ~until:horizon n)
    (servers @ stores);
  let expected = Hashtbl.create 2 and commits = ref 0 and aborts = ref 0 in
  List.iter (fun (name, _) -> Hashtbl.replace expected name 0) objects;
  List.iter
    (fun client ->
      let crng = Sim.Rng.split rng in
      Service.spawn_client world client (fun () ->
          let rec loop () =
            if Sim.Engine.now eng < horizon then begin
              let name, uid = Sim.Rng.pick crng objects in
              let scheme = Sim.Rng.pick crng Scheme.all in
              let policy =
                Sim.Rng.pick crng
                  [
                    Replica.Policy.Single_copy_passive;
                    Replica.Policy.Active 2;
                    Replica.Policy.Coordinator_cohort 2;
                  ]
              in
              let amount = 1 + Sim.Rng.int crng 50 in
              (match
                 Service.with_bound world ~client ~scheme ~policy ~uid
                   (fun act group ->
                     Service.invoke world group ~act
                       (Printf.sprintf "add %d" amount))
               with
              | Ok _ ->
                  incr commits;
                  Hashtbl.replace expected name (Hashtbl.find expected name + amount)
              | Error _ -> incr aborts);
              Sim.Engine.sleep eng (Sim.Rng.uniform crng 5.0 25.0);
              loop ()
            end
          in
          loop ()))
    clients;
  Service.run ~until:(horizon +. 2000.0) world;
  Printf.printf "soak finished: %d commits, %d aborts over %.0f time units\n"
    !commits !aborts horizon;
  let all_exact = ref true in
  List.iter
    (fun (name, uid) ->
      let st = Gvd.current_st (Service.gvd world) uid in
      let states =
        List.filter_map
          (fun node ->
            Store.Object_store.read
              (Action.Store_host.objects (Service.store_host world) node)
              uid)
          (stores : string list)
      in
      let newest =
        List.fold_left
          (fun best s ->
            match best with
            | Some b when not (Store.Object_state.newer_than s b) -> best
            | _ -> Some s)
          None states
      in
      let actual =
        match newest with
        | Some s -> int_of_string s.Store.Object_state.payload
        | None -> 0
      in
      let want = Hashtbl.find expected name in
      if actual <> want then all_exact := false;
      Printf.printf "%s: expected %d, committed %d [%s]  St=[%s]\n" name want
        actual
        (if actual = want then "EXACT" else "MISMATCH")
        (String.concat ";" st))
    objects;
  Printf.printf "cleanup orphans removed: %d\n"
    (Sim.Metrics.counter (Service.metrics world) "cleanup.orphans");
  if not !all_exact then exit 1
