(* Dynamic scaling: changing the degree of replication at runtime
   (§2.3(1), §4.1.2 — Insert/Remove "for varying the degree of server
   replication", plus the store-side equivalent).

   Storyline: an inventory service starts unreplicated, then operations
   staff grow it — first an extra object store (durability), then an extra
   server (availability) — while clients keep using it; finally the
   original server is retired. Every step runs through the naming
   service's atomic operations, so no client ever observes a half-changed
   view.

   Run with: dune exec examples/dynamic_scaling.exe *)

open Naming

let show world uid label =
  Printf.printf "%-26s Sv=[%s]  St=[%s]\n" label
    (String.concat "; " (Gvd.current_sv (Service.gvd world) uid))
    (String.concat "; " (Gvd.current_st (Service.gvd world) uid))

let () =
  let world =
    Service.create ~seed:6L
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "srv-old"; "srv-new" ];
        store_nodes = [ "disk1"; "disk2" ];
        client_nodes = [ "app"; "ops" ];
      }
  in
  let uid =
    Service.create_object world ~name:"inventory" ~impl:"kvmap"
      ~sv:[ "srv-old" ] ~st:[ "disk1" ] ()
  in
  let eng = Service.engine world in
  let use op =
    match
      Service.with_bound world ~client:"app" ~scheme:Scheme.Independent
        ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
          Service.invoke world group ~act op)
    with
    | Ok reply -> Printf.printf "  app: %-22s -> %s\n" op reply
    | Error e -> Printf.printf "  app: %-22s -> aborted: %s\n" op e
  in
  Service.spawn_client world "app" (fun () ->
      show world uid "initial";
      use "put bolts 250";
      use "put nuts 900");
  Service.spawn_client world "ops" (fun () ->
      Sim.Engine.sleep eng 60.0;
      (* Step 1: durability — a second store, state copied under lock. *)
      (match
         Admin.add_store (Service.binder world) ~from:"ops" ~uid "disk2"
       with
      | Ok () -> show world uid "after add_store disk2"
      | Error e -> Printf.printf "add_store: %s\n" (Admin.error_to_string e));
      (* Step 2: availability — a second server node. Insert needs
         quiescence, so ops retries if the app is mid-binding. *)
      let rec add_server tries =
        match Admin.add_server (Service.binder world) ~from:"ops" ~uid "srv-new" with
        | Ok () -> show world uid "after add_server srv-new"
        | Error (Admin.Busy _) when tries > 0 ->
            Sim.Engine.sleep eng 10.0;
            add_server (tries - 1)
        | Error e -> Printf.printf "add_server: %s\n" (Admin.error_to_string e)
      in
      add_server 10;
      (* Step 3: retire the old server. *)
      let rec retire tries =
        match
          Admin.retire_server (Service.binder world) ~from:"ops" ~uid "srv-old"
        with
        | Ok () -> show world uid "after retire srv-old"
        | Error (Admin.Busy _) when tries > 0 ->
            Sim.Engine.sleep eng 10.0;
            retire (tries - 1)
        | Error e -> Printf.printf "retire: %s\n" (Admin.error_to_string e)
      in
      retire 10);
  Service.spawn_client world "app" (fun () ->
      Sim.Engine.sleep eng 200.0;
      (* The app continues obliviously on the new topology. *)
      use "get bolts";
      use "put screws 410");
  Service.run world;
  (* Both disks hold the identical final inventory. *)
  List.iter
    (fun disk ->
      match
        Store.Object_store.read
          (Action.Store_host.objects (Service.store_host world) disk)
          uid
      with
      | Some s -> Printf.printf "%s: %s\n" disk s.Store.Object_state.payload
      | None -> Printf.printf "%s: (no state)\n" disk)
    [ "disk1"; "disk2" ]
