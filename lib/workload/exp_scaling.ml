open Naming

let run ?(seed = 101L) () =
  let w =
    Service.create ~seed
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "srv1"; "srv2" ];
        store_nodes = [ "disk1"; "disk2" ];
        client_nodes = [ "app"; "ops" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "srv1" ]
      ~st:[ "disk1" ] ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  (* Phases: 0-100 baseline; ~100 add disk2; ~200 add srv2; ~300 retire
     srv1; run to 400. *)
  let phase_of t =
    if t < 100.0 then "baseline"
    else if t < 200.0 then "after add_store"
    else if t < 300.0 then "after add_server"
    else "after retire"
  in
  let commits = Hashtbl.create 4 and attempts = Hashtbl.create 4 in
  let bump tbl phase =
    Hashtbl.replace tbl phase
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl phase))
  in
  Service.spawn_client w "app" (fun () ->
      let rec loop () =
        if Sim.Engine.now eng < 400.0 then begin
          let phase = phase_of (Sim.Engine.now eng) in
          bump attempts phase;
          (match
             Service.with_bound w ~client:"app" ~scheme:Scheme.Independent
               ~policy:Replica.Policy.Single_copy_passive ~uid
               (fun act group -> Service.invoke w group ~act "incr")
           with
          | Ok _ -> bump commits phase
          | Error _ -> ());
          Sim.Engine.sleep eng (Sim.Rng.uniform rng 2.0 6.0);
          loop ()
        end
      in
      loop ());
  Service.spawn_client w "ops" (fun () ->
      let retry_admin label f =
        let rec go tries =
          match f () with
          | Ok () -> ()
          | Error (Admin.Busy _) when tries > 0 ->
              Sim.Engine.sleep eng 10.0;
              go (tries - 1)
          | Error e ->
              failwith (label ^ ": " ^ Admin.error_to_string e)
        in
        go 20
      in
      Sim.Engine.sleep eng 100.0;
      retry_admin "add_store" (fun () ->
          Admin.add_store (Service.binder w) ~from:"ops" ~uid "disk2");
      Sim.Engine.sleep eng 100.0;
      retry_admin "add_server" (fun () ->
          Admin.add_server (Service.binder w) ~from:"ops" ~uid "srv2");
      Sim.Engine.sleep eng 100.0;
      retry_admin "retire_server" (fun () ->
          Admin.retire_server (Service.binder w) ~from:"ops" ~uid "srv1"));
  Service.run w;
  let consistent =
    let st = Gvd.current_st (Service.gvd w) uid in
    let states =
      List.filter_map
        (fun node ->
          Store.Object_store.read
            (Action.Store_host.objects (Service.store_host w) node)
            uid)
        st
    in
    List.length states = List.length st
    &&
    match states with
    | [] -> true
    | first :: rest -> List.for_all (Store.Object_state.equal first) rest
  in
  let row phase =
    let c = Option.value ~default:0 (Hashtbl.find_opt commits phase) in
    let a = Option.value ~default:0 (Hashtbl.find_opt attempts phase) in
    [
      phase;
      Table.cell_i a;
      Table.cell_i c;
      Table.cell_pct (if a = 0 then nan else float_of_int c /. float_of_int a);
    ]
  in
  Table.make
    ~title:"tab-scaling: replication degree changed under load (§2.3(1))"
    ~columns:[ "phase"; "attempts"; "commits"; "commit rate" ]
    ~notes:
      [
        "An application stream runs throughout while operations staff grow";
        "StA, grow SvA and finally retire the original server. The database";
        "locks and Insert's quiescence requirement serialise the changes";
        "against current users, so every phase stays consistent.";
        (Printf.sprintf "Final Sv=[%s] St=[%s]; St invariant: %s."
           (String.concat ";" (Gvd.current_sv (Service.gvd w) uid))
           (String.concat ";" (Gvd.current_st (Service.gvd w) uid))
           (if consistent then "holds" else "VIOLATED"));
      ]
    (List.map row [ "baseline"; "after add_store"; "after add_server"; "after retire" ])
