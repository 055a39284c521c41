open Naming

let run_variant ~seed ~replicated =
  let w =
    Service.create ~seed ~durable_naming:true
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "t1"; "t2" ];
        (* ns2 participates as a plain node; the backup database instance
           is installed on it by hand below. *)
        client_nodes = [ "c1"; "ns2" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  let eng = Service.engine w in
  let net = Service.network w in
  let gvd1 = Service.gvd w in
  let binder1 = Service.binder w in
  let primary_ready = ref true in
  let backup =
    if not replicated then None
    else begin
      let gvd2 =
        Gvd.install ~durable:true (Service.atomic w) ~node:"ns2"
      in
      Gvd.register_direct gvd2 ~uid ~name:"obj" ~impl:"counter"
        ~sv:[ "alpha" ] ~st:[ "t1"; "t2" ];
      Gvd.mirror_to gvd1 gvd2;
      Gvd.mirror_to gvd2 gvd1;
      let binder2 =
    Binder.create (Router.of_gvd (Service.atomic w) gvd2) (Service.group_runtime w)
  in
      (* The recovering primary pulls the backup's committed images before
         resuming mastership. *)
      Net.Network.on_crash net "ns" (fun () -> primary_ready := false);
      Net.Network.on_recover net "ns" (fun () ->
          match Gvd.resync_from gvd1 ~source:gvd2 ~from:"ns" with
          | Ok () -> primary_ready := true
          | Error _ -> () (* backup also down: stay un-ready *));
      Some binder2
    end
  in
  Service.run ~until:1.0 w;
  Net.Fault.crash_for net ~at:100.0 ~duration:80.0 "ns";
  let phase_of t = if t < 100.0 then `Before else if t < 180.0 then `During else `After in
  let commits = Hashtbl.create 4 and aborts = Hashtbl.create 4 in
  let bump tbl phase =
    Hashtbl.replace tbl phase (1 + Option.value ~default:0 (Hashtbl.find_opt tbl phase))
  in
  Service.spawn_client w "c1" (fun () ->
      for _ = 1 to 36 do
        let phase = phase_of (Sim.Engine.now eng) in
        let binder =
          match backup with
          | Some binder2 when not (Net.Network.is_up net "ns" && !primary_ready) ->
              binder2
          | _ -> binder1
        in
        (match
           Action.Atomic.atomically (Service.atomic w) ~node:"c1" (fun act ->
               match
                 Binder.bind binder ~act ~scheme:Scheme.Standard ~uid
                   ~policy:Replica.Policy.Single_copy_passive
               with
               | Error e ->
                   raise (Action.Atomic.Abort (Binder.bind_error_to_string e))
               | Ok binding ->
                   ignore
                     (Service.invoke w binding.Binder.bd_group ~act "incr"))
         with
        | Ok () -> bump commits phase
        | Error _ -> bump aborts phase);
        Sim.Engine.sleep eng 8.0
      done);
  Service.run w;
  let get tbl phase = Option.value ~default:0 (Hashtbl.find_opt tbl phase) in
  let label = if replicated then "mirrored pair" else "single durable" in
  ( [
      [ label; "before"; Table.cell_i (get commits `Before); Table.cell_i (get aborts `Before) ];
      [ label; "during outage"; Table.cell_i (get commits `During); Table.cell_i (get aborts `During) ];
      [ label; "after recovery"; Table.cell_i (get commits `After); Table.cell_i (get aborts `After) ];
    ],
    Result.is_ok (Audit.mutual_consistency w uid) )

let run ?(seed = 121L) () =
  let rows_single, ok_single = run_variant ~seed ~replicated:false in
  let rows_pair, ok_pair = run_variant ~seed ~replicated:true in
  Table.make
    ~title:"tab-ns-replicated: replicating the naming service (§3.1 extension)"
    ~columns:[ "variant"; "phase"; "commits"; "aborts" ]
    ~notes:
      [
        "Primary service node down for t in [100,180). The single durable";
        "instance makes the outage total; the mirrored pair fails binds over";
        "to the backup (clients pick it while the failure detector reports";
        "the primary dead) and the recovering primary pulls a snapshot from";
        "the backup before resuming mastership.";
        (Printf.sprintf "St invariant: single=%s, pair=%s."
           (if ok_single then "holds" else "VIOLATED")
           (if ok_pair then "holds" else "VIOLATED"));
      ]
    (rows_single @ rows_pair)
