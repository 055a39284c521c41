open Naming

let run ?(seed = 91L) () =
  let w =
    Service.create ~seed ~durable_naming:true
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "t1"; "t2" ];
        client_nodes = [ "c1" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let net = Service.network w in
  (* Outage window [100, 160); one action is mid-flight at the crash. *)
  Net.Fault.crash_for net ~at:100.0 ~duration:60.0 "ns";
  let phase_of t = if t < 100.0 then `Before else if t < 160.0 then `During else `After in
  let commits = Hashtbl.create 4 and aborts = Hashtbl.create 4 in
  let bump tbl phase =
    Hashtbl.replace tbl phase (1 + Option.value ~default:0 (Hashtbl.find_opt tbl phase))
  in
  Service.spawn_client w "c1" (fun () ->
      for i = 1 to 40 do
        let phase = phase_of (Sim.Engine.now eng) in
        (match
           Service.with_bound w ~client:"c1" ~scheme:Scheme.Standard
             ~policy:Replica.Policy.Single_copy_passive ~uid (fun act group ->
               let r = Service.invoke w group ~act "incr" in
               (* Stretch every 8th action so one straddles the crash. *)
               if i mod 8 = 0 then Sim.Engine.sleep eng 15.0;
               r)
         with
        | Ok _ -> bump commits phase
        | Error _ -> bump aborts phase);
        Sim.Engine.sleep eng 8.0
      done);
  Service.run w;
  let get tbl phase = Option.value ~default:0 (Hashtbl.find_opt tbl phase) in
  let consistent = Result.is_ok (Audit.mutual_consistency w uid) in
  let row phase label =
    [ label; Table.cell_i (get commits phase); Table.cell_i (get aborts phase) ]
  in
  Table.make
    ~title:"tab-ns-outage: a durable (crashable) naming service (§3.1 relaxed)"
    ~columns:[ "phase"; "commits"; "aborts" ]
    ~notes:
      [
        "The service node is down from t=100 to t=160. During the outage";
        "every bind fails (single point of unavailability); in-flight";
        "actions abort at prepare rather than committing against lost";
        "locks. After recovery the committed database state is intact and";
        "the workload resumes.";
        (Printf.sprintf "St mutual-consistency invariant at end: %s."
           (if consistent then "holds" else "VIOLATED"));
        (Printf.sprintf "crash resets of the service: %d."
           (Sim.Metrics.counter (Service.metrics w) "gvd.crash_resets"));
      ]
    [ row `Before "before outage"; row `During "during outage"; row `After "after recovery" ]
