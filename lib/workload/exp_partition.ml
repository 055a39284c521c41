open Naming

let run ?(seed = 111L) () =
  let w =
    Service.create ~seed
      {
        Service.gvd_node = "ns";
        gvd_nodes = [];
        server_nodes = [ "alpha" ];
        store_nodes = [ "t1"; "t2" ];
        client_nodes = [ "near"; "far" ];
      }
  in
  let uid =
    Service.create_object w ~name:"obj" ~impl:"counter" ~sv:[ "alpha" ]
      ~st:[ "t1"; "t2" ] ()
  in
  Service.run ~until:1.0 w;
  let eng = Service.engine w in
  let net = Service.network w in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  (* Partition [100, 220): "far" loses the naming node, the server and the
     stores (it is on the wrong side of the cut). *)
  let cut flag =
    List.iter
      (fun peer -> Net.Network.set_partitioned net "far" peer flag)
      [ "ns"; "alpha"; "t1"; "t2"; "near" ]
  in
  Sim.Engine.schedule eng ~delay:100.0 (fun () -> cut true);
  Sim.Engine.schedule eng ~delay:220.0 (fun () -> cut false);
  let counts = Hashtbl.create 8 in
  let bump key =
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  let phase_of t = if t < 100.0 then "pre" else if t < 220.0 then "cut" else "post" in
  List.iter
    (fun client ->
      Service.spawn_client w client (fun () ->
          let rec loop () =
            if Sim.Engine.now eng < 320.0 then begin
              let phase = phase_of (Sim.Engine.now eng) in
              (match
                 Service.with_bound w ~client ~scheme:Scheme.Standard
                   ~policy:Replica.Policy.Single_copy_passive ~uid
                   (fun act group -> Service.invoke w group ~act "incr")
               with
              | Ok _ -> bump (client, phase, "commit")
              | Error _ -> bump (client, phase, "abort"));
              Sim.Engine.sleep eng (Sim.Rng.uniform rng 8.0 15.0);
              loop ()
            end
          in
          loop ()))
    [ "near"; "far" ];
  Service.run w;
  let get client phase kind =
    Option.value ~default:0 (Hashtbl.find_opt counts (client, phase, kind))
  in
  let consistent = Result.is_ok (Audit.mutual_consistency w uid) in
  let row client phase =
    [
      client;
      phase;
      Table.cell_i (get client phase "commit");
      Table.cell_i (get client phase "abort");
    ]
  in
  Table.make
    ~title:"tab-partition: a client partitioned from the naming service"
    ~columns:[ "client"; "phase"; "commits"; "aborts" ]
    ~notes:
      [
        "Phases: pre < t=100, cut in [100,220), post >= 220. The paper";
        "assumes partitions away (§2.3(2)(i)); this shows what the design";
        "buys instead: the naming service is the serialisation point, so a";
        "cut-off client is merely unavailable — strong consistency is never";
        "at risk, and the cut side resumes cleanly after healing.";
        (Printf.sprintf "St invariant at end: %s."
           (if consistent then "holds" else "VIOLATED"));
      ]
    [
      row "near" "pre"; row "near" "cut"; row "near" "post";
      row "far" "pre"; row "far" "cut"; row "far" "post";
    ]
