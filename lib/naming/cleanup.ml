let sweep_now gvd art =
  let net = Action.Atomic.network art in
  let node = Gvd.node gvd in
  let removed = ref 0 in
  List.iter
    (fun uid ->
      (* Snapshot the orphans first; each repair is its own action. *)
      let orphans =
        List.concat_map
          (fun (_, ul) ->
            List.filter_map
              (fun (client, _) ->
                if Net.Network.is_up net client then None else Some client)
              (Use_list.clients ul))
          (Gvd.current_uses gvd uid)
        |> List.sort_uniq String.compare
      in
      List.iter
        (fun client ->
          (* A transient lock refusal must not leave the orphan for a whole
             further sweep period: retry the repair a few times through the
             shared policy engine. *)
          match
            Net.Retry.run (Action.Atomic.retry art) ~op:"cleanup.zero"
              (Net.Retry.policy ~attempts:3 ~base:1.0 ~factor:2.0
                 ~max_delay:4.0 ())
              (fun () ->
                Action.Atomic.atomically art ~node (fun act ->
                    match Gvd.update gvd ~act uid (Gvd.Zero client) with
                    | Ok (Gvd.Granted _) -> ()
                    | Ok (Gvd.Refused why) | Ok (Gvd.Busy why) ->
                        raise (Action.Atomic.Abort why)
                    | Ok (Gvd.Moved dest) ->
                        (* Entry migrated to another shard since the
                           snapshot; that shard's own daemon will sweep
                           it. *)
                        raise (Action.Atomic.Abort ("moved to " ^ dest))
                    | Error e ->
                        raise (Action.Atomic.Abort (Net.Rpc.error_to_string e))))
          with
          | Ok () ->
              incr removed;
              Sim.Metrics.incr (Net.Network.metrics net) "cleanup.orphans";
              Sim.Trace.recordf (Net.Network.trace net)
                ~now:(Sim.Engine.now (Action.Atomic.engine art))
                ~tag:"cleanup" "zeroed %s on %a" client Store.Uid.pp uid
          | Error _ -> ())
        orphans)
    (Gvd.all_uids gvd);
  !removed

let start gvd ?(period = 10.0) art =
  let eng = Action.Atomic.engine art in
  let net = Action.Atomic.network art in
  Net.Network.spawn_on net (Gvd.node gvd) ~name:"gvd.cleanup" (fun () ->
      let rec loop () =
        Sim.Engine.sleep eng period;
        ignore (sweep_now gvd art : int);
        loop ()
      in
      loop ())
