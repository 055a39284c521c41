type error = Busy of string | Refused of string | Unavailable of string

let error_to_string = function
  | Busy why -> "busy: " ^ why
  | Refused why -> "refused: " ^ why
  | Unavailable why -> "unavailable: " ^ why

let art t = Replica.Server.atomic_runtime (Replica.Group.server_runtime (Binder.group_runtime t))

exception Administrative of error

let update t ~act ~uid op =
  match Router.update (Binder.router t) ~act uid op with
  | Ok o -> o.Gvd.o_fence
  | Error (Router.Busy why) -> raise (Administrative (Busy why))
  | Error (Router.Refused why) -> raise (Administrative (Refused why))
  | Error (Router.Unreachable why) -> raise (Administrative (Unavailable why))

(* The body's own error is kept aside as raised; an abort from the
   commit path has only its reason string. *)
let administratively t ~from body =
  let failed = ref None in
  match
    Action.Atomic.atomically (art t) ~node:from (fun act ->
        try body act
        with Administrative e ->
          failed := Some e;
          raise (Action.Atomic.Abort (error_to_string e)))
  with
  | Ok v -> Ok v
  | Error reason -> Error (Option.value !failed ~default:(Refused reason))

let add_server t ~from ~uid node =
  administratively t ~from (fun act -> ignore (update t ~act ~uid (Gvd.Insert node)))

let retire_server t ~from ~uid node =
  let r =
    administratively t ~from (fun act ->
        ignore (update t ~act ~uid (Gvd.Retire_sv node)))
  in
  (match r with
  | Ok () ->
      (* Best-effort reclamation of the retired node's instance; it is
         quiescent (retirement required quiescence), so this succeeds
         unless the node is down — in which case the instance is gone
         anyway. *)
      let srv = Replica.Group.server_runtime (Binder.group_runtime t) in
      ignore (Replica.Server.passivate srv ~from ~server:node ~uid)
  | Error _ -> ());
  r

let retire_store t ~from ~uid node =
  administratively t ~from (fun act -> ignore (update t ~act ~uid (Gvd.Retire_st node)))

let add_store t ~from ~uid node =
  let sh = Action.Atomic.store_host (art t) in
  administratively t ~from (fun act ->
      (* Include first: the write lock serialises against in-flight
         commits, so the state copied below stays the latest until this
         action commits (the reintegration discipline, §4.2). *)
      let fence = update t ~act ~uid (Gvd.Include node) in
      match Reintegration.newest_state t ~from ~skip:node uid with
      | None -> raise (Administrative (Unavailable "no source store reachable"))
      | Some state when
          Store.Version.compare state.Store.Object_state.version fence < 0 ->
          raise
            (Administrative
               (Unavailable "no reachable source holds the latest committed state"))
      | Some state -> (
          (* The participant goes in before the prepare, so an abort
             reaches a prepare that staged without answering. *)
          let action = Action.Atomic.owner act in
          Action.Atomic.add_participant act
            ~commit:(fun () ->
              Action.Atomic.release act ~node ~op:"action.release_commit" (fun () ->
                  Action.Store_host.commit sh ~from ~store:node ~action))
            ~abort:(fun () ->
              Action.Atomic.release act ~node ~op:"action.release_abort" (fun () ->
                  Action.Store_host.abort sh ~from ~store:node ~action));
          match
            Action.Store_host.prepare sh ~from ~store:node ~action ~coordinator:from
              [ (uid, state) ]
          with
          | Ok Action.Store_host.Vote_yes -> ()
          | Ok (Action.Store_host.Vote_blocked | Vote_stale) | Error _ ->
              raise (Administrative (Unavailable ("cannot copy state to " ^ node)))))
