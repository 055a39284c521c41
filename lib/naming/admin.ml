type error = Busy of string | Refused of string | Unavailable of string

let error_to_string = function
  | Busy why -> "busy: " ^ why
  | Refused why -> "refused: " ^ why
  | Unavailable why -> "unavailable: " ^ why

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let art t = Replica.Server.atomic_runtime (Replica.Group.server_runtime (Binder.group_runtime t))

exception Administrative of error

let lift_reply = function
  | Ok (Gvd.Granted v) -> v
  | Ok (Gvd.Busy why) -> raise (Administrative (Busy why))
  | Ok (Gvd.Refused why) -> raise (Administrative (Refused why))
  | Ok (Gvd.Moved dest) ->
      raise (Administrative (Unavailable ("wrong shard: " ^ dest)))
  | Error e -> raise (Administrative (Unavailable (Net.Rpc.error_to_string e)))

let administratively t ~from body =
  match
    Action.Atomic.atomically (art t) ~node:from (fun act ->
        try Ok (body act) with Administrative e -> raise (Action.Atomic.Abort (error_to_string e)))
  with
  | Ok (Ok v) -> Ok v
  | Ok (Error e) -> Error e
  | Error reason ->
      (* Recover the structured error when we can; lock refusals from the
         commit path arrive as plain strings. *)
      if String.length reason >= 5 && String.sub reason 0 5 = "busy:" then
        Error (Busy (String.sub reason 6 (String.length reason - 6)))
      else Error (Refused reason)

let add_server t ~from ~uid node =
  administratively t ~from (fun act ->
      lift_reply (Router.insert (Binder.router t) ~act ~uid node))

let retire_server t ~from ~uid node =
  let r =
    administratively t ~from (fun act ->
        lift_reply (Router.retire_server_home (Binder.router t) ~act ~uid node))
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
  administratively t ~from (fun act ->
      lift_reply (Router.retire_store_home (Binder.router t) ~act ~uid node))

let add_store t ~from ~uid node =
  let sh = Action.Atomic.store_host (art t) in
  administratively t ~from (fun act ->
      (* Include first: the write lock serialises against in-flight
         commits, so the state copied below stays the latest until this
         action commits (the reintegration discipline, §4.2). *)
      let fence = lift_reply (Router.include_ (Binder.router t) ~act ~uid node) in
      let sources =
        match Router.entry_info (Binder.router t) ~from uid with
        | Ok (Some info) -> info.Gvd.ei_st_home
        | Ok None | Error _ -> []
      in
      let latest =
        List.fold_left
          (fun best store ->
            if String.equal store node then best
            else
              match Action.Store_host.read sh ~from ~store uid with
              | Ok (Some s) -> (
                  match best with
                  | Some b when not (Store.Object_state.newer_than s b) -> best
                  | _ -> Some s)
              | Ok None | Error _ -> best)
          None sources
      in
      match latest with
      | None -> raise (Administrative (Unavailable "no source store reachable"))
      | Some state when
          Store.Version.compare state.Store.Object_state.version fence < 0 ->
          raise
            (Administrative
               (Unavailable "no reachable source holds the latest committed state"))
      | Some state -> (
          match
            Action.Store_host.prepare sh ~from ~store:node
              ~action:(Action.Atomic.owner act) ~coordinator:from
              [ (uid, state) ]
          with
          | Ok Action.Store_host.Vote_yes ->
              Action.Atomic.add_participant act ~name:("admin-copy:" ^ node)
                ~prepare:(fun () -> true)
                ~commit:(fun () ->
                  ignore
                    (Action.Store_host.commit sh ~from ~store:node
                       ~action:(Action.Atomic.owner act)))
                ~abort:(fun () ->
                  ignore
                    (Action.Store_host.abort sh ~from ~store:node
                       ~action:(Action.Atomic.owner act)))
          | Ok Action.Store_host.Vote_stale | Error _ ->
              raise (Administrative (Unavailable ("cannot copy state to " ^ node)))))
