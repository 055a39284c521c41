let add act ~store ~writes =
  let rt = Atomic.runtime_of act in
  let sh = Atomic.store_host rt in
  let from = Atomic.node act in
  let action = Atomic.owner act in
  (* The legs go in before the prepare, so an abort reaches a prepare
     that staged without answering. *)
  Atomic.add_participant act
    ~commit:(fun () ->
      Atomic.release act ~node:store ~op:"action.release_commit" (fun () ->
          Store_host.commit sh ~from ~store ~action))
    ~abort:(fun () ->
      Atomic.release act ~node:store ~op:"action.release_abort" (fun () ->
          Store_host.abort sh ~from ~store ~action));
  Atomic.before_commit act (fun () ->
      match
        Store_host.prepare sh ~from ~store ~action ~coordinator:from (writes ())
      with
      | Ok Store_host.Vote_yes -> Ok ()
      | Ok (Store_host.Vote_blocked | Vote_stale) | Error _ ->
          Error ("participant store:" ^ store ^ " voted no"))
