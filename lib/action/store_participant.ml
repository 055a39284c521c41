let add act ~store ~writes =
  let rt = Atomic.runtime_of act in
  let sh = Atomic.store_host rt in
  let from = Atomic.node act in
  let action = Atomic.owner act in
  Atomic.add_participant act ~name:("store:" ^ store)
    ~prepare:(fun () ->
      match
        Store_host.prepare sh ~from ~store ~action ~coordinator:from (writes ())
      with
      | Ok Store_host.Vote_yes -> true
      | Ok Store_host.Vote_stale | Error _ -> false)
    ~commit:(fun () -> ignore (Store_host.commit sh ~from ~store ~action))
    ~abort:(fun () -> ignore (Store_host.abort sh ~from ~store ~action))
