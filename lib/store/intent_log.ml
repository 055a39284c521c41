type decision = Commit | Abort

type prepare_record = {
  coordinator : string;
  writes : (Uid.t * Object_state.t) list;
}

type t = {
  prepares : (string, prepare_record) Hashtbl.t;
  decisions : (string, decision) Hashtbl.t;
}

let create () = { prepares = Hashtbl.create 16; decisions = Hashtbl.create 16 }

let prepare t ~action ~coordinator writes =
  let merged =
    match Hashtbl.find_opt t.prepares action with
    | None -> writes
    | Some { writes = earlier; _ } ->
        (* Later writes win per UID; earlier writes for other UIDs stay. *)
        let kept =
          List.filter
            (fun (uid, _) -> not (List.exists (fun (u, _) -> Uid.equal u uid) writes))
            earlier
        in
        kept @ writes
  in
  Hashtbl.replace t.prepares action { coordinator; writes = merged }

let prepared t ~action = Hashtbl.find_opt t.prepares action

let resolve t ~action = Hashtbl.remove t.prepares action

let pending_writers t uid =
  Hashtbl.fold
    (fun action { writes; _ } acc ->
      if List.exists (fun (u, _) -> Uid.equal u uid) writes then action :: acc
      else acc)
    t.prepares []
  |> List.sort String.compare

let in_doubt t =
  Hashtbl.fold (fun a _ acc -> a :: acc) t.prepares [] |> List.sort String.compare

let record_decision t ~action d = Hashtbl.replace t.decisions action d

let decision_of t ~action = Hashtbl.find_opt t.decisions action

let forget_decision t ~action = Hashtbl.remove t.decisions action
