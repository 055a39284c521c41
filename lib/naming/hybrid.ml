type t = {
  binder : Binder.t;
  ns_node : Net.Network.node_id;
  sets : (int, Net.Network.node_id list) Hashtbl.t;
  ep_servers : (Store.Uid.t, Net.Network.node_id list) Net.Rpc.endpoint;
}

let art t =
  Replica.Server.atomic_runtime
    (Replica.Group.server_runtime (Binder.group_runtime t.binder))

let rpc t = Action.Atomic.rpc (art t)

let install binder ~node =
  let t =
    {
      binder;
      ns_node = node;
      sets = Hashtbl.create 32;
      ep_servers = Net.Rpc.endpoint "hybrid.servers";
    }
  in
  Net.Rpc.serve (rpc t) ~node t.ep_servers (fun uid ->
      Option.value ~default:[] (Hashtbl.find_opt t.sets (Store.Uid.serial uid)));
  t

let register t ~from:_ ~uid ~sv = Hashtbl.replace t.sets (Store.Uid.serial uid) sv

let servers t ~from uid = Net.Rpc.call (rpc t) ~from ~dst:t.ns_node t.ep_servers uid

let take k xs =
  let rec go k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: go (k - 1) rest
  in
  go k xs

(* The hybrid bind's naming-tier reads: the lightweight name server's
   [Sv] set, the database's [impl], and [St] under the nested-action read
   lock. They leave as one {!Sim.Join} scatter: the three pieces are
   independent (each separately locked, all asked for in read mode, none
   feeding another), with the [St] lock still owned by the nested action
   and held to top-level end. Join tasks return values; only the nested
   fiber raises. *)
let hybrid_reads t ~act ~client uid =
  let router = Binder.router t.binder in
  let read_sv () =
    match servers t ~from:client uid with
    | Ok sv -> Ok sv
    | Error e -> Error (Net.Rpc.error_to_string e)
  in
  let read_impl () =
    match Router.entry_info router ~from:client uid with
    | Ok (Some info) -> Ok info.Gvd.ei_impl
    | Ok None -> Error "unknown object"
    | Error e -> Error (Net.Rpc.error_to_string e)
  in
  let read_st nested =
    Router.read router ~act:nested uid Gvd.Stores
    |> Result.map (fun v -> v.Gvd.v_stores)
    |> Result.map_error Router.failure_to_string
  in
  let joined =
    Action.Atomic.atomically_nested act (fun nested ->
        let results =
          Sim.Join.all
            (Action.Atomic.engine (art t))
            [
              (fun () -> `Sv (read_sv ()));
              (fun () -> `Impl (read_impl ()));
              (fun () -> `St (read_st nested));
            ]
        in
        let sv = ref None and impl = ref None and st = ref None in
        List.iter
          (function
            | `Sv r -> sv := Some r
            | `Impl r -> impl := Some r
            | `St r -> st := Some r)
          results;
        match (!sv, !impl, !st) with
        | Some (Ok sv), Some (Ok impl), Some (Ok st) -> (sv, impl, st)
        | Some (Error why), _, _
        | _, Some (Error why), _
        | _, _, Some (Error why) ->
            raise (Action.Atomic.Abort why)
        | _ -> raise (Action.Atomic.Abort "pipelined bind: missing read"))
  in
  match joined with
  | Error why -> Error (Binder.Name_refused why)
  | Ok reads -> Ok reads

let bind t ~act ~uid ~policy =
  let client = Action.Atomic.node act in
  let router = Binder.router t.binder in
  let grt = Binder.group_runtime t.binder in
  match hybrid_reads t ~act ~client uid with
  | Error e -> Error e
  | Ok (sv, impl, st) -> (
      let chosen = take (Replica.Policy.replicas policy) sv in
      if chosen = [] then Error (Binder.No_server "empty server set")
      else
        match
          Replica.Group.activate grt ~client ~uid ~impl ~policy
            ~servers:chosen ~stores:st
        with
        | Error why -> Error (Binder.No_server why)
        | Ok group ->
            let current_stores act' =
              Router.read router ~act:act' uid Gvd.Stores
              |> Result.map (fun v -> v.Gvd.v_stores)
              |> Result.map_error Router.failure_to_string
            in
            let exclude act' failed =
              Binder.exclusion t.binder ~scheme:Scheme.Standard ~uid act'
                failed
            in
            (* Same commit flavour as the binder's: snapshot the
               (St, revision) pair lock-free, validate in the prepare
               round. The hybrid scheme keeps no version fence, so there
               is no [note_version] — validation's only job here is the
               revision check. *)
            let snapshot_stores () = Binder.committed_stores router ~act uid in
            Replica.Commit.attach grt act group ~current_stores
              ~snapshot_stores ~validate:(Binder.validate_note router ~uid)
              ~exclude ();
            Ok
              {
                Binder.bd_uid = uid;
                bd_scheme = Scheme.Standard;
                bd_group = group;
                bd_servers = group.Replica.Group.g_members;
                bd_stores = st;
              })
